/**
 * @file
 * The simulated memory hierarchy: per-SM L1 caches, a shared L2 (with an
 * optional reserved partition for treelet-queue ray data, paper section
 * 4.2), and DRAM with a latency + bandwidth model. Requests are tagged
 * with a class so the figures can report BVH-only miss rates (Fig. 1a,
 * Fig. 11) and price ray-virtualization traffic separately (Fig. 16/17).
 *
 * Timing style: latencies are resolved at issue ("ready cycle" returned
 * to the requester) with an MSHR-like pending-line table so concurrent
 * misses to the same line merge instead of each paying DRAM latency —
 * and so a ray touching a line whose fill is still in flight waits for
 * the fill, not an L1 hit.
 *
 * Two-phase operation: callers inside an SM tick go through a per-SM
 * SmPort. Outside an issue phase the port resolves synchronously
 * (identical to the plain read()/write()/prefetchL1() entry points).
 * Between beginIssuePhase() and commitIssuePhase() the port only
 * performs the SM-local half of each request (L1 tag lookup/update) and
 * records it; commitIssuePhase() then replays the shared half (stats,
 * L2, DRAM queueing, MSHR tables) of every recorded request in
 * (sm, seq) order — exactly the order a serial SM loop would have
 * produced — and writes each result back through the requester's
 * destination pointer. This lets the Gpu run SM ticks on worker threads
 * with bit-identical results at any thread count.
 */

#ifndef TRT_MEMSYS_MEMSYS_HH
#define TRT_MEMSYS_MEMSYS_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "memsys/cache.hh"
#include "snapshot/serializer.hh"

namespace trt
{

/** Request classes for accounting. */
enum class MemClass : uint8_t
{
    BvhNode = 0, //!< Internal BVH node fetch from the RT unit.
    Triangle,    //!< Leaf triangle block fetch from the RT unit.
    RayData,     //!< Treelet-queue ray data (L2 reserved region).
    CtaState,    //!< Ray virtualization CTA save/restore traffic.
    Shader,      //!< Generic shader-core memory traffic.
    QueueTable,  //!< Treelet queue table held in the L1.
    NumClasses
};

/** Printable name of @p c. */
const char *memClassName(MemClass c);

/** Memory hierarchy parameters (defaults = paper Table 1). */
struct MemConfig
{
    /** 128B lines as in Accel-Sim's RTX 3080 model (two BVH nodes per
     *  line; siblings are adjacent, giving mild spatial locality). */
    uint32_t lineBytes = 128;
    uint32_t numL1s = 16;           //!< One per SM.
    uint64_t l1Bytes = 16 * 1024;   //!< 16KB fully assoc LRU.
    uint32_t l1Ways = 0;            //!< 0 = fully associative.
    uint32_t l1HitLatency = 39;
    uint64_t l2Bytes = 128 * 1024;  //!< 128KB 16-way LRU.
    uint32_t l2Ways = 16;
    uint32_t l2HitLatency = 187;    //!< Round-trip from the core.
    /** L2 bytes reserved for treelet-queue ray data (0 in baseline). */
    uint64_t l2ReservedBytes = 0;
    uint32_t dramLatency = 300;     //!< Added beyond the L2 round trip.
    /** DRAM service bandwidth in bytes per core cycle. */
    double dramBytesPerCycle = 128.0;
};

/** Per-class, per-level counters. */
struct MemClassStats
{
    uint64_t l1Accesses = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t dramAccesses = 0;
    uint64_t dramReadBytes = 0;
    uint64_t dramWriteBytes = 0;
    uint64_t writes = 0;
};

/** Ticket identifying one SmPort request within the current phase. */
using MemTicket = uint32_t;

/** The full hierarchy. One instance per simulated GPU. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemConfig &cfg);

    const MemConfig &config() const { return cfg_; }

    /** Result of a read. */
    struct Access
    {
        uint64_t readyCycle = 0;
        bool l1Hit = false;
        bool l2Hit = false;
    };

    /**
     * Per-SM request frontend (two-phase interface). Constructed by
     * MemorySystem, one per L1; obtain via port(sm). During an issue
     * phase only this SM's L1 tags are touched, so distinct ports may
     * be driven from distinct threads concurrently.
     */
    class SmPort
    {
      public:
        SmPort(MemorySystem &owner, uint32_t sm)
            : owner_(&owner), sm_(sm)
        {}

        /**
         * Read @p bytes at @p addr (see MemorySystem::read). Returns a
         * ticket; the Access is available via result() once resolved —
         * immediately outside an issue phase, after commitIssuePhase()
         * inside one. If @p ready_dst is non-null, the ready cycle is
         * additionally stored through it at resolution time; the
         * pointee must stay at that address until the phase commits.
         */
        MemTicket read(uint64_t now, uint64_t addr, uint32_t bytes,
                       MemClass cls, bool bypass_l1 = false,
                       uint64_t *ready_dst = nullptr);

        /** Write-through store (see MemorySystem::write); no result. */
        void write(uint64_t now, uint64_t addr, uint32_t bytes,
                   MemClass cls);

        /** Prefetch into this SM's L1 (see MemorySystem::prefetchL1).
         *  The resulting Access carries only readyCycle. */
        MemTicket prefetchL1(uint64_t now, uint64_t addr, uint32_t bytes,
                             MemClass cls);

        /** True once @p t has a result (always true for tickets issued
         *  outside an issue phase). */
        bool resolved(MemTicket t) const { return t < results_.size(); }

        /** Result of @p t; valid until the next beginIssuePhase(). */
        const Access &result(MemTicket t) const { return results_[t]; }

        /** L1 probe; SM-local, callable in any phase. */
        bool l1Probe(uint64_t addr) const
        { return owner_->l1Probe(sm_, addr); }

      private:
        friend class MemorySystem;

        struct Request
        {
            enum Kind : uint8_t { Read, Write, Prefetch } kind;
            bool bypassL1 = false;
            MemClass cls = MemClass::Shader;
            uint32_t bytes = 0;
            uint64_t now = 0;
            uint64_t addr = 0;
            uint32_t flagOff = 0; //!< Into flags_ (per-line tag state).
            uint64_t *readyDst = nullptr;
        };

        MemorySystem *owner_;
        uint32_t sm_;
        std::vector<Request> requests_;
        std::vector<uint8_t> flags_;
        std::vector<Access> results_;
    };

    /** The issue frontend of SM @p sm. */
    SmPort &port(uint32_t sm) { return ports_[sm]; }

    /**
     * Enter the deferred (issue) phase: ports record requests instead
     * of resolving them. Clears all tickets of the previous phase.
     */
    void beginIssuePhase();

    /**
     * Leave the issue phase: resolve every recorded request against the
     * shared L2/DRAM state in (sm, seq) order and write results back.
     */
    void commitIssuePhase();

    /** True between beginIssuePhase() and commitIssuePhase(). */
    bool issuePhase() const { return issuePhase_; }

    /**
     * Read @p bytes at @p addr from SM @p sm at time @p now. Multi-line
     * requests issue all lines back to back; the returned ready cycle is
     * when the last line arrives.
     *
     * @param bypass_l1 Route around the L1 (ray-data loads do this so
     *        they cannot evict treelet data, paper section 4.2).
     */
    Access read(uint64_t now, uint32_t sm, uint64_t addr, uint32_t bytes,
                MemClass cls, bool bypass_l1 = false);

    /**
     * Write @p bytes (write-through, no-allocate). Consumes DRAM
     * bandwidth and counts traffic; the caller does not wait for it.
     */
    void write(uint64_t now, uint32_t sm, uint64_t addr, uint32_t bytes,
               MemClass cls);

    /**
     * Prefetch [addr, addr+bytes) into SM @p sm's L1 (treelet loads and
     * the treelet prefetcher use this). Lines are installed immediately
     * and marked in flight; a demand access before the fill completes
     * waits for it. @return cycle the last line arrives.
     */
    uint64_t prefetchL1(uint64_t now, uint32_t sm, uint64_t addr,
                        uint32_t bytes, MemClass cls);

    /** True when the line holding @p addr resides in SM @p sm's L1. */
    bool l1Probe(uint32_t sm, uint64_t addr) const;

    const MemClassStats &classStats(MemClass c) const
    { return stats_[size_t(c)]; }

    /** Sum over all classes. */
    MemClassStats totalStats() const;

    uint32_t lineBytes() const { return cfg_.lineBytes; }

    /**
     * Snapshot hooks (DESIGN.md §7). Must be called outside an issue
     * phase — SmPort tickets are per-phase transients and are not
     * captured. Covers every cache tag store, the MSHR pending-fill
     * tables, the DRAM bandwidth clock and the per-class counters.
     */
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);

  private:
    /**
     * MSHR-style pending-fill table: open-addressed, linear-probed,
     * power-of-two sized. Keys are simulated line addresses (optionally
     * tagged with an SM id in the high bits) and are never 0, so 0 is
     * the empty-slot sentinel. This sits on the hottest path of every
     * miss, where the allocation and pointer chasing of a node-based
     * hash map dominated the simulator profile.
     */
    class PendingLineTable
    {
      public:
        PendingLineTable() { slots_.resize(kMinCapacity); }

        /** Insert or overwrite @p key -> @p ready. */
        void
        put(uint64_t key, uint64_t ready)
        {
            assert(key != 0);
            if ((used_ + 1) * 4 > slots_.size() * 3)
                grow(slots_.size() * 2);
            size_t i = hashOf(key) & (slots_.size() - 1);
            while (slots_[i].key != 0 && slots_[i].key != key)
                i = (i + 1) & (slots_.size() - 1);
            if (slots_[i].key == 0) {
                slots_[i].key = key;
                used_++;
            }
            slots_[i].ready = ready;
        }

        /** Stored ready cycle of @p key, or 0 when absent. */
        uint64_t
        get(uint64_t key) const
        {
            size_t i = hashOf(key) & (slots_.size() - 1);
            while (slots_[i].key != 0) {
                if (slots_[i].key == key)
                    return slots_[i].ready;
                i = (i + 1) & (slots_.size() - 1);
            }
            return 0;
        }

        /** Snapshot hooks: the table is captured as key-sorted
         *  (key, ready) pairs and rebuilt by re-insertion — probe
         *  layout may differ, the key->ready mapping (the only
         *  observable state) is identical. */
        void
        saveState(Serializer &s) const
        {
            std::vector<Slot> live;
            live.reserve(used_);
            for (const Slot &sl : slots_)
                if (sl.key != 0)
                    live.push_back(sl);
            std::sort(live.begin(), live.end(),
                      [](const Slot &a, const Slot &b) {
                          return a.key < b.key;
                      });
            s.beginChunk("PLTB");
            s.u64(live.size());
            for (const Slot &sl : live) {
                s.u64(sl.key);
                s.u64(sl.ready);
            }
            s.endChunk();
        }

        void
        loadState(Deserializer &d)
        {
            d.beginChunk("PLTB");
            uint64_t n = d.u64();
            slots_.assign(kMinCapacity, Slot{});
            used_ = 0;
            for (uint64_t i = 0; i < n; i++) {
                uint64_t key = d.u64();
                uint64_t ready = d.u64();
                if (key == 0)
                    throw SnapshotError("snapshot: null MSHR key");
                put(key, ready);
            }
            d.endChunk();
        }

        /** Drop every entry whose ready cycle is <= @p now (rebuild:
         *  linear probing cannot erase in place). */
        void
        clean(uint64_t now)
        {
            size_t live = 0;
            for (const Slot &s : slots_)
                live += s.key != 0 && s.ready > now;
            size_t cap = kMinCapacity;
            while (cap * 3 < live * 4 * 2)
                cap *= 2;
            std::vector<Slot> old = std::move(slots_);
            slots_.assign(cap, Slot{});
            used_ = 0;
            for (const Slot &s : old) {
                if (s.key != 0 && s.ready > now)
                    put(s.key, s.ready);
            }
        }

      private:
        struct Slot
        {
            uint64_t key = 0;
            uint64_t ready = 0;
        };

        static constexpr size_t kMinCapacity = 1024;

        static size_t
        hashOf(uint64_t key)
        {
            return size_t((key * 0x9E3779B97F4A7C15ull) >> 32);
        }

        void
        grow(size_t cap)
        {
            std::vector<Slot> old = std::move(slots_);
            slots_.assign(cap, Slot{});
            used_ = 0;
            for (const Slot &s : old)
                if (s.key != 0)
                    put(s.key, s.ready);
        }

        std::vector<Slot> slots_;
        size_t used_ = 0;
    };

    /** Per-line L1 tag state captured at issue time. */
    enum LineFlag : uint8_t
    {
        kLineMiss = 0,     //!< L1 miss (tag updated / installed).
        kLineHit = 1,      //!< L1 hit.
        kLineResident = 2, //!< Prefetch target already resident.
    };

    /** Issue half of read(): per-SM L1 tag lookups, one flag per line
     *  appended to @p flags. No-op (appends nothing) for bypass_l1. */
    void issueReadTags(uint32_t sm, uint64_t addr, uint32_t bytes,
                       bool bypass_l1, std::vector<uint8_t> &flags);
    /** Issue half of prefetchL1(): probe/install, one flag per line. */
    void issuePrefetchTags(uint32_t sm, uint64_t addr, uint32_t bytes,
                           std::vector<uint8_t> &flags);
    /** Commit half of read(): everything downstream of the L1 tags. */
    Access commitRead(uint32_t sm, const SmPort::Request &r,
                      const std::vector<uint8_t> &flags);
    /** Commit half of prefetchL1(). */
    uint64_t commitPrefetch(uint32_t sm, const SmPort::Request &r,
                            const std::vector<uint8_t> &flags);

    /** Shared (post-L1-tag) half of one line read: counters, series,
     *  MSHR waits, L2 lookup and DRAM queueing. */
    uint64_t finishLine(uint64_t now, uint32_t sm, uint64_t line_addr,
                        MemClass cls, bool bypass_l1, bool l1_hit);

    /** DRAM queueing + service; returns completion cycle. */
    uint64_t dramService(uint64_t now, uint32_t bytes, MemClass cls,
                         bool is_write);

    void notePending(PendingLineTable &map, uint64_t key, uint64_t ready);
    uint64_t pendingReady(const PendingLineTable &map, uint64_t key,
                          uint64_t now) const;

    MemConfig cfg_;
    std::vector<Cache> l1s_;
    Cache l2_;
    std::unique_ptr<Cache> l2Reserved_;

    std::vector<SmPort> ports_;
    bool issuePhase_ = false;
    /** Scratch for the serial (immediate) path's per-line flags. */
    std::vector<uint8_t> scratchFlags_;

    /** In-flight fills keyed by (sm << 48) | line for L1, line for L2. */
    PendingLineTable pendingL1_;
    PendingLineTable pendingL2_;
    uint64_t pendingSweep_ = 0;

    uint64_t dramBusyUntil_ = 0;
    double dramCyclesPerByte_;

    std::array<MemClassStats, size_t(MemClass::NumClasses)> stats_{};
};

} // namespace trt

#endif // TRT_MEMSYS_MEMSYS_HH
