/**
 * @file
 * Dispatch policies (DESIGN.md §9): the strategy objects that decide
 * *which ray runs next, in which warp, starting at which node*, kept
 * separate from the RT unit's pipeline, timing and memory traffic.
 *
 * A policy owns every ray the unit holds outside its warp slots
 * (enqueue / nextWarp / park) and takes every scheduling decision:
 * admission, continue-or-park at a treelet boundary, which queue or
 * strays form the next warp, repacking, which treelet to preload or
 * prefetch, and where a ray starts traversing. The unit
 * (BaselineRtUnit) acts on those decisions and issues all memory
 * requests. All policy state is per-RT-unit and mutated only inside
 * that SM's tick or the serial phases, so every policy is
 * bit-identical across TRT_SIM_THREADS and TRT_SIMD. Policies only
 * move *when* rays run and *where* traversal starts; the rendered
 * frame is identical across all of them (the Predict policy's
 * speculative entry is frame-exact by construction — see
 * RayTraverser::primeSpeculation).
 *
 * Policies:
 *  - Fifo:     arrival order, warps kept intact. Reproduces the seed
 *              baseline cycle-for-cycle.
 *  - Prefetch: Fifo plus the treelet prefetcher of Chou et al.
 *              (MICRO'23), the paper's Figure 10 comparison point: on
 *              every treelet entry the most popular treelet among the
 *              resident rays is prefetched whole into the L1, and
 *              prefetched lines never demanded count as waste.
 *  - Vtq:      the paper's virtualized treelet queues (sections
 *              3.2, 4.2-4.5): rays park in per-treelet queues and are
 *              dispatched as initial, treelet-stationary and grouped
 *              ray-stationary warps.
 *  - Reorder:  Morton/octant-binned ray reordering before warp
 *              formation (Meister et al.'s reordering line): pending
 *              rays are binned by a quantized origin Morton code plus
 *              the direction octant and drained in key order, so each
 *              formed warp is spatially coherent.
 *  - Predict:  hash-based path prediction (Demoullin/Gubran/Aamodt):
 *              a per-unit direct-mapped table maps a quantized
 *              origin/direction hash to the leaf block that resolved
 *              the last such ray; predicted rays enter traversal at
 *              that block, with misprediction detection and root
 *              fallback built into the traverser.
 */

#ifndef TRT_GPU_DISPATCH_POLICY_HH
#define TRT_GPU_DISPATCH_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "gpu/line_set.hh"
#include "gpu/rt_unit.hh"

namespace trt
{

/**
 * Shared prediction table (TRT_PREDICT_SHARED, DESIGN.md §9): one
 * table serving every SM's PredictPolicy instead of one per RT unit
 * (one RT unit per SM in this model, so per-SM and global sharing
 * coincide). Determinism under the parallel tick fan-out: the table is
 * *frozen* during the tick phase — speculate() only reads it — while
 * training updates append to the calling SM's own pending queue
 * (race-free by construction). The Gpu applies the queues in SM order
 * at the serial cycle commit (flush()), the exact order a serial SM
 * loop would produce, so RunStats are bit-identical at any
 * TRT_SIM_THREADS. Updates therefore become visible to lookups at the
 * next cycle boundary.
 */
struct SharedPredict
{
    struct Entry
    {
        uint64_t tag = 0;
        uint32_t firstTri = 0;
        uint32_t count = 0; //!< 0 = empty.
    };

    /** One deferred training update. */
    struct Train
    {
        uint64_t hash = 0;
        uint32_t firstTri = 0;
        uint32_t count = 0;
    };

    explicit SharedPredict(const GpuConfig &cfg);

    std::vector<Entry> table;
    uint64_t mask = 0;
    /** Per-SM pending trainings; SM @p s appends only to pending[s]. */
    std::vector<std::vector<Train>> pending;

    /** Apply every pending training in SM order, then clear the
     *  queues. Serial phases only. */
    void flush();

    /** Snapshot hooks ("PSHR" chunk). Pending queues must be empty —
     *  the capture point is after the per-cycle flush. */
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);
};

/** What a free warp slot runs next (DispatchPolicy::nextWarp). */
struct WarpPlan
{
    SlotKind kind = SlotKind::Free; //!< Free = leave the slot free.
    uint32_t treelet = kInvalidTreelet; //!< Treelet warps: the queue.
};

/** Strategy interface; see the file comment. */
class DispatchPolicy
{
  public:
    /** A predicted leaf block to enter traversal at (Predict only). */
    struct Speculation
    {
        uint32_t firstTri = 0;
        uint32_t count = 0;
        bool valid = false;
    };

    /** A treelet to prefetch into the L1 (Prefetch only). */
    struct PrefetchChoice
    {
        uint32_t treelet = kInvalidTreelet; //!< Invalid = none.
        uint64_t lines = 0; //!< Newly tracked lines (telemetry).
    };

    DispatchPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats)
        : cfg_(cfg), bvh_(bvh), stats_(stats)
    {
    }
    virtual ~DispatchPolicy() = default;

    virtual DispatchPolicyKind kind() const = 0;

    /**
     * Whether rays park in treelet queues (Vtq). The unit then writes
     * each accepted ray's data to the reserved L2 region under a
     * virtual ray id, and takes a slot's boundary decisions only after
     * every due ray of the slot has stepped (the treelet controller
     * acts per warp); otherwise each ray is resolved the moment it
     * stops.
     */
    virtual bool parksRays() const { return false; }

    // ---- held rays -----------------------------------------------------
    /** May the unit take a warp of @p lanes more rays? */
    virtual bool
    admit(uint32_t lanes) const
    {
        (void)lanes;
        return true;
    }
    /** Virtual ray id for an accepted ray (parking policies only). */
    virtual uint32_t allocRayId() { return 0; }
    /** A ray completed; recycle its id. */
    virtual void releaseRay(uint32_t ray_id) { (void)ray_id; }
    /** Hand over one accepted shader warp's rays, traversers reset. */
    virtual void enqueue(std::vector<QueuedRay> &&group) = 0;
    /**
     * Choose what a free slot runs next and move its rays into @p out
     * (cleared first; non-empty unless the plan is Free). @p
     * loaded_treelet is the treelet resident in the L1
     * (kInvalidTreelet if none).
     */
    virtual WarpPlan nextWarp(uint32_t loaded_treelet,
                              std::vector<QueuedRay> &out) = 0;
    /** Rays held (not in a slot). */
    virtual uint64_t queuedRays() const = 0;
    /** Held rays as the warm-up metric weighs them (see
     *  BaselineRtUnit::raysHeld). */
    virtual uint64_t raysHeld() const { return queuedRays(); }
    /** Move out *every* held ray in deterministic order for the
     *  functional drain; only called with every slot drained, so the
     *  unit is empty afterwards. */
    virtual void takeQueued(std::vector<QueuedRay> &out) = 0;

    // ---- treelet queues (parking policies) -----------------------------
    /** Treelet-boundary decision for a ray of @p slot heading into @p
     *  next_treelet: true parks it in that treelet's queue.
     *  @p divergence is the distinct treelets the slot's rays need
     *  (computed for Initial slots only). */
    virtual bool
    parkAtBoundary(const WarpSlot &slot, uint32_t next_treelet,
                   uint32_t divergence) const
    {
        (void)slot;
        (void)next_treelet;
        (void)divergence;
        return false;
    }
    /** Take a parked ray into @p treelet's queue. */
    virtual void park(QueuedRay &&ray, uint32_t treelet);
    /** Should a ray-stationary warp with @p active rays be repacked? */
    virtual bool
    repackDue(uint32_t active) const
    {
        (void)active;
        return false;
    }
    /** Pull up to @p max parked rays across queues into @p out
     *  (cleared first). */
    virtual void
    takeStrays(uint32_t max, std::vector<QueuedRay> &out)
    {
        (void)max;
        out.clear();
    }
    /** @p treelet's queue, or null when it is empty. The unit preloads
     *  the data of its next warp's rays and patches their ready cycles
     *  (onMemCommit). */
    virtual std::deque<QueuedRay> *
    queue(uint32_t treelet)
    {
        (void)treelet;
        return nullptr;
    }
    /** Treelet to preload while @p loaded_treelet's queue drains
     *  (section 4.3), or kInvalidTreelet. */
    virtual uint32_t
    preloadTreelet(uint32_t loaded_treelet) const
    {
        (void)loaded_treelet;
        return kInvalidTreelet;
    }

    // ---- per-ray traversal hooks -------------------------------------
    /** Consulted once per fresh ray at slot install; a valid result
     *  primes the traverser (RayTraverser::primeSpeculation). */
    virtual Speculation
    speculate(const Ray &ray)
    {
        (void)ray;
        return {};
    }
    /** Called when a ray's traversal completes (timing or functional
     *  drain); Predict trains its table and scores the outcome here. */
    virtual void
    onRayComplete(const RayTraverser &trav)
    {
        (void)trav;
    }
    /** A ray of @p slots entered a treelet; returns the treelet to
     *  prefetch into the L1, if any. */
    virtual PrefetchChoice
    onTreeletEnter(uint64_t now, const std::vector<WarpSlot> &slots)
    {
        (void)now;
        (void)slots;
        return {};
    }
    /** Called for each demand-fetched BVH line. */
    virtual void onDemandLine(uint64_t line_addr) { (void)line_addr; }
    /** Attach the GPU-owned shared prediction table; @p sm_id selects
     *  this unit's pending-train queue. No-op for every policy except
     *  Predict (TRT_PREDICT_SHARED). */
    virtual void
    setShared(SharedPredict *sp, uint32_t sm_id)
    {
        (void)sp;
        (void)sm_id;
    }

    // ---- observability -------------------------------------------------
    /** Fill the queue fields of a telemetry sample (Vtq). */
    virtual void telemSampleFill(TelemSample &s) const { (void)s; }
    /** Append policy state to the unit's stall diagnostic. */
    virtual void debugStatus(std::ostream &os) const { (void)os; }

    // ---- snapshot ----------------------------------------------------
    /** Persist held rays + table state ("DPOL"/"PREF"/"PRED"). */
    virtual void saveState(Serializer &s) const = 0;
    virtual void loadState(Deserializer &d) = 0;

  protected:
    const GpuConfig &cfg_;
    const Bvh &bvh_;
    RtStats &stats_;
};

/** Arrival-order pool; warps stay intact. Timing-identical to the
 *  pre-policy baseline unit. */
class FifoPolicy : public DispatchPolicy
{
  public:
    using DispatchPolicy::DispatchPolicy;

    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::Fifo;
    }

    void enqueue(std::vector<QueuedRay> &&group) override;
    WarpPlan nextWarp(uint32_t loaded_treelet,
                      std::vector<QueuedRay> &out) override;
    uint64_t queuedRays() const override { return count_; }
    void takeQueued(std::vector<QueuedRay> &out) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  private:
    std::deque<std::vector<QueuedRay>> groups_;
    uint64_t count_ = 0;
};

/** Fifo plus Chou et al.'s most-popular-treelet prefetcher. */
class PrefetchPolicy : public FifoPolicy
{
  public:
    using FifoPolicy::FifoPolicy;

    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::Prefetch;
    }

    PrefetchChoice onTreeletEnter(uint64_t now,
                                  const std::vector<WarpSlot> &slots) override;
    void onDemandLine(uint64_t line_addr) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  private:
    /** Most popular current treelet among the slots' rays (or
     *  invalid). */
    uint32_t popularTreelet(const std::vector<WarpSlot> &slots) const;

    uint32_t lastPrefetched_ = kInvalidTreelet;
    /** Earliest cycle the next prefetch may issue (cooldown). */
    uint64_t nextAllowed_ = 0;
    /** Prefetched lines not yet demanded. */
    LineSet outstanding_;
    /** Pooled {treelet, count} histogram for popularTreelet(). */
    mutable std::vector<std::pair<uint32_t, uint32_t>> histoScratch_;
};

/** The paper's virtualized treelet queues (sections 3.2, 4.2-4.5). */
class VtqPolicy : public DispatchPolicy
{
  public:
    using DispatchPolicy::DispatchPolicy;

    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::Vtq;
    }

    bool parksRays() const override { return true; }
    bool
    admit(uint32_t lanes) const override
    {
        return inFlight_ + lanes <= cfg_.maxVirtualRaysPerSm;
    }
    uint32_t allocRayId() override;
    void releaseRay(uint32_t ray_id) override;
    void enqueue(std::vector<QueuedRay> &&group) override;
    WarpPlan nextWarp(uint32_t loaded_treelet,
                      std::vector<QueuedRay> &out) override;
    uint64_t queuedRays() const override { return freshRays_ + queued_; }
    uint64_t raysHeld() const override;
    void takeQueued(std::vector<QueuedRay> &out) override;

    bool parkAtBoundary(const WarpSlot &slot, uint32_t next_treelet,
                        uint32_t divergence) const override;
    void park(QueuedRay &&ray, uint32_t treelet) override;
    bool repackDue(uint32_t active) const override;
    void takeStrays(uint32_t max, std::vector<QueuedRay> &out) override;
    std::deque<QueuedRay> *queue(uint32_t treelet) override;
    uint32_t preloadTreelet(uint32_t loaded_treelet) const override;

    void telemSampleFill(TelemSample &s) const override;
    void debugStatus(std::ostream &os) const override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

  private:
    /** Fold the live table counters into the stats high-water marks
     *  (sampled per park). */
    void updateTableHighWater();
    /** Incremental table-occupancy bookkeeping: called with the queue's
     *  new size after every push / pop. */
    void noteQueueGrew(size_t sz);
    void noteQueueShrank(size_t sz);
    /** Depth at which raysHeld() stops counting a queue's rays. */
    uint64_t
    heldDepthCap() const
    {
        return 2 * std::max<uint64_t>(1, cfg_.queueThreshold);
    }

    /** Accepted warps waiting for their initial phase, in order. */
    std::deque<std::vector<QueuedRay>> fresh_;
    uint64_t freshRays_ = 0;
    /** treeletId -> parked rays; std::map gives the deterministic
     *  "first table entry" order section 4.4 gathers in. */
    std::map<uint32_t, std::deque<QueuedRay>> queues_;
    uint64_t queued_ = 0;

    uint32_t inFlight_ = 0; //!< Accepted, not yet completed.
    std::vector<uint32_t> freeRayIds_;
    uint32_t nextRayId_ = 0;

    // Live treelet-table occupancy, maintained at every queue size
    // change so the per-park high-water sampling is O(1) instead of a
    // scan of every queue.
    uint32_t overThresholdNow_ = 0;
    /** Sum over queues of ceil(size / warpSize). */
    uint32_t tableEntriesNow_ = 0;
    /** Sum over queues of min(size, heldDepthCap()); derived, so not
     *  serialized (loadState recomputes it). */
    uint64_t heldCapped_ = 0;
};

/** Morton/octant-binned ray reordering (DESIGN.md §9). */
class ReorderPolicy : public DispatchPolicy
{
  public:
    using DispatchPolicy::DispatchPolicy;

    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::Reorder;
    }

    void enqueue(std::vector<QueuedRay> &&group) override;
    WarpPlan nextWarp(uint32_t loaded_treelet,
                      std::vector<QueuedRay> &out) override;
    uint64_t queuedRays() const override { return count_; }
    void takeQueued(std::vector<QueuedRay> &out) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

    /** Bin key: 3*reorderBinBits Morton bits of the quantized origin,
     *  then the 3 direction-sign octant bits (exposed for tests). */
    uint64_t binKey(const Ray &ray) const;

  private:
    /** std::map: deterministic ascending-key drain order. */
    std::map<uint64_t, std::deque<QueuedRay>> bins_;
    uint64_t count_ = 0;
};

/** Hash-based path prediction (DESIGN.md §9). FIFO warp formation;
 *  the table only changes where each ray *starts* traversing. */
class PredictPolicy : public FifoPolicy
{
  public:
    PredictPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats);

    DispatchPolicyKind
    kind() const override
    {
        return DispatchPolicyKind::Predict;
    }

    Speculation speculate(const Ray &ray) override;
    void onRayComplete(const RayTraverser &trav) override;
    void setShared(SharedPredict *sp, uint32_t sm_id) override;

    void saveState(Serializer &s) const override;
    void loadState(Deserializer &d) override;

    /** Quantized origin/direction hash (exposed for tests). */
    uint64_t rayHash(const Ray &ray) const;

  private:
    struct Entry
    {
        uint64_t tag = 0;
        uint32_t firstTri = 0;
        uint32_t count = 0; //!< 0 = empty.
    };

    /** Private table; unused (and kept empty in snapshots) when the
     *  shared table is attached. */
    std::vector<Entry> table_;
    uint64_t mask_ = 0;
    SharedPredict *shared_ = nullptr; //!< Non-owning; Gpu-owned.
    uint32_t smId_ = 0;               //!< Pending-queue index when shared.
};

/** Construct the policy @p cfg.policy names, bound to @p stats (the
 *  owning unit's counters). */
std::unique_ptr<DispatchPolicy>
makeDispatchPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats);

} // namespace trt

#endif // TRT_GPU_DISPATCH_POLICY_HH
