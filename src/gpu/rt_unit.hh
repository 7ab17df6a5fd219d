/**
 * @file
 * The RT unit: the per-SM ray tracing accelerator. Models the
 * Vulkan-Sim RT unit of the paper's Figure 3: a warp buffer of ray
 * entries, a memory scheduler that pushes one BVH address per cycle to
 * the memory access queue, a response path and fixed-function
 * intersection units. Traversal uses the dual-stack treelet order
 * (bvh/traverser.hh) under every dispatch policy.
 *
 * One pipeline serves every policy (DESIGN.md §9). The unit owns the
 * warp slots, the per-ray pipeline stepping, all memory traffic (ray
 * data writes and L1-bypassing reads, treelet loads and preloads) and
 * the accounting; its DispatchPolicy (dispatch_policy.hh) owns the
 * rays waiting outside the slots and every scheduling decision. The
 * baseline's warps are ray-stationary slots; the paper's virtualized
 * treelet queues add initial and treelet-stationary slots, parking and
 * repacking through the same slots.
 */

#ifndef TRT_GPU_RT_UNIT_HH
#define TRT_GPU_RT_UNIT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bvh/traverser.hh"
#include "gpu/config.hh"
#include "gpu/rate_limiter.hh"
#include "memsys/memsys.hh"

namespace trt
{

struct SharedPredict;
class TelemChannel;
struct TelemSample;
enum class TelemEventKind : uint8_t;

/** "No pending event" sentinel for nextEventCycle(). */
constexpr uint64_t kNoEvent = ~0ull;

/**
 * Ready-cycle sentinel stored while a deferred memory request is
 * unresolved (issue phase, see memsys.hh). Any comparison
 * `ready > now` naturally stalls the consumer; commitIssuePhase()
 * overwrites it with the real ready cycle before anyone can observe a
 * later `now`.
 */
constexpr uint64_t kPendingReady = ~0ull;

/** Traversal mode attribution for Figures 14/15. */
enum class TraversalMode : uint8_t
{
    Initial = 0,       //!< Initial ray-stationary phase.
    TreeletStationary, //!< Treelet warps from treelet queues.
    RayStationary,     //!< Final phase (grouped/underpopulated rays).
    NumModes
};

const char *traversalModeName(TraversalMode m);

constexpr size_t kNumTraversalModes = size_t(TraversalMode::NumModes);

/**
 * Bounds-checked index into the mode-indexed stat arrays
 * (RtStats::modeCycles / isectTests). A TraversalMode enumerator added
 * without growing the arrays throws here instead of silently skewing
 * the accounting through an out-of-range raw cast.
 */
constexpr size_t
modeIndex(TraversalMode m)
{
    return size_t(m) < kNumTraversalModes
               ? size_t(m)
               : throw std::out_of_range(
                     "TraversalMode outside the stat arrays");
}

/** One lane's ray handed to the RT unit by a warp. */
struct LaneRay
{
    uint8_t lane;
    Ray ray;
};

/** One lane's traversal result returned to the warp. */
struct LaneHit
{
    uint8_t lane;
    HitRecord hit;
};

/** A warp's traceRayEXT() issue. */
struct TraceRequest
{
    uint64_t token = 0;    //!< Unique per warp trace.
    uint32_t ctaToken = 0; //!< Owning CTA (virtualization bookkeeping).
    std::vector<LaneRay> lanes;
};

/** RT unit statistics feeding the paper's figures. */
struct RtStats
{
    // SIMT efficiency (Fig. 1b / 13b): active vs. total lanes
    // integrated over cycles with at least one occupied warp slot.
    uint64_t activeLaneCycles = 0;
    uint64_t slotLaneCycles = 0;

    // Per-mode cycle and work distribution (Figs. 14/15).
    std::array<uint64_t, size_t(TraversalMode::NumModes)> modeCycles{};
    std::array<uint64_t, size_t(TraversalMode::NumModes)> isectTests{};

    uint64_t nodeVisits = 0;
    uint64_t leafVisits = 0;
    uint64_t raysCompleted = 0;
    uint64_t boundaryCrossings = 0;

    // Treelet queue machinery (section 6.5 area analysis).
    uint64_t raysEnqueued = 0;
    uint64_t treeletWarpsFormed = 0;
    uint64_t groupedWarpsFormed = 0;
    uint64_t repackEvents = 0;
    uint64_t repackedRays = 0;
    /** L1 treelet working-set reloads: treelet-stationary warps
     *  dispatched for a treelet other than the one currently loaded
     *  (Vtq policy only; DESIGN.md §12). */
    uint64_t treeletSwitches = 0;
    uint32_t countTableHighWater = 0;
    uint32_t countTableOverThresholdHW = 0;
    uint32_t queueTableEntriesHW = 0;
    uint64_t maxConcurrentRays = 0;

    // Prefetcher (Chou et al. comparison).
    uint64_t prefetchLines = 0;
    uint64_t prefetchUsedLines = 0;
    uint64_t prefetchIssues = 0;

    // Dispatch policies (DESIGN.md §9).
    uint64_t reorderBatches = 0; //!< Reorder: warps formed from bins.
    uint64_t predictLookups = 0; //!< Predict: table probes.
    uint64_t predictHits = 0;    //!< Predicted block held the hit.
    uint64_t predictMisses = 0;  //!< Primed but wrong (root fallback).
    uint64_t predictInserts = 0; //!< Prediction-table trainings.

    double
    predictHitRate() const
    {
        uint64_t primed = predictHits + predictMisses;
        return primed ? double(predictHits) / double(primed) : 0.0;
    }

    double
    simtEfficiency() const
    {
        return slotLaneCycles
                   ? double(activeLaneCycles) / double(slotLaneCycles)
                   : 0.0;
    }

    /** Merge @p o into this, summing Work/Exact counters and
     *  max-merging high-water marks — kinds come from the counter
     *  registry (telemetry/counter_registry.hh). */
    void accumulate(const RtStats &o);

    /** Snapshot hooks (field-by-field via the counter registry; the
     *  struct has padding). */
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);
};

/** What a warp slot is running. */
enum class SlotKind : uint8_t
{
    Free,
    Initial,       //!< Fresh warp in its initial ray-stationary phase.
    Treelet,       //!< Treelet-stationary warp from one treelet queue.
    RayStationary, //!< Warp whose rays cross treelet boundaries freely.
};

/** Per-ray execution stage within the RT unit pipeline. */
enum class RayStage : uint8_t
{
    WaitData,  //!< Ray data load outstanding (parked rays).
    NeedIssue, //!< Needs its next BVH address issued.
    WaitMem,   //!< Memory response outstanding.
    WaitIsect, //!< In the intersection pipeline.
    Done,
};

/** A ray entry of the warp buffer. Its stage and ready cycle live in
 *  the owning WarpSlot's arrays. */
struct RayEntry
{
    bool valid = false;
    uint8_t lane = 0;
    uint64_t warpToken = 0;
    uint32_t ctaToken = 0;
    uint32_t rayId = 0; //!< Virtual ray id (treelet queues only).
    RayTraverser trav;
    bool fetchIsLeaf = false;
};

/** One warp slot of the warp buffer (Table 1: one per RT unit). */
struct WarpSlot
{
    SlotKind kind = SlotKind::Free;
    uint32_t treelet = kInvalidTreelet; //!< Treelet slots: their treelet.
    bool draining = false; //!< Initial warp diverged: park at next stop.
    /** Entries were (re)installed since the boundary pass last ran, so
     *  the next tick pass must run it even without step progress. */
    bool policyPending = false;
    std::vector<RayEntry> entries; //!< warpSize entries.
    /**
     * Entry i's pipeline stage and the cycle its current wait ends,
     * kept beside the entries so the tick's due test reads a few
     * hundred bytes instead of every traverser. A free entry is Done.
     * Sized once with the entries: deferred memory requests write
     * their ready cycle through &ready[i].
     */
    std::vector<RayStage> stage;
    std::vector<uint64_t> ready;
    uint32_t active = 0; //!< Valid entries.
};

/**
 * A ray the unit holds outside its warp slots, owned by the
 * DispatchPolicy: fresh from a shader warp (traverser reset, not yet
 * at the root treelet, no stack buffers) or parked in a treelet queue.
 */
struct QueuedRay
{
    RayTraverser trav;
    uint64_t warpToken = 0;
    uint32_t ctaToken = 0;
    uint32_t rayId = 0;
    uint8_t lane = 0;
    /** Nonzero: ray data was preloaded and arrives at this cycle
     *  (section 4.3 ray-data preloading). */
    uint64_t dataReadyAt = 0;
};

class DispatchPolicy;

/**
 * The RT unit. A warp buffer of WarpSlots (Table 1: one slot) fed by
 * the DispatchPolicy selected by GpuConfig::policy (DESIGN.md §9):
 *  - fifo, prefetch, reorder and predict form ray-stationary warps of
 *    fresh rays that traverse to completion, crossing treelet
 *    boundaries freely — the paper's baseline GPU (with the treelet
 *    traversal order of Chou et al. already applied, as section 5
 *    specifies). Boundary decisions are taken inline, per ray.
 *  - vtq parks rays in treelet queues (sections 3.2, 4.2-4.5): fresh
 *    warps run an initial ray-stationary phase until their rays
 *    diverge, then park; treelet-stationary warps drain one queue with
 *    the treelet loaded into the L1 (the next treelet and ray data are
 *    preloaded); underpopulated queues are grouped into ray-stationary
 *    warps that are repacked as their lanes finish. A slot's boundary
 *    decisions wait until every due ray of the slot has stepped (the
 *    treelet controller acts per warp), repeated to a fixed point.
 *
 * Ray virtualization (section 3.1/4.1) lives in the Gpu/CTA scheduler;
 * the policy enforces its ray capacity (maxVirtualRaysPerSm) by
 * refusing warps beyond it.
 */
class BaselineRtUnit
{
  public:
    using CompletionFn =
        std::function<void(uint64_t token, std::vector<LaneHit> &&)>;

    BaselineRtUnit(const GpuConfig &cfg, MemorySystem &mem, const Bvh &bvh,
                   uint32_t sm_id);
    ~BaselineRtUnit(); //!< Out-of-line: DispatchPolicy is fwd.

    /**
     * Whether the unit takes a warp of @p lanes more rays now (the
     * policy's ray cap, DESIGN.md §9). A refusal traces a
     * rate-limited QueueOverflow event. The answer can only turn to
     * yes once the unit completes a ray (stats().raysCompleted moves),
     * so a refused caller need not ask again before that unless
     * overflowEventDue().
     */
    bool admit(uint64_t now, uint32_t lanes);
    /** Take an admitted warp's trace. */
    void accept(uint64_t now, TraceRequest &&req);
    /** Whether a refusal at @p now would trace a QueueOverflow. */
    bool
    overflowEventDue(uint64_t now) const
    {
        return telem_ && (lastOverflowEventAt_ == 0 ||
                          now >= lastOverflowEventAt_ + telem_->every);
    }

    /** Advance internal state to time @p now. */
    void tick(uint64_t now);

    /**
     * Earliest cycle at which tick() could make progress (kNoEvent when
     * idle). Maintained incrementally: every ray/slot state transition
     * notes its wake-up cycle into a per-unit min-heap (noteEvent), so
     * this is O(1) amortized instead of a rescan of every slot and
     * queue. Stale heap records (from entries that advanced or parked
     * earlier than recorded) only cause benign extra ticks; they are
     * lazily discarded at the next tick (consumeEventsUpTo).
     */
    uint64_t nextEventCycle() const { return cachedNextEvent(); }

    /** True when no rays are in flight or queued. */
    bool idle() const;

    /**
     * Warm-up recovery metric: how much drained state the unit holds.
     * The sampler records this before a fast-forward drain and holds
     * the post-leg warm-up until it has rebuilt to the pre-drain
     * level — queue state is what the drain destroys, and measuring
     * before it recovers reads rounds serviced against empty queues.
     * Rays in the slots count one each; the policy weighs the rays it
     * holds (DispatchPolicy::raysHeld — VTQ caps each treelet queue's
     * contribution so queue spread, not just population, must rebuild).
     */
    uint64_t raysHeld() const;

    /**
     * Called once per cycle after commitIssuePhase(), in SM order:
     * resolves ray-data preloads deferred in the issue phase, whose
     * destination ray may have moved (see preloadFixups_).
     */
    void onMemCommit(uint64_t now);

    /** One-line occupancy/state summary for stall diagnostics. */
    std::string debugStatus() const;

    /**
     * Sampled-simulation fast-forward entry (DESIGN.md §8): complete
     * every ray this unit owns — in flight or queued — functionally
     * (finishTraversal), fire the normal completion callbacks so warp
     * state stays consistent, and leave the unit idle() with no pending
     * events. Counters keep accumulating; the sampler only reads
     * counter deltas inside measured intervals, so drain-time increments
     * never pollute an estimate. Only callable at the serial commit
     * boundary (same contract as saveState).
     */
    void drainFunctional(uint64_t now);

    void setCompletion(CompletionFn fn) { completion_ = std::move(fn); }

    /** Attach the GPU-owned shared prediction table
     *  (TRT_PREDICT_SHARED, DESIGN.md §9); only PredictPolicy uses it. */
    void setSharedPredict(SharedPredict *sp);

    /** Attach this SM's telemetry staging channel (DESIGN.md §12).
     *  Null (the default) keeps every telemetry hook a single
     *  predictable branch. */
    void setTelemetry(TelemChannel *ch) { telem_ = ch; }

    const RtStats &stats() const { return stats_; }
    uint32_t smId() const { return smId_; }

    /**
     * Snapshot hooks (DESIGN.md §7). Only callable at the serial
     * commit boundary of Gpu::run, where every deferred memory ticket
     * has been resolved — a still-pending ready sentinel in any ray
     * entry is a SnapshotError. The unit's "RTUN" chunk is followed by
     * the policy's chunks.
     */
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);

  private:
    /**
     * Run the WaitData/NeedIssue/WaitMem/WaitIsect stages for @p e at
     * time @p now as far as shared-resource limits allow. Stops (and
     * returns) whenever the traverser reaches a boundary or finishes —
     * the caller then resolves it. With @p stop_at_issue the ray
     * additionally halts before issuing its next access (used to drain
     * a warp that is being terminated into the treelet queues).
     * @return true if state changed.
     */
    bool stepRay(uint64_t now, WarpSlot &slot, size_t i, TraversalMode mode,
                 bool stop_at_issue = false);

    /** Whether entry @p i's traverser needs a decision (done or at a
     *  boundary). */
    static bool
    needsPolicy(const WarpSlot &slot, size_t i)
    {
        const RayTraverser &t = slot.entries[i].trav;
        return slot.stage[i] == RayStage::NeedIssue &&
               (t.done() || t.atBoundary());
    }

    static TraversalMode modeOf(SlotKind k);
    /** Every ray the unit holds: in slots or with the policy. */
    uint64_t raysOwned() const;

    /** Step every due ray of @p slot. True when another pass of the
     *  tick loop may find work: the slot freed, or (parking policies)
     *  any ray or the slot changed. */
    bool stepSlot(uint64_t now, WarpSlot &slot);
    /** Act on entry @p i stopped at NeedIssue: deliver it when done,
     *  else take the policy's continue-or-park decision at a treelet
     *  boundary. True when the ray entered its next treelet. */
    bool resolve(uint64_t now, WarpSlot &slot, size_t i);
    /** Parking policies' per-warp boundary pass: resolve every stopped
     *  ray, then repack the warp if the policy asks for it. */
    void resolveSlot(uint64_t now, WarpSlot &slot);
    /** Distinct treelets the slot's active rays need. */
    uint32_t slotDivergence(const WarpSlot &slot) const;

    /** Fill every free slot from the policy. True when some slot took
     *  fresh rays, which can issue this very cycle. */
    bool dispatch(uint64_t now);
    /** Install the policy's next warp into free @p slot; see
     *  dispatch() for the result. */
    bool fillSlot(uint64_t now, WarpSlot &slot);
    /** Move @p q into a free entry of @p slot: fresh rays enter their
     *  first treelet, parked rays (re)load their ray data. */
    void install(uint64_t now, WarpSlot &slot, QueuedRay &&q);
    /** Park entry @p i's ray into the queue of its next treelet. */
    void park(uint64_t now, WarpSlot &slot, size_t i);
    /** Deliver entry @p i's finished ray and release the entry. */
    void finishEntry(uint64_t now, WarpSlot &slot, size_t i);
    /** Record a finished ray's hit; fires completion_ on the last. */
    void deliver(uint64_t warp_token, uint8_t lane, const HitRecord &hit);
    /** Mark a slot with no live rays free. */
    void freeSlot(WarpSlot &slot);

    /** Make @p treelet the L1-resident one (load unless preloaded). */
    void loadTreelet(uint64_t now, uint32_t treelet);
    /** Ray-data preloading (section 4.3): fetch the data of the rays
     *  forming @p treelet's queue's next warp. */
    void preloadRayData(uint64_t now, uint32_t treelet);
    /** Treelet preloading (section 4.3): load the policy's pick for
     *  the next treelet while the current queue drains. */
    void maybePreloadTreelet(uint64_t now);
    /** Issue the policy's prefetch (if any) after a treelet entry. */
    void prefetchOnEnter(uint64_t now);
    uint64_t rayDataAddr(uint32_t ray_id) const;

    void accountInterval(uint64_t now);

    // --- incremental next-event tracking -----------------------------
    /** Record a future wake-up cycle (min-heap with lazy deletion). */
    void
    noteEvent(uint64_t cycle)
    {
        if (cycle == kNoEvent)
            return;
        eventHeap_.push_back(cycle);
        std::push_heap(eventHeap_.begin(), eventHeap_.end(),
                       std::greater<>{});
    }

    /**
     * Record a wake-up whose cycle is still the kPendingReady sentinel
     * (deferred memory request). The pointee is read — by then real —
     * at the first nextEventCycle() after commitIssuePhase(); the Gpu
     * refreshes every ticked SM then, before any entry referenced here
     * can be recycled.
     */
    void notePendingEvent(const uint64_t *ready)
    { pendingEventReadies_.push_back(ready); }

    /**
     * Record the issue port's free cycle for a ray it turned away.
     * Every ray a full port turns away in one tick waits for the same
     * cycle, so the records are held as one cycle and a count instead
     * of one heap push each; only the snapshot sees the count, which
     * lists every record as the heap would.
     */
    void
    noteIssueWake(uint64_t cycle)
    {
        if (issueWakeCount_ != 0 && issueWakeAt_ != cycle) {
            // A different cycle while one is held: keep both.
            eventHeap_.insert(eventHeap_.end(), issueWakeCount_,
                              issueWakeAt_);
            std::make_heap(eventHeap_.begin(), eventHeap_.end(),
                           std::greater<>{});
            issueWakeCount_ = 0;
        }
        issueWakeAt_ = cycle;
        issueWakeCount_++;
    }

    /** Drop event records at or before @p now; call at tick() start
     *  (the tick processes everything ready by @p now). */
    void
    consumeEventsUpTo(uint64_t now)
    {
        drainPendingEvents();
        while (!eventHeap_.empty() && eventHeap_.front() <= now) {
            std::pop_heap(eventHeap_.begin(), eventHeap_.end(),
                          std::greater<>{});
            eventHeap_.pop_back();
        }
        if (issueWakeAt_ <= now)
            issueWakeCount_ = 0;
    }

    /** Current earliest recorded event (kNoEvent when none). */
    uint64_t
    cachedNextEvent() const
    {
        drainPendingEvents();
        uint64_t next = eventHeap_.empty() ? kNoEvent : eventHeap_.front();
        return issueWakeCount_ != 0 ? std::min(next, issueWakeAt_) : next;
    }

    /** Forget every recorded wake-up (drainFunctional leaves no rays
     *  that could be woken; stale records would only cost spurious
     *  ticks, but dropping them keeps nextEventCycle() exactly
     *  kNoEvent, which the sampled driver asserts). */
    void
    clearEventRecords()
    {
        eventHeap_.clear();
        pendingEventReadies_.clear();
        issueWakeCount_ = 0;
    }

    void
    drainPendingEvents() const
    {
        for (const uint64_t *p : pendingEventReadies_) {
            // A pointee still holding the sentinel belongs to a preload
            // fixup drained before onMemCommit() patched it; the patch
            // notes the real wake-up itself, so just skip it here.
            if (*p == kPendingReady)
                continue;
            eventHeap_.push_back(*p);
            std::push_heap(eventHeap_.begin(), eventHeap_.end(),
                           std::greater<>{});
        }
        pendingEventReadies_.clear();
    }

    /** Serialize entry @p i of @p slot (traverser included). */
    void saveRayEntry(Serializer &s, const WarpSlot &slot, size_t i) const;
    /** Restore entry @p i of @p slot, re-binding its traverser to
     *  bvh_. */
    void loadRayEntry(Deserializer &d, WarpSlot &slot, size_t i);

    // --- telemetry (DESIGN.md §12) -----------------------------------
    /** Stage a periodic time-series sample if one is due. Call at
     *  tick() start — tick-time context, writes only this SM's
     *  channel. No-op without telemetry. */
    void maybeTelemSample(uint64_t now);
    /** Stage an event on this SM's track (no-op unless tracing). */
    void telemEvent(uint64_t now, TelemEventKind kind, uint64_t a0 = 0,
                    uint64_t a1 = 0);

    /** Pop a pooled traverser (or a fresh one when the pool is dry). */
    RayTraverser
    takeTraverser()
    {
        if (travPool_.empty())
            return RayTraverser();
        RayTraverser t = std::move(travPool_.back());
        travPool_.pop_back();
        return t;
    }

    const GpuConfig &cfg_;
    MemorySystem &mem_;
    /** This SM's two-phase frontend; all tick-time traffic goes here. */
    MemorySystem::SmPort &port_;
    const Bvh &bvh_;
    uint32_t smId_;

    /** Memory scheduler issue-width limiter. */
    RateLimiter memIssue_;
    /** Intersection pipeline front-end limiter. */
    RateLimiter isect_;
    /** Intersection latency of one node visit: isectBoxLatency, plus
     *  the dequantization stage for compressed layouts, plus the second
     *  4-wide box batch for 8-wide nodes. Precomputed from cfg_ and
     *  bvh_ at construction (both immutable). */
    uint32_t nodeLatency_;

    RtStats stats_;
    CompletionFn completion_;
    uint64_t lastAccounted_ = 0;
    /** This SM's telemetry staging channel; null = telemetry off. */
    TelemChannel *telem_ = nullptr;

    std::unique_ptr<DispatchPolicy> policy_;
    /** policy_->parksRays(), cached for the hot loop. */
    bool parksRays_;

    std::vector<WarpSlot> slots_;

    /** Per-warp completion bookkeeping: a policy may split one shader
     *  warp's rays across RT warps, so hits are delivered per ray and
     *  the trace completes when its last ray does. */
    struct WarpBk
    {
        uint32_t outstanding = 0;
        std::vector<LaneHit> hits;
    };
    /** token -> outstanding/hits; std::map iterates token-sorted, so
     *  snapshots of identical states produce identical bytes. */
    std::map<uint64_t, WarpBk> warps_;

    /**
     * Spare traversers, kept for their grown stack capacity. Slot
     * entries restart fresh rays in place on their own buffers; a
     * parked ray carries its traverser away and back, so park() refills
     * the entry from here and install() of a parked ray returns the
     * entry's buffers. Without this, each park pays the full vector
     * growth sequence of the stacks plus the matching frees, which
     * dominates the simulator's malloc traffic.
     */
    std::vector<RayTraverser> travPool_;

    uint32_t loadedTreelet_ = kInvalidTreelet;
    uint32_t preloadedTreelet_ = kInvalidTreelet;

    /** Last cycle a QueueOverflow event was traced. A full unit
     *  refuses the same warp again at every retry; tracing one refusal
     *  per sampling window keeps the trace readable. Serialized so a
     *  resumed trace rate-limits identically. */
    uint64_t lastOverflowEventAt_ = 0;

    /**
     * Ray-data preloads deferred in an issue phase whose destination —
     * a QueuedRay in a policy queue, possibly moved into a slot entry
     * within the same tick — cannot be pinned by address. onMemCommit()
     * resolves each ticket and finds the ray by id instead.
     */
    struct PreloadFixup
    {
        MemTicket ticket;
        uint32_t rayId;
        uint32_t treelet;
    };
    std::vector<PreloadFixup> preloadFixups_;

    // Pooled scratch (allocation-free steady state).
    std::vector<QueuedRay> warpScratch_;
    mutable std::vector<uint32_t> divScratch_;

    // Mutable: cachedNextEvent() folds resolved deferred readies into
    // the heap from the const query path.
    mutable std::vector<uint64_t> eventHeap_;
    mutable std::vector<const uint64_t *> pendingEventReadies_;
    /** Issue-port wake-ups held outside the heap (noteIssueWake): a
     *  cycle and how many records it stands for (0 = none). */
    uint64_t issueWakeAt_ = 0;
    uint64_t issueWakeCount_ = 0;
};

} // namespace trt

#endif // TRT_GPU_RT_UNIT_HH
