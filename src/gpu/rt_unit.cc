#include "gpu/rt_unit.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "gpu/dispatch_policy.hh"
#include "telemetry/counter_registry.hh"
#include "telemetry/telemetry.hh"

namespace trt
{

namespace
{

/** Base simulated address of the per-SM ray-data region (section 4.2:
 *  ray data lives in a reserved portion of the L2). */
constexpr uint64_t kRayDataBase = 0x200000000ull;

} // anonymous namespace

const char *
traversalModeName(TraversalMode m)
{
    switch (m) {
      case TraversalMode::Initial:
        return "initial";
      case TraversalMode::TreeletStationary:
        return "treelet_stationary";
      case TraversalMode::RayStationary:
        return "ray_stationary";
      default:
        return "unknown";
    }
}

// Tripwire for the counter registry: a field added to RtStats without
// a registry entry changes this size and fails here — update
// telemetry/counter_registry.hh (serialization, accumulation and the
// sampled-counter enumeration all follow from it automatically).
static_assert(sizeof(RtStats) == 27 * sizeof(uint64_t) +
                                     3 * sizeof(uint32_t) + 4,
              "RtStats changed: register the new counter in "
              "telemetry/counter_registry.hh");

void
RtStats::accumulate(const RtStats &o)
{
    // Registry-driven merge: Work/Exact counters sum, high-water marks
    // take the max. Gather the other side's values first (both walks
    // visit fields in the identical registry order).
    std::vector<uint64_t> vals;
    vals.reserve(32);
    forEachRtCounter(o, [&](const CounterInfo &, const auto &v) {
        vals.push_back(uint64_t(v));
    });
    size_t i = 0;
    forEachRtCounter(*this, [&](const CounterInfo &ci, auto &v) {
        using T = std::decay_t<decltype(v)>;
        if (ci.kind == CounterKind::HighWater)
            v = std::max(v, T(vals[i++]));
        else
            v = T(v + vals[i++]);
    });
}

BaselineRtUnit::BaselineRtUnit(const GpuConfig &cfg, MemorySystem &mem,
                               const Bvh &bvh, uint32_t sm_id)
    : cfg_(cfg), mem_(mem), port_(mem.port(sm_id)), bvh_(bvh),
      smId_(sm_id), memIssue_(cfg.rtMemIssuePerCycle),
      isect_(cfg.isectIssuePerCycle)
{
    // Node-visit latency (DESIGN.md §11): compressed layouts pay a
    // dequantization stage before the box tests, and 8-wide nodes push
    // a second 4-wide AABB batch through the intersection pipeline.
    nodeLatency_ = cfg.isectBoxLatency;
    if (bvh.quantized())
        nodeLatency_ += cfg.nodeDecodeLatency;
    if (bvh.width() == kMaxBvhWidth)
        nodeLatency_ += cfg.wideBoxExtraLatency;

    policy_ = makeDispatchPolicy(cfg, bvh, stats_);
    parksRays_ = policy_->parksRays();
    slots_.resize(cfg.warpBufferSize);
    for (WarpSlot &slot : slots_) {
        slot.entries.resize(cfg.warpSize);
        slot.stage.assign(cfg.warpSize, RayStage::Done);
        slot.ready.assign(cfg.warpSize, 0);
    }
}

BaselineRtUnit::~BaselineRtUnit() = default;

void
BaselineRtUnit::setSharedPredict(SharedPredict *sp)
{
    policy_->setShared(sp, smId_);
}

TraversalMode
BaselineRtUnit::modeOf(SlotKind k)
{
    switch (k) {
      case SlotKind::Initial:
        return TraversalMode::Initial;
      case SlotKind::Treelet:
        return TraversalMode::TreeletStationary;
      default:
        return TraversalMode::RayStationary;
    }
}

uint64_t
BaselineRtUnit::rayDataAddr(uint32_t ray_id) const
{
    return kRayDataBase +
           (uint64_t(smId_) * cfg_.maxVirtualRaysPerSm + ray_id) *
               kRayDataBytes;
}

// ---- telemetry -----------------------------------------------------------

void
BaselineRtUnit::maybeTelemSample(uint64_t now)
{
    if (!telem_ || !telem_->sampleDue(now))
        return;
    TelemSample &s = telem_->startSample(now);
    s.treeletSwitches = stats_.treeletSwitches;
    s.predictLookups = stats_.predictLookups;
    s.predictHits = stats_.predictHits;
    s.nodeVisits = stats_.nodeVisits;
    s.raysCompleted = stats_.raysCompleted;
    s.raysHeld = uint32_t(std::min<uint64_t>(raysOwned(), UINT32_MAX));
    policy_->telemSampleFill(s);
}

void
BaselineRtUnit::telemEvent(uint64_t now, TelemEventKind kind, uint64_t a0,
                           uint64_t a1)
{
    if (telem_)
        telem_->event(now, kind, a0, a1);
}

// ---- per-ray pipeline ----------------------------------------------------

bool
BaselineRtUnit::stepRay(uint64_t now, WarpSlot &slot, size_t i,
                        TraversalMode mode, bool stop_at_issue)
{
    RayEntry &e = slot.entries[i];
    RayStage &stage = slot.stage[i];
    uint64_t &ready = slot.ready[i];
    bool changed = false;
    for (;;) {
        switch (stage) {
          case RayStage::WaitData:
            if (ready > now)
                return changed;
            stage = RayStage::NeedIssue;
            changed = true;
            break;

          case RayStage::NeedIssue: {
            if (needsPolicy(slot, i) || stop_at_issue)
                return changed; // caller decides (done / boundary / park)
            if (memIssue_.nextFree(now) > now) {
                // Issue port exhausted this cycle; wake when it frees.
                noteIssueWake(memIssue_.nextFree(now));
                return changed;
            }
            uint64_t issue_at = memIssue_.book(now);
            RayTraverser::Access acc = e.trav.currentAccess();
            // Let the policy observe demand lines (prefetch tracking).
            uint64_t first = acc.addr & ~uint64_t(mem_.lineBytes() - 1);
            uint64_t last = (acc.addr + acc.bytes - 1) &
                            ~uint64_t(mem_.lineBytes() - 1);
            for (uint64_t a = first; a <= last; a += mem_.lineBytes())
                policy_->onDemandLine(a);
            MemClass cls =
                acc.leaf ? MemClass::Triangle : MemClass::BvhNode;
            // Deferred in an issue phase: the sentinel parks the ray in
            // WaitMem until commitIssuePhase() stores the real ready
            // cycle through &ready (the slot arrays never move).
            ready = kPendingReady;
            port_.read(issue_at, acc.addr, acc.bytes, cls, false, &ready);
            // Outside an issue phase the read resolved synchronously
            // and ready is already real; otherwise the sentinel is
            // read after commitIssuePhase() resolves it. Either way the
            // entry stays parked in WaitMem (and its slot occupied)
            // until then, so the recorded pointer cannot dangle.
            if (ready == kPendingReady)
                notePendingEvent(&ready);
            else if (ready > now)
                noteEvent(ready);
            e.fetchIsLeaf = acc.leaf;
            stage = RayStage::WaitMem;
            changed = true;
            break;
          }

          case RayStage::WaitMem: {
            if (ready > now)
                return changed;
            // Data returned to the response FIFO; enter the
            // intersection pipeline (throughput limited).
            uint64_t start = isect_.book(std::max(now, ready));
            ready = start + (e.fetchIsLeaf ? cfg_.isectTriLatency
                                           : nodeLatency_);
            stage = RayStage::WaitIsect;
            if (ready > now)
                noteEvent(ready);
            changed = true;
            break;
          }

          case RayStage::WaitIsect: {
            if (ready > now)
                return changed;
            uint32_t tests = e.trav.complete();
            stats_.isectTests[modeIndex(mode)] += tests;
            if (e.fetchIsLeaf)
                stats_.leafVisits++;
            else
                stats_.nodeVisits++;
            stage = RayStage::NeedIssue;
            changed = true;
            break;
          }

          case RayStage::Done:
            return changed;
        }
    }
}

// ---- accept and delivery -------------------------------------------------

bool
BaselineRtUnit::admit(uint64_t now, uint32_t lanes)
{
    if (policy_->admit(lanes))
        return true;
    if (overflowEventDue(now)) {
        telemEvent(now, TelemEventKind::QueueOverflow, raysOwned());
        lastOverflowEventAt_ = now;
    }
    return false;
}

void
BaselineRtUnit::accept(uint64_t now, TraceRequest &&req)
{
    uint32_t lanes = uint32_t(req.lanes.size());
    if (lanes == 0) {
        if (completion_)
            completion_(req.token, {});
        return;
    }

    // The shader warp stalls at traceRayEXT() either way; holding the
    // rays here is timing-equivalent to stalling in the SM and keeps
    // the SM model simple. Completion bookkeeping is registered up
    // front because a policy may spread the warp's rays over several
    // RT warps; the trace completes when its last ray delivers.
    warps_[req.token] = WarpBk{lanes, {}};
    std::vector<QueuedRay> group;
    group.reserve(lanes);
    for (const LaneRay &lr : req.lanes) {
        QueuedRay q;
        q.trav.reset(&bvh_, lr.ray);
        q.warpToken = req.token;
        q.ctaToken = req.ctaToken;
        q.lane = lr.lane;
        if (parksRays_) {
            // Section 4.2 step 1: ray data is written to the reserved
            // L2 region as the warp issues to the RT unit.
            q.rayId = policy_->allocRayId();
            port_.write(now, rayDataAddr(q.rayId), kRayDataBytes,
                        MemClass::RayData);
        }
        group.push_back(std::move(q));
    }
    policy_->enqueue(std::move(group));
    // Fresh rays can issue this very cycle; this call runs outside a
    // tick, so schedule a same-cycle tick.
    if (dispatch(now))
        noteEvent(now);
}

void
BaselineRtUnit::deliver(uint64_t warp_token, uint8_t lane,
                        const HitRecord &hit)
{
    auto it = warps_.find(warp_token);
    assert(it != warps_.end() && it->second.outstanding > 0);
    WarpBk &bk = it->second;
    bk.hits.push_back({lane, hit});
    if (--bk.outstanding == 0) {
        std::vector<LaneHit> hits = std::move(bk.hits);
        warps_.erase(it);
        if (completion_)
            completion_(warp_token, std::move(hits));
    }
}

void
BaselineRtUnit::finishEntry(uint64_t now, WarpSlot &slot, size_t i)
{
    RayEntry &e = slot.entries[i];
    policy_->onRayComplete(e.trav);
    if (telem_ && e.trav.specOutcome() != RayTraverser::SpecOutcome::None)
        telemEvent(now, TelemEventKind::SpeculationVerdict,
                   e.trav.specOutcome() == RayTraverser::SpecOutcome::Correct
                       ? 1
                       : 0);
    deliver(e.warpToken, e.lane, e.trav.hit());
    policy_->releaseRay(e.rayId);
    e.valid = false;
    slot.stage[i] = RayStage::Done;
    slot.active--;
    stats_.raysCompleted++;
}

// ---- warp formation ------------------------------------------------------

bool
BaselineRtUnit::dispatch(uint64_t now)
{
    bool fresh = false;
    for (WarpSlot &slot : slots_)
        if (slot.kind == SlotKind::Free)
            fresh |= fillSlot(now, slot);
    return fresh;
}

bool
BaselineRtUnit::fillSlot(uint64_t now, WarpSlot &slot)
{
    WarpPlan plan = policy_->nextWarp(loadedTreelet_, warpScratch_);
    if (plan.kind == SlotKind::Free)
        return false;
    if (plan.kind == SlotKind::Treelet)
        loadTreelet(now, plan.treelet);

    slot.kind = plan.kind;
    slot.treelet = plan.treelet;
    assert(!warpScratch_.empty());
    // A ray that never entered the BVH comes straight from a shader
    // warp; anything else was parked.
    bool fresh = warpScratch_.front().trav.currentTreelet() ==
                 kInvalidTreelet;
    for (QueuedRay &q : warpScratch_)
        install(now, slot, std::move(q));
    warpScratch_.clear();

    if (plan.kind == SlotKind::Treelet) {
        preloadRayData(now, plan.treelet);
        if (!policy_->queue(plan.treelet))
            telemEvent(now, TelemEventKind::QueueDrained, plan.treelet);
        if (stats_.treeletWarpsFormed == 0)
            telemEvent(now, TelemEventKind::TreeletPhaseEntered,
                       plan.treelet);
        stats_.treeletWarpsFormed++;
        maybePreloadTreelet(now);
    } else if (!fresh) {
        stats_.groupedWarpsFormed++;
    }
    telemEvent(now, TelemEventKind::WarpFormed,
               uint64_t(modeOf(plan.kind)), slot.active);
    // The treelet controller's fixed-point pass may end before an
    // initial warp steps; schedule a same-cycle tick for it.
    if (plan.kind == SlotKind::Initial)
        noteEvent(now);
    return fresh;
}

void
BaselineRtUnit::install(uint64_t now, WarpSlot &slot, QueuedRay &&q)
{
    size_t i = size_t(std::find(slot.stage.begin(), slot.stage.end(),
                                RayStage::Done) -
                      slot.stage.begin());
    assert(i < slot.entries.size() && "no free entry in slot");
    RayEntry &e = slot.entries[i];
    uint64_t &ready = slot.ready[i];
    e.valid = true;
    e.lane = q.lane;
    e.warpToken = q.warpToken;
    e.ctaToken = q.ctaToken;
    e.rayId = q.rayId;
    e.fetchIsLeaf = false;
    slot.active++;
    slot.policyPending = true;

    if (q.trav.currentTreelet() == kInvalidTreelet) {
        // Fresh rays arrive straight from the shader core's registers:
        // no ray-data load, and the entry's traverser restarts in place
        // on its own stack buffers. Predicted rays start at the
        // predicted leaf block (the root fallback that always follows
        // re-enters the treelet path through the ordinary boundary
        // handling); the rest enter the root treelet. The stage is set
        // last so a prefetch decision does not count the entry yet.
        e.trav.reset(&bvh_, q.trav.ray());
        DispatchPolicy::Speculation spec =
            policy_->speculate(e.trav.ray());
        if (spec.valid) {
            e.trav.primeSpeculation(spec.firstTri, spec.count);
        } else {
            e.trav.enterNextTreelet();
            prefetchOnEnter(now);
        }
        slot.stage[i] = RayStage::NeedIssue;
        ready = now;
        return;
    }

    // A parked ray brings its traverser; the entry's spare buffers go
    // to the pool for the next park. Its data comes from the reserved
    // L2 region, bypassing the L1 so treelet data is not evicted —
    // unless the preloader already fetched it (section 4.3).
    travPool_.push_back(std::move(e.trav));
    e.trav = std::move(q.trav);
    slot.stage[i] = RayStage::WaitData;
    if (q.dataReadyAt > 0) {
        // A kPendingReady preload sentinel propagates into the ready
        // cycle and stalls the ray until onMemCommit() patches it
        // (which also notes the wake-up).
        ready = std::max(now, q.dataReadyAt);
    } else {
        ready = kPendingReady;
        port_.read(now, rayDataAddr(e.rayId), kRayDataBytes,
                   MemClass::RayData, true, &ready);
    }
    // The slot arrays are sized once and a WaitData entry pins its
    // slot, so the sentinel pointer stays valid until drained.
    if (ready == kPendingReady)
        notePendingEvent(&ready);
    else
        noteEvent(ready);
}

void
BaselineRtUnit::freeSlot(WarpSlot &slot)
{
    slot.kind = SlotKind::Free;
    slot.treelet = kInvalidTreelet;
    slot.draining = false;
    slot.policyPending = false;
    slot.active = 0;
}

void
BaselineRtUnit::park(uint64_t now, WarpSlot &slot, size_t i)
{
    RayEntry &e = slot.entries[i];
    uint32_t target = e.trav.atBoundary() ? e.trav.nextTreelet()
                                          : e.trav.currentTreelet();
    assert(target != kInvalidTreelet);

    QueuedRay q;
    q.trav = std::move(e.trav);
    e.trav = takeTraverser();
    q.warpToken = e.warpToken;
    q.ctaToken = e.ctaToken;
    q.rayId = e.rayId;
    q.lane = e.lane;

    // Ray state (shrunk tmax / hit-so-far) is written back to the
    // reserved L2 region; the queue-table update itself is charged to
    // the energy model per enqueue (the 6.29KB table is pinned next to
    // the treelet data, section 6.5).
    port_.write(now, rayDataAddr(q.rayId), kRayDataBytes,
                MemClass::RayData);
    policy_->park(std::move(q), target);

    e.valid = false;
    slot.stage[i] = RayStage::Done;
    slot.active--;
}

// ---- treelet loads and preloads ------------------------------------------

void
BaselineRtUnit::loadTreelet(uint64_t now, uint32_t treelet)
{
    if (treelet == loadedTreelet_)
        return;
    if (treelet == preloadedTreelet_) {
        // Already (being) loaded by the preloader.
        preloadedTreelet_ = kInvalidTreelet;
    } else {
        port_.prefetchL1(now, bvh_.treeletBaseAddr(treelet),
                         bvh_.treeletBytes(treelet), MemClass::BvhNode);
    }
    loadedTreelet_ = treelet;
    stats_.treeletSwitches++;
    telemEvent(now, TelemEventKind::TreeletSwitch, treelet);
}

void
BaselineRtUnit::preloadRayData(uint64_t now, uint32_t treelet)
{
    std::deque<QueuedRay> *q = policy_->queue(treelet);
    if (!cfg_.preloadEnabled || !q)
        return;
    uint32_t pre = std::min<uint32_t>(cfg_.warpSize, uint32_t(q->size()));
    for (uint32_t i = 0; i < pre; i++) {
        QueuedRay &p = (*q)[i];
        if (p.dataReadyAt != 0)
            continue;
        // The ray may move (queue churn, or into a slot) before the
        // phase commits, so the result cannot be written through a
        // pointer; record a fixup resolved by ray id in onMemCommit().
        MemTicket t = port_.read(now, rayDataAddr(p.rayId), kRayDataBytes,
                                 MemClass::RayData, true, nullptr);
        if (port_.resolved(t)) {
            p.dataReadyAt = port_.result(t).readyCycle;
        } else {
            p.dataReadyAt = kPendingReady;
            preloadFixups_.push_back({t, p.rayId, treelet});
        }
    }
}

void
BaselineRtUnit::maybePreloadTreelet(uint64_t now)
{
    if (!cfg_.preloadEnabled || preloadedTreelet_ != kInvalidTreelet)
        return;
    uint32_t t = policy_->preloadTreelet(loadedTreelet_);
    if (t == kInvalidTreelet)
        return;
    preloadedTreelet_ = t;
    port_.prefetchL1(now, bvh_.treeletBaseAddr(t), bvh_.treeletBytes(t),
                     MemClass::BvhNode);
}

void
BaselineRtUnit::prefetchOnEnter(uint64_t now)
{
    DispatchPolicy::PrefetchChoice p = policy_->onTreeletEnter(now, slots_);
    if (p.treelet == kInvalidTreelet)
        return;
    // The ready cycle is unused: the prefetcher fires and forgets, so a
    // deferred ticket needs no fixup.
    port_.prefetchL1(now, bvh_.treeletBaseAddr(p.treelet),
                     bvh_.treeletBytes(p.treelet), MemClass::BvhNode);
    telemEvent(now, TelemEventKind::PrefetchIssue, p.treelet, p.lines);
}

void
BaselineRtUnit::onMemCommit(uint64_t now)
{
    for (const PreloadFixup &f : preloadFixups_) {
        uint64_t ready = port_.result(f.ticket).readyCycle;
        bool found = false;

        // Still parked in the queue it was preloaded from?
        if (std::deque<QueuedRay> *q = policy_->queue(f.treelet)) {
            for (QueuedRay &p : *q) {
                if (p.rayId == f.rayId && p.dataReadyAt == kPendingReady) {
                    p.dataReadyAt = ready;
                    found = true;
                    break;
                }
            }
        }
        if (found)
            continue;

        // Installed into a slot within the same tick: the sentinel
        // propagated into the entry's ready cycle (install). The
        // pending-event pointer recorded there reads kPendingReady if
        // drained before this patch (and is skipped), so note the real
        // wake-up here.
        for (WarpSlot &slot : slots_) {
            for (size_t i = 0; i < slot.entries.size(); i++) {
                if (slot.stage[i] == RayStage::WaitData &&
                    slot.ready[i] == kPendingReady &&
                    slot.entries[i].rayId == f.rayId) {
                    slot.ready[i] = std::max(now, ready);
                    noteEvent(slot.ready[i]);
                    found = true;
                    break;
                }
            }
            if (found)
                break;
        }
        assert(found && "preload fixup target vanished");
        (void)found;
    }
    preloadFixups_.clear();
}

// ---- stepping ------------------------------------------------------------

uint32_t
BaselineRtUnit::slotDivergence(const WarpSlot &slot) const
{
    // Linear dedup over at most warpSize ids into pooled scratch; this
    // runs per boundary decision, so avoiding a hash set matters.
    divScratch_.clear();
    for (const RayEntry &e : slot.entries) {
        if (!e.valid)
            continue;
        uint32_t id = e.trav.atBoundary() ? e.trav.nextTreelet()
                                          : e.trav.currentTreelet();
        if (id != kInvalidTreelet &&
            std::find(divScratch_.begin(), divScratch_.end(), id) ==
                divScratch_.end()) {
            divScratch_.push_back(id);
        }
    }
    return uint32_t(divScratch_.size());
}

bool
BaselineRtUnit::resolve(uint64_t now, WarpSlot &slot, size_t i)
{
    RayEntry &e = slot.entries[i];
    if (e.trav.done()) {
        finishEntry(now, slot, i);
        return false;
    }
    // A draining initial warp parks every ray at its next stopping
    // point, mid-treelet rays keyed by their current treelet.
    if (!slot.draining) {
        if (!e.trav.atBoundary())
            return false; // issue-port limited; retried next cycle
        uint32_t divergence =
            slot.kind == SlotKind::Initial ? slotDivergence(slot) : 0;
        if (!parksRays_ ||
            !policy_->parkAtBoundary(slot, e.trav.nextTreelet(),
                                     divergence)) {
            e.trav.enterNextTreelet();
            stats_.boundaryCrossings++;
            prefetchOnEnter(now);
            return true;
        }
        slot.draining = slot.kind == SlotKind::Initial;
    }
    park(now, slot, i);
    return false;
}

void
BaselineRtUnit::resolveSlot(uint64_t now, WarpSlot &slot)
{
    for (size_t i = 0; i < slot.entries.size(); i++)
        if (slot.stage[i] == RayStage::NeedIssue)
            resolve(now, slot, i);

    // Warp repacking (section 4.5): refill an underpopulated
    // ray-stationary warp with parked rays from the queues.
    if (slot.kind == SlotKind::RayStationary &&
        policy_->repackDue(slot.active)) {
        policy_->takeStrays(cfg_.warpSize - slot.active, warpScratch_);
        if (!warpScratch_.empty()) {
            stats_.repackEvents++;
            stats_.repackedRays += warpScratch_.size();
            for (QueuedRay &q : warpScratch_)
                install(now, slot, std::move(q));
            warpScratch_.clear();
        }
    }
}

bool
BaselineRtUnit::stepSlot(uint64_t now, WarpSlot &slot)
{
    TraversalMode mode = modeOf(slot.kind);
    uint32_t before = slot.active;
    bool stepped = false;
    for (size_t i = 0; i < slot.entries.size(); i++) {
        // Free entries (Done) and not-due waits can't progress; skip
        // the call entirely.
        RayStage st = slot.stage[i];
        if (st == RayStage::Done ||
            (st != RayStage::NeedIssue && slot.ready[i] > now))
            continue;
        assert(slot.entries[i].valid);
        stepped |= stepRay(now, slot, i, mode, slot.draining);
        // Ray-stationary policies decide at once and keep going.
        while (!parksRays_ && needsPolicy(slot, i) && resolve(now, slot, i))
            stepRay(now, slot, i, mode);
    }
    // The boundary pass leaves no actionable entry behind, so it is a
    // no-op until a ray makes progress, entries are (re)installed, or
    // an underpopulated warp can still repack. Skipping it makes the
    // fixed-point verification pass cheap.
    if (parksRays_ &&
        (stepped || slot.policyPending ||
         (slot.kind == SlotKind::RayStationary &&
          policy_->repackDue(slot.active)))) {
        slot.policyPending = false;
        resolveSlot(now, slot);
    }
    if (slot.active == 0)
        freeSlot(slot);
    // One pass suffices for a ray-stationary warp: stepping a ray never
    // unblocks an already-visited one in the same cycle (issue ports
    // only fill up and ready cycles only lie ahead), so only a freed
    // (and refilled) slot has new work. Parking changes the queues the
    // other slots and the dispatcher see, so that pipeline runs to a
    // fixed point.
    if (!parksRays_)
        return slot.kind == SlotKind::Free;
    return stepped || slot.active != before || slot.kind == SlotKind::Free;
}

void
BaselineRtUnit::accountInterval(uint64_t now)
{
    if (now <= lastAccounted_)
        return;
    uint64_t dt = now - lastAccounted_;
    lastAccounted_ = now;
    for (const WarpSlot &slot : slots_) {
        if (slot.kind == SlotKind::Free)
            continue;
        stats_.activeLaneCycles += uint64_t(slot.active) * dt;
        stats_.slotLaneCycles += uint64_t(cfg_.warpSize) * dt;
        stats_.modeCycles[modeIndex(modeOf(slot.kind))] += dt;
    }
}

void
BaselineRtUnit::tick(uint64_t now)
{
    maybeTelemSample(now);
    accountInterval(now);
    // Everything due by now is handled below; drop its event records.
    consumeEventsUpTo(now);

    bool again = true;
    while (again) {
        again = false;
        for (WarpSlot &slot : slots_)
            if (slot.kind != SlotKind::Free)
                again |= stepSlot(now, slot);
        // Without parking, a slot only comes free when its warp
        // finishes and arriving rays fill a free slot at once
        // (accept), so only a pass that freed a slot can dispatch.
        // Parking changes the queues, so that pipeline tries each pass.
        if (again || parksRays_)
            dispatch(now);
        // Exiting is safe without a leftover-work scan: every stalled
        // entry already has a wake-up on the books. stepRay() notes the
        // issue-port free cycle when the port blocks it, install()
        // notes (or defers via sentinel) each parked ray's data-ready
        // cycle, and fillSlot() notes the current cycle for initial
        // warps, so rays the loop leaves behind always have a pending
        // event.
    }
}

// ---- state queries and the functional drain ------------------------------

bool
BaselineRtUnit::idle() const
{
    if (policy_->queuedRays() > 0)
        return false;
    for (const WarpSlot &slot : slots_)
        if (slot.kind != SlotKind::Free)
            return false;
    return true;
}

uint64_t
BaselineRtUnit::raysOwned() const
{
    uint64_t owned = policy_->queuedRays();
    for (const WarpSlot &slot : slots_)
        owned += slot.active;
    return owned;
}

uint64_t
BaselineRtUnit::raysHeld() const
{
    uint64_t held = policy_->raysHeld();
    for (const WarpSlot &slot : slots_)
        held += slot.active;
    return held;
}

void
BaselineRtUnit::drainFunctional(uint64_t now)
{
    // Same contract as saveState: the serial commit boundary, where
    // every preload ticket has been resolved by onMemCommit().
    if (!preloadFixups_.empty())
        throw std::logic_error(
            "drainFunctional: unresolved preload fixups (must be called "
            "at the serial commit boundary)");
    // Charge lane-occupancy up to the boundary, then finish every ray
    // functionally. Mode-cycle/isect attribution for drained work is
    // deliberately not modeled: the sampler ends its measured interval
    // before draining, so these counters are only read as deltas inside
    // intervals and the drain burst is invisible to the estimates.
    accountInterval(now);

    // Slot entries first: finish each in place and deliver via the
    // normal path so per-warp bookkeeping (warps_) stays consistent.
    for (WarpSlot &slot : slots_) {
        for (size_t i = 0; i < slot.entries.size(); i++) {
            if (!slot.entries[i].valid)
                continue;
            finishTraversal(slot.entries[i].trav);
            finishEntry(now, slot, i);
        }
        freeSlot(slot);
    }

    // Then the policy's rays, in its deterministic order. Fresh rays
    // sit at the root boundary until finishTraversal crosses it, as a
    // slot install would. Speculation is deliberately skipped:
    // finishTraversal from the root yields the identical frame, and the
    // drained burst's timing is never measured (DESIGN.md §8).
    policy_->takeQueued(warpScratch_);
    RayTraverser scratch;
    for (QueuedRay &q : warpScratch_) {
        RayTraverser *t = &q.trav;
        if (t->currentTreelet() == kInvalidTreelet) {
            // Fresh: run on reused buffers, as a slot entry would.
            scratch.reset(&bvh_, t->ray());
            t = &scratch;
        }
        finishTraversal(*t);
        policy_->onRayComplete(*t);
        deliver(q.warpToken, q.lane, t->hit());
        stats_.raysCompleted++;
    }
    warpScratch_.clear();
    loadedTreelet_ = kInvalidTreelet;
    preloadedTreelet_ = kInvalidTreelet;

    if (!idle() || !warps_.empty())
        throw std::logic_error(
            "drainFunctional: rays or warps left after drain");
    clearEventRecords();
}

std::string
BaselineRtUnit::debugStatus() const
{
    std::array<uint32_t, 5> stages{};
    for (const WarpSlot &slot : slots_)
        for (size_t i = 0; i < slot.entries.size(); i++)
            if (slot.entries[i].valid)
                stages[size_t(slot.stage[i])]++;
    std::ostringstream os;
    os << "rt policy=" << dispatchPolicyName(policy_->kind())
       << " queued=" << policy_->queuedRays() << " slots{";
    for (size_t i = 0; i < slots_.size(); i++) {
        const WarpSlot &s = slots_[i];
        const char *kind = s.kind == SlotKind::Free      ? "free"
                           : s.kind == SlotKind::Initial ? "initial"
                           : s.kind == SlotKind::Treelet ? "treelet"
                                                         : "ray";
        os << (i ? " " : "") << kind << ":" << s.active;
    }
    os << "} rays{waitData=" << stages[size_t(RayStage::WaitData)]
       << " needIssue=" << stages[size_t(RayStage::NeedIssue)]
       << " waitMem=" << stages[size_t(RayStage::WaitMem)]
       << " waitIsect=" << stages[size_t(RayStage::WaitIsect)] << "}";
    if (loadedTreelet_ != kInvalidTreelet)
        os << " loaded=" << loadedTreelet_;
    if (preloadedTreelet_ != kInvalidTreelet)
        os << " preloaded=" << preloadedTreelet_;
    policy_->debugStatus(os);
    return os.str();
}

// ---- snapshot hooks ------------------------------------------------------

void
RtStats::saveState(Serializer &s) const
{
    // Registry order, native widths: the chunk layout is defined by
    // telemetry/counter_registry.hh alone.
    s.beginChunk("RTST");
    forEachRtCounter(*this, [&](const CounterInfo &, const auto &v) {
        s.pod(v);
    });
    s.endChunk();
}

void
RtStats::loadState(Deserializer &d)
{
    d.beginChunk("RTST");
    forEachRtCounter(*this, [&](const CounterInfo &, auto &v) {
        v = d.pod<std::decay_t<decltype(v)>>();
    });
    d.endChunk();
}

void
BaselineRtUnit::saveRayEntry(Serializer &s, const WarpSlot &slot,
                             size_t i) const
{
    const RayEntry &e = slot.entries[i];
    if (e.valid && slot.ready[i] == kPendingReady)
        throw SnapshotError(
            "snapshot: ray entry with unresolved deferred ready "
            "(capture outside the serial commit boundary)");
    s.b(e.valid);
    s.u8(e.lane);
    s.u64(e.warpToken);
    s.u32(e.ctaToken);
    s.u32(e.rayId);
    e.trav.saveState(s);
    s.u8(uint8_t(slot.stage[i]));
    s.u64(slot.ready[i]);
    s.b(e.fetchIsLeaf);
}

void
BaselineRtUnit::loadRayEntry(Deserializer &d, WarpSlot &slot, size_t i)
{
    RayEntry &e = slot.entries[i];
    e.valid = d.b();
    e.lane = d.u8();
    e.warpToken = d.u64();
    e.ctaToken = d.u32();
    e.rayId = d.u32();
    e.trav.loadState(d, &bvh_);
    uint8_t stage = d.u8();
    if (stage > uint8_t(RayStage::Done))
        throw SnapshotError("snapshot: ray stage out of range");
    slot.stage[i] = RayStage(stage);
    slot.ready[i] = d.u64();
    e.fetchIsLeaf = d.b();
}

void
BaselineRtUnit::saveState(Serializer &s) const
{
    if (!preloadFixups_.empty())
        throw SnapshotError(
            "snapshot: unresolved preload fixups (capture outside the "
            "serial commit boundary)");
    s.beginChunk("RTUN");
    stats_.saveState(s);
    s.u64(lastAccounted_);
    memIssue_.saveState(s);
    isect_.saveState(s);
    // Fold any resolved deferred readies into the heap, then persist
    // it sorted — a sorted array is a valid min-heap and the pop order
    // of a heap of plain cycles depends only on the multiset anyway.
    (void)cachedNextEvent();
    std::vector<uint64_t> events = eventHeap_;
    events.insert(events.end(), issueWakeCount_, issueWakeAt_);
    std::sort(events.begin(), events.end());
    s.vecPod(events);

    s.u64(slots_.size());
    for (const WarpSlot &slot : slots_) {
        s.u8(uint8_t(slot.kind));
        s.u32(slot.treelet);
        s.b(slot.draining);
        s.b(slot.policyPending);
        for (size_t i = 0; i < slot.entries.size(); i++)
            saveRayEntry(s, slot, i);
        s.u32(slot.active);
    }
    // std::map iterates token-sorted: identical states serialize to
    // identical bytes regardless of insertion history.
    s.u64(warps_.size());
    for (const auto &[token, bk] : warps_) {
        s.u64(token);
        s.u32(bk.outstanding);
        s.u64(bk.hits.size());
        for (const LaneHit &h : bk.hits) {
            s.u8(h.lane);
            s.pod(h.hit);
        }
    }
    s.u32(loadedTreelet_);
    s.u32(preloadedTreelet_);
    s.u64(lastOverflowEventAt_);
    s.endChunk();
    policy_->saveState(s);
}

void
BaselineRtUnit::loadState(Deserializer &d)
{
    d.beginChunk("RTUN");
    stats_.loadState(d);
    lastAccounted_ = d.u64();
    memIssue_.loadState(d);
    isect_.loadState(d);
    pendingEventReadies_.clear();
    eventHeap_ = d.vecPod<uint64_t>(); // sorted == valid min-heap
    issueWakeCount_ = 0;

    if (d.u64() != slots_.size())
        throw SnapshotError("snapshot: warp slot count mismatch");
    for (WarpSlot &slot : slots_) {
        uint8_t kind = d.u8();
        if (kind > uint8_t(SlotKind::RayStationary))
            throw SnapshotError("snapshot: warp slot kind out of range");
        slot.kind = SlotKind(kind);
        slot.treelet = d.u32();
        slot.draining = d.b();
        slot.policyPending = d.b();
        for (size_t i = 0; i < slot.entries.size(); i++)
            loadRayEntry(d, slot, i);
        slot.active = d.u32();
    }
    warps_.clear();
    uint64_t nw = d.u64();
    for (uint64_t i = 0; i < nw; i++) {
        uint64_t token = d.u64();
        WarpBk bk;
        bk.outstanding = d.u32();
        uint64_t nh = d.u64();
        for (uint64_t j = 0; j < nh; j++) {
            LaneHit h;
            h.lane = d.u8();
            h.hit = d.pod<HitRecord>();
            bk.hits.push_back(h);
        }
        warps_.emplace(token, std::move(bk));
    }
    loadedTreelet_ = d.u32();
    preloadedTreelet_ = d.u32();
    lastOverflowEventAt_ = d.u64();
    preloadFixups_.clear();
    d.endChunk();
    policy_->loadState(d);
}

} // namespace trt
