#include "gpu/dispatch_policy.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "geom/hash.hh"
#include "telemetry/telemetry.hh"

namespace trt
{

namespace
{

/** Spread the low 21 bits of @p x so consecutive bits land 3 apart
 *  (Morton interleave component). */
uint64_t
part1by2(uint64_t x)
{
    x &= 0x1fffffull;
    x = (x | x << 32) & 0x001f00000000ffffull;
    x = (x | x << 16) & 0x001f0000ff0000ffull;
    x = (x | x << 8) & 0x100f00f00f00f00full;
    x = (x | x << 4) & 0x10c30c30c30c30c3ull;
    x = (x | x << 2) & 0x1249249249249249ull;
    return x;
}

/** Quantize @p v over [lo, hi] into [0, 2^bits). Degenerate axes (and
 *  out-of-bounds origins) clamp — every ray gets *some* bin. */
uint32_t
quantizeAxis(float v, float lo, float hi, uint32_t bits)
{
    if (!(hi > lo))
        return 0;
    float f = (v - lo) / (hi - lo);
    if (!(f > 0.0f))
        return 0;
    uint32_t levels = 1u << bits;
    if (f >= 1.0f)
        return levels - 1;
    uint32_t q = uint32_t(f * float(levels));
    return std::min(q, levels - 1);
}

} // anonymous namespace

// ---- SharedPredict ----------------------------------------------------

SharedPredict::SharedPredict(const GpuConfig &cfg)
{
    uint32_t bits = std::min<uint32_t>(std::max(cfg.predictTableBits, 1u),
                                       24u);
    table.resize(size_t(1) << bits);
    mask = table.size() - 1;
    pending.resize(cfg.numSms);
}

void
SharedPredict::flush()
{
    // SM order, then enqueue order within an SM: the exact sequence a
    // serial SM loop would apply, so the table contents after every
    // cycle are thread-count independent. Applied unconditionally —
    // the queue-time dedup against the frozen table already filtered
    // no-op updates.
    for (std::vector<Train> &q : pending) {
        for (const Train &t : q) {
            Entry &e = table[size_t(t.hash & mask)];
            e.tag = t.hash;
            e.firstTri = t.firstTri;
            e.count = t.count;
        }
        q.clear();
    }
}

void
SharedPredict::saveState(Serializer &s) const
{
    for (const auto &q : pending)
        if (!q.empty())
            throw SnapshotError(
                "snapshot: unflushed shared-predictor trainings");
    s.beginChunk("PSHR");
    s.u64(table.size());
    for (const Entry &e : table) {
        s.u64(e.tag);
        s.u32(e.firstTri);
        s.u32(e.count);
    }
    s.endChunk();
}

void
SharedPredict::loadState(Deserializer &d)
{
    d.beginChunk("PSHR");
    if (d.u64() != table.size())
        throw SnapshotError(
            "snapshot: shared prediction-table size mismatch (config skew)");
    for (Entry &e : table) {
        e.tag = d.u64();
        e.firstTri = d.u32();
        e.count = d.u32();
    }
    for (auto &q : pending)
        q.clear();
    d.endChunk();
}

// ---- shared helpers ---------------------------------------------------

void
DispatchPolicy::park(QueuedRay &&ray, uint32_t treelet)
{
    (void)ray;
    (void)treelet;
    throw std::logic_error(std::string(dispatchPolicyName(kind())) +
                           " policy does not park rays");
}

namespace
{

void
saveQueuedRay(Serializer &s, const QueuedRay &r)
{
    if (r.dataReadyAt == kPendingReady)
        throw SnapshotError(
            "snapshot: queued ray with unresolved preload ready");
    r.trav.saveState(s);
    s.u64(r.warpToken);
    s.u32(r.ctaToken);
    s.u32(r.rayId);
    s.u8(r.lane);
    s.u64(r.dataReadyAt);
}

QueuedRay
loadQueuedRay(Deserializer &d, const Bvh &bvh)
{
    QueuedRay r;
    r.trav.loadState(d, &bvh);
    r.warpToken = d.u64();
    r.ctaToken = d.u32();
    r.rayId = d.u32();
    r.lane = d.u8();
    r.dataReadyAt = d.u64();
    return r;
}

/** Groups of rays (fresh warps), in order. */
void
saveGroups(Serializer &s, const std::deque<std::vector<QueuedRay>> &groups)
{
    s.u64(groups.size());
    for (const auto &g : groups) {
        s.u64(g.size());
        for (const QueuedRay &r : g)
            saveQueuedRay(s, r);
    }
}

/** Restores saveGroups(); returns the ray count. */
uint64_t
loadGroups(Deserializer &d, const Bvh &bvh,
           std::deque<std::vector<QueuedRay>> &groups)
{
    groups.clear();
    uint64_t count = 0;
    uint64_t n = d.u64();
    for (uint64_t i = 0; i < n; i++) {
        std::vector<QueuedRay> g;
        uint64_t m = d.count(25); // >= 25 bytes per ray
        g.reserve(size_t(m));
        for (uint64_t j = 0; j < m; j++)
            g.push_back(loadQueuedRay(d, bvh));
        count += g.size();
        groups.push_back(std::move(g));
    }
    return count;
}

/** Keyed queues (reorder bins, treelet queues), in key order. */
template <typename Key>
void
saveQueues(Serializer &s,
           const std::map<Key, std::deque<QueuedRay>> &queues)
{
    s.u64(queues.size());
    for (const auto &[key, q] : queues) {
        s.pod(key);
        s.u64(q.size());
        for (const QueuedRay &r : q)
            saveQueuedRay(s, r);
    }
}

/** Restores saveQueues(); returns the ray count. */
template <typename Key>
uint64_t
loadQueues(Deserializer &d, const Bvh &bvh,
           std::map<Key, std::deque<QueuedRay>> &queues)
{
    queues.clear();
    uint64_t count = 0;
    uint64_t n = d.u64();
    for (uint64_t i = 0; i < n; i++) {
        Key key = d.pod<Key>();
        std::deque<QueuedRay> q;
        uint64_t m = d.u64();
        for (uint64_t j = 0; j < m; j++)
            q.push_back(loadQueuedRay(d, bvh));
        count += q.size();
        queues.emplace(key, std::move(q));
    }
    return count;
}

/** Move up to @p max rays into @p out, draining each queue front
 *  first in key order; emptied queues are erased. @p on_pop sees each
 *  queue's size after a pop. */
template <typename Key, typename OnPop>
void
takeInKeyOrder(std::map<Key, std::deque<QueuedRay>> &queues, size_t max,
               std::vector<QueuedRay> &out, OnPop on_pop)
{
    auto it = queues.begin();
    while (it != queues.end() && out.size() < max) {
        auto &q = it->second;
        while (!q.empty() && out.size() < max) {
            out.push_back(std::move(q.front()));
            q.pop_front();
            on_pop(q.size());
        }
        if (q.empty())
            it = queues.erase(it);
        else
            ++it;
    }
}

} // anonymous namespace

// ---- FifoPolicy -------------------------------------------------------

void
FifoPolicy::enqueue(std::vector<QueuedRay> &&group)
{
    count_ += group.size();
    groups_.push_back(std::move(group));
}

WarpPlan
FifoPolicy::nextWarp(uint32_t loaded_treelet, std::vector<QueuedRay> &out)
{
    (void)loaded_treelet;
    out.clear();
    if (groups_.empty())
        return {};
    // Warps stay intact: one incoming group becomes one RT warp, even
    // when undersized — exactly the pre-policy baseline behavior.
    out = std::move(groups_.front());
    groups_.pop_front();
    count_ -= out.size();
    return {SlotKind::RayStationary};
}

void
FifoPolicy::takeQueued(std::vector<QueuedRay> &out)
{
    out.clear();
    for (auto &g : groups_)
        for (auto &r : g)
            out.push_back(std::move(r));
    groups_.clear();
    count_ = 0;
}

void
FifoPolicy::saveState(Serializer &s) const
{
    s.beginChunk("DPOL");
    saveGroups(s, groups_);
    s.endChunk();
}

void
FifoPolicy::loadState(Deserializer &d)
{
    d.beginChunk("DPOL");
    count_ = loadGroups(d, bvh_, groups_);
    d.endChunk();
}

// ---- PrefetchPolicy ---------------------------------------------------

uint32_t
PrefetchPolicy::popularTreelet(const std::vector<WarpSlot> &slots) const
{
    // At most warpBufferSize x warpSize rays contribute, with far fewer
    // distinct treelets; a pooled vector with linear lookup beats a
    // freshly allocated hash map at this size. The max-count/min-id
    // selection is order-independent.
    histoScratch_.clear();
    for (const WarpSlot &slot : slots) {
        if (slot.kind == SlotKind::Free)
            continue;
        for (size_t i = 0; i < slot.entries.size(); i++) {
            if (slot.stage[i] == RayStage::Done)
                continue;
            uint32_t t = slot.entries[i].trav.currentTreelet();
            if (t == kInvalidTreelet)
                continue;
            auto it = std::find_if(histoScratch_.begin(),
                                   histoScratch_.end(),
                                   [t](const auto &h)
                                   { return h.first == t; });
            if (it == histoScratch_.end())
                histoScratch_.emplace_back(t, 1u);
            else
                it->second++;
        }
    }
    uint32_t best = kInvalidTreelet;
    uint32_t best_count = std::max(1u, cfg_.prefetchMinRays) - 1;
    for (const auto &[t, n] : histoScratch_) {
        if (n > best_count || (n == best_count && t < best)) {
            best = t;
            best_count = n;
        }
    }
    return best;
}

DispatchPolicy::PrefetchChoice
PrefetchPolicy::onTreeletEnter(uint64_t now,
                               const std::vector<WarpSlot> &slots)
{
    if (now < nextAllowed_)
        return {};
    uint32_t popular = popularTreelet(slots);
    if (popular == kInvalidTreelet || popular == lastPrefetched_)
        return {};
    nextAllowed_ = now + cfg_.prefetchCooldown;
    lastPrefetched_ = popular;
    stats_.prefetchIssues++;

    uint64_t base = bvh_.treeletBaseAddr(popular);
    uint32_t bytes = bvh_.treeletBytes(popular);
    uint64_t line = cfg_.mem.lineBytes;
    uint64_t first = base & ~(line - 1);
    uint64_t last = (base + bytes - 1) & ~(line - 1);
    uint64_t lines = 0;
    for (uint64_t a = first; a <= last; a += line) {
        if (outstanding_.insert(a))
            lines++;
    }
    stats_.prefetchLines += lines;
    return {popular, lines};
}

void
PrefetchPolicy::onDemandLine(uint64_t line_addr)
{
    if (outstanding_.erase(line_addr))
        stats_.prefetchUsedLines++;
}

void
PrefetchPolicy::saveState(Serializer &s) const
{
    FifoPolicy::saveState(s);
    s.beginChunk("PREF");
    s.u32(lastPrefetched_);
    s.u64(nextAllowed_);
    s.vecPod(outstanding_.sortedKeys());
    s.endChunk();
}

void
PrefetchPolicy::loadState(Deserializer &d)
{
    FifoPolicy::loadState(d);
    d.beginChunk("PREF");
    lastPrefetched_ = d.u32();
    nextAllowed_ = d.u64();
    outstanding_.clear();
    for (uint64_t key : d.vecPod<uint64_t>())
        outstanding_.insert(key);
    d.endChunk();
}

// ---- VtqPolicy --------------------------------------------------------

uint32_t
VtqPolicy::allocRayId()
{
    if (!freeRayIds_.empty()) {
        uint32_t id = freeRayIds_.back();
        freeRayIds_.pop_back();
        return id;
    }
    return nextRayId_++;
}

void
VtqPolicy::releaseRay(uint32_t ray_id)
{
    freeRayIds_.push_back(ray_id);
    inFlight_--;
}

void
VtqPolicy::enqueue(std::vector<QueuedRay> &&group)
{
    inFlight_ += uint32_t(group.size());
    stats_.maxConcurrentRays =
        std::max<uint64_t>(stats_.maxConcurrentRays, inFlight_);
    freshRays_ += group.size();
    fresh_.push_back(std::move(group));
}

WarpPlan
VtqPolicy::nextWarp(uint32_t loaded_treelet, std::vector<QueuedRay> &out)
{
    out.clear();
    // Fresh warps first: their initial ray-stationary phase (section
    // 3.2 step 1) fills the queues the later phases drain.
    if (!fresh_.empty()) {
        out = std::move(fresh_.front());
        fresh_.pop_front();
        freshRays_ -= out.size();
        return {SlotKind::Initial};
    }
    if (queued_ == 0)
        return {};

    // Empty the loaded treelet's queue before switching (section 3.2):
    // its data is already in the L1, so a switch would waste the fetch.
    uint32_t pick = kInvalidTreelet;
    if (!cfg_.skipTreeletPhase && queues_.count(loaded_treelet))
        pick = loaded_treelet;
    if (pick == kInvalidTreelet) {
        // Largest queue, first in table order on ties; treelet-
        // stationary if it meets the threshold (section 4.4), else
        // group the strays.
        size_t best_size = 0;
        for (const auto &[t, q] : queues_) {
            if (q.size() > best_size) {
                pick = t;
                best_size = q.size();
            }
        }
        bool treelet_eligible =
            !cfg_.skipTreeletPhase &&
            (best_size >= cfg_.queueThreshold || !cfg_.groupUnderpopulated);
        if (!treelet_eligible) {
            if (!cfg_.groupUnderpopulated && !cfg_.skipTreeletPhase)
                return {};
            takeStrays(cfg_.warpSize, out);
            if (out.empty())
                return {};
            return {SlotKind::RayStationary};
        }
    }

    auto qit = queues_.find(pick);
    std::deque<QueuedRay> &q = qit->second;
    uint32_t n = std::min<uint32_t>(cfg_.warpSize, uint32_t(q.size()));
    for (uint32_t i = 0; i < n; i++) {
        out.push_back(std::move(q.front()));
        q.pop_front();
        noteQueueShrank(q.size());
        queued_--;
    }
    if (q.empty())
        queues_.erase(qit);
    return {SlotKind::Treelet, pick};
}

void
VtqPolicy::takeStrays(uint32_t max, std::vector<QueuedRay> &out)
{
    // Section 4.4: select queues starting from the first treelet count
    // table entry until enough rays fill the warp.
    out.clear();
    takeInKeyOrder(queues_, max, out, [this](size_t sz) {
        noteQueueShrank(sz);
        queued_--;
    });
}

bool
VtqPolicy::parkAtBoundary(const WarpSlot &slot, uint32_t next_treelet,
                          uint32_t divergence) const
{
    switch (slot.kind) {
      case SlotKind::Initial:
        // Section 3.2 step 1: terminate the fresh warp once its rays
        // spread over more treelets than the threshold
        // (skipTreeletPhase parks unconditionally — the section 6.4
        // threshold-of-zero experiment).
        return cfg_.skipTreeletPhase ||
               divergence > cfg_.initialDivergeThreshold;
      case SlotKind::Treelet:
        // Rays leaving the warp's treelet re-queue by their next one.
        return next_treelet != slot.treelet;
      default:
        return false;
    }
}

void
VtqPolicy::park(QueuedRay &&ray, uint32_t treelet)
{
    auto &q = queues_[treelet];
    q.push_back(std::move(ray));
    noteQueueGrew(q.size());
    queued_++;
    stats_.raysEnqueued++;
    updateTableHighWater();
}

bool
VtqPolicy::repackDue(uint32_t active) const
{
    // Section 4.5: refill once fewer than repackThreshold lanes remain.
    return cfg_.repackThreshold > 0 && active > 0 &&
           active < cfg_.repackThreshold && queued_ > 0;
}

std::deque<QueuedRay> *
VtqPolicy::queue(uint32_t treelet)
{
    auto it = queues_.find(treelet);
    return it == queues_.end() ? nullptr : &it->second;
}

uint32_t
VtqPolicy::preloadTreelet(uint32_t loaded_treelet) const
{
    // Trigger when at most one more warp remains in the current queue.
    // (The paper estimates remaining cycles as remaining-warps x
    // intersection latency x average treelet depth and preloads when
    // that matches the memory latency; with one warp slot this reduces
    // to "preload while the last warp drains".)
    auto cur = queues_.find(loaded_treelet);
    if (cur != queues_.end() && cur->second.size() > cfg_.warpSize)
        return kInvalidTreelet;

    uint32_t min_size = cfg_.groupUnderpopulated ? cfg_.queueThreshold : 1;
    uint32_t best = kInvalidTreelet;
    size_t best_size = 0;
    for (const auto &[t, q] : queues_) {
        if (t == loaded_treelet || q.size() < min_size)
            continue;
        if (q.size() > best_size) {
            best = t;
            best_size = q.size();
        }
    }
    return best;
}

void
VtqPolicy::noteQueueGrew(size_t sz)
{
    // Only non-empty queues exist in the table, so a threshold of 0
    // counts exactly the queues a threshold of 1 does.
    if (sz == std::max<size_t>(1, cfg_.queueThreshold))
        overThresholdNow_++;
    if ((sz - 1) % cfg_.warpSize == 0)
        tableEntriesNow_++;
    if (sz <= heldDepthCap())
        heldCapped_++;
}

void
VtqPolicy::noteQueueShrank(size_t sz)
{
    if (sz + 1 == std::max<size_t>(1, cfg_.queueThreshold))
        overThresholdNow_--;
    if (sz % cfg_.warpSize == 0)
        tableEntriesNow_--;
    if (sz < heldDepthCap())
        heldCapped_--;
}

void
VtqPolicy::updateTableHighWater()
{
    stats_.countTableHighWater = std::max<uint32_t>(
        stats_.countTableHighWater, uint32_t(queues_.size()));
    stats_.countTableOverThresholdHW =
        std::max(stats_.countTableOverThresholdHW, overThresholdNow_);
    stats_.queueTableEntriesHW =
        std::max(stats_.queueTableEntriesHW, tableEntriesNow_);
}

uint64_t
VtqPolicy::raysHeld() const
{
    // Population alone recovers quickly after a drain, but what the
    // drain really destroys is the queue *contents* — in steady state
    // rays are spread over many queues at meaningful depths, and
    // serving rounds against freshly refilled shallow queues looks
    // nothing like it. Count the fresh rays plus each queue's depth
    // capped at twice the dispatch threshold, so depth has to rebuild
    // queue by queue and one giant root queue (the post-drain shape)
    // cannot stand in for the steady-state spread. The previous
    // population-x-spread product over-weighted exactly that shape; see
    // the re-measured error table in DESIGN.md §8. The capped sum is
    // kept up to date at every queue size change (noteQueueGrew/
    // noteQueueShrank): the warm-up test reads it every cycle.
    return freshRays_ + heldCapped_;
}

void
VtqPolicy::takeQueued(std::vector<QueuedRay> &out)
{
    // Pending fresh warps (still at the root boundary), then every
    // treelet queue in table order.
    out.clear();
    for (auto &g : fresh_)
        for (QueuedRay &r : g)
            out.push_back(std::move(r));
    for (auto &[t, q] : queues_)
        for (QueuedRay &r : q)
            out.push_back(std::move(r));
    inFlight_ -= uint32_t(out.size());
    if (inFlight_ != 0)
        throw std::logic_error("VtqPolicy::takeQueued: rays left in slots");
    fresh_.clear();
    freshRays_ = 0;
    queues_.clear();
    queued_ = 0;
    overThresholdNow_ = 0;
    tableEntriesNow_ = 0;
    heldCapped_ = 0;
    // Every ray id is free again; restart the id space so post-drain
    // allocation (and the ray-data addresses derived from it) is
    // independent of pre-drain history.
    freeRayIds_.clear();
    nextRayId_ = 0;
}

void
VtqPolicy::telemSampleFill(TelemSample &s) const
{
    s.queuedRays = uint32_t(std::min<uint64_t>(queued_, UINT32_MAX));
    s.queueCount = uint32_t(queues_.size());
    // Keep the four deepest depths, descending (insertion sort into the
    // fixed array; queues_ is small and samples are periodic).
    for (const auto &[treelet, q] : queues_) {
        (void)treelet;
        uint32_t depth = uint32_t(q.size());
        for (size_t i = 0; i < s.queueDepth.size(); i++) {
            if (depth > s.queueDepth[i]) {
                for (size_t j = s.queueDepth.size() - 1; j > i; j--)
                    s.queueDepth[j] = s.queueDepth[j - 1];
                s.queueDepth[i] = depth;
                break;
            }
        }
    }
}

void
VtqPolicy::debugStatus(std::ostream &os) const
{
    os << " inFlight=" << inFlight_ << " treeletQueued=" << queued_
       << " queues=" << queues_.size() << " freshWarps=" << fresh_.size();
}

void
VtqPolicy::saveState(Serializer &s) const
{
    s.beginChunk("DPOL");
    saveGroups(s, fresh_);
    // std::map iterates key-sorted: deterministic on its own.
    saveQueues(s, queues_);
    s.u32(inFlight_);
    s.vecPod(freeRayIds_);
    s.u32(nextRayId_);
    s.u32(overThresholdNow_);
    s.u32(tableEntriesNow_);
    s.endChunk();
}

void
VtqPolicy::loadState(Deserializer &d)
{
    d.beginChunk("DPOL");
    freshRays_ = loadGroups(d, bvh_, fresh_);
    queued_ = loadQueues(d, bvh_, queues_);
    inFlight_ = d.u32();
    freeRayIds_ = d.vecPod<uint32_t>();
    nextRayId_ = d.u32();
    overThresholdNow_ = d.u32();
    tableEntriesNow_ = d.u32();
    d.endChunk();
    heldCapped_ = 0;
    for (const auto &[t, q] : queues_)
        heldCapped_ += std::min<uint64_t>(q.size(), heldDepthCap());
}

// ---- ReorderPolicy ----------------------------------------------------

uint64_t
ReorderPolicy::binKey(const Ray &ray) const
{
    // Morton code of the origin quantized over the scene bounds, with
    // the direction octant in the low bits: rays sharing a bin start
    // close together *and* head the same way, so the warps formed from
    // one bin traverse largely the same treelets.
    uint32_t bits = std::min<uint32_t>(std::max(cfg_.reorderBinBits, 1u),
                                       16u);
    const Aabb &b = bvh_.rootBounds();
    uint64_t mx = part1by2(
        quantizeAxis(ray.orig.x, b.lo.x, b.hi.x, bits));
    uint64_t my = part1by2(
        quantizeAxis(ray.orig.y, b.lo.y, b.hi.y, bits));
    uint64_t mz = part1by2(
        quantizeAxis(ray.orig.z, b.lo.z, b.hi.z, bits));
    uint64_t morton = mx | my << 1 | mz << 2;
    uint64_t octant = uint64_t(ray.dir.x < 0.0f) |
                      uint64_t(ray.dir.y < 0.0f) << 1 |
                      uint64_t(ray.dir.z < 0.0f) << 2;
    return morton << 3 | octant;
}

void
ReorderPolicy::enqueue(std::vector<QueuedRay> &&group)
{
    for (QueuedRay &r : group) {
        bins_[binKey(r.trav.ray())].push_back(std::move(r));
        count_++;
    }
    group.clear();
}

WarpPlan
ReorderPolicy::nextWarp(uint32_t loaded_treelet, std::vector<QueuedRay> &out)
{
    (void)loaded_treelet;
    out.clear();
    // Drain bins in ascending key order, topping an undersized bin up
    // from its key-order successors: warps come out full *and* sorted,
    // which is the whole point of reordering.
    takeInKeyOrder(bins_, cfg_.warpSize, out, [this](size_t) { count_--; });
    if (out.empty())
        return {};
    stats_.reorderBatches++;
    return {SlotKind::RayStationary};
}

void
ReorderPolicy::takeQueued(std::vector<QueuedRay> &out)
{
    out.clear();
    for (auto &[key, q] : bins_)
        for (QueuedRay &r : q)
            out.push_back(std::move(r));
    bins_.clear();
    count_ = 0;
}

void
ReorderPolicy::saveState(Serializer &s) const
{
    s.beginChunk("DPOL");
    saveQueues(s, bins_);
    s.endChunk();
}

void
ReorderPolicy::loadState(Deserializer &d)
{
    d.beginChunk("DPOL");
    count_ = loadQueues(d, bvh_, bins_);
    d.endChunk();
}

// ---- PredictPolicy ----------------------------------------------------

PredictPolicy::PredictPolicy(const GpuConfig &cfg, const Bvh &bvh,
                             RtStats &stats)
    : FifoPolicy(cfg, bvh, stats)
{
    uint32_t bits = std::min<uint32_t>(std::max(cfg.predictTableBits, 1u),
                                       24u);
    table_.resize(size_t(1) << bits);
    mask_ = table_.size() - 1;
}

uint64_t
PredictPolicy::rayHash(const Ray &ray) const
{
    // Quantized origin (6 bits/axis over the scene bounds) plus
    // quantized direction (6 bits/axis of the [-1,1] components): rays
    // close in space and heading hash together, which is what makes
    // the table's last-resolver block a useful guess.
    const Aabb &b = bvh_.rootBounds();
    Fnv1a h;
    h.pod(quantizeAxis(ray.orig.x, b.lo.x, b.hi.x, 6));
    h.pod(quantizeAxis(ray.orig.y, b.lo.y, b.hi.y, 6));
    h.pod(quantizeAxis(ray.orig.z, b.lo.z, b.hi.z, 6));
    h.pod(quantizeAxis(ray.dir.x, -1.0f, 1.0f, 6));
    h.pod(quantizeAxis(ray.dir.y, -1.0f, 1.0f, 6));
    h.pod(quantizeAxis(ray.dir.z, -1.0f, 1.0f, 6));
    return h.value();
}

void
PredictPolicy::setShared(SharedPredict *sp, uint32_t sm_id)
{
    shared_ = sp;
    smId_ = sm_id;
    if (shared_) {
        // The private table is dead weight in shared mode; release it
        // so snapshots don't carry numSms idle copies.
        table_.clear();
        table_.shrink_to_fit();
        mask_ = 0;
    }
}

DispatchPolicy::Speculation
PredictPolicy::speculate(const Ray &ray)
{
    stats_.predictLookups++;
    uint64_t h = rayHash(ray);
    if (shared_) {
        // Reads only: the shared table is frozen for the whole tick
        // phase (trainings queue up and land at the cycle commit).
        const SharedPredict::Entry &e =
            shared_->table[size_t(h & shared_->mask)];
        if (e.count == 0 || e.tag != h)
            return {};
        return {e.firstTri, e.count, true};
    }
    const Entry &e = table_[size_t(h & mask_)];
    if (e.count == 0 || e.tag != h)
        return {}; // cold or conflicting slot: no prediction
    return {e.firstTri, e.count, true};
}

void
PredictPolicy::onRayComplete(const RayTraverser &trav)
{
    // Score the prediction this traversal ran under (if any).
    switch (trav.specOutcome()) {
      case RayTraverser::SpecOutcome::Correct:
        stats_.predictHits++;
        break;
      case RayTraverser::SpecOutcome::Wrong:
        stats_.predictMisses++;
        break;
      case RayTraverser::SpecOutcome::None:
        break;
    }

    // Train: remember the leaf block that resolved this ray. Misses
    // don't evict — a ray that escaped the scene says nothing about
    // where the next similar ray will hit.
    if (!trav.hit().hit() || trav.hitBlockCount() == 0)
        return;
    uint64_t h = rayHash(trav.ray());
    if (shared_) {
        // Dedup against the frozen table, then defer the write to this
        // SM's pending queue; SharedPredict::flush() applies it at the
        // serial cycle commit. predictInserts counts queued updates —
        // deterministic, since the table can't change under us here.
        const SharedPredict::Entry &e =
            shared_->table[size_t(h & shared_->mask)];
        if (e.tag != h || e.firstTri != trav.hitBlockFirst() ||
            e.count != trav.hitBlockCount()) {
            shared_->pending[smId_].push_back(
                {h, trav.hitBlockFirst(), trav.hitBlockCount()});
            stats_.predictInserts++;
        }
        return;
    }
    Entry &e = table_[size_t(h & mask_)];
    if (e.tag != h || e.firstTri != trav.hitBlockFirst() ||
        e.count != trav.hitBlockCount()) {
        e.tag = h;
        e.firstTri = trav.hitBlockFirst();
        e.count = trav.hitBlockCount();
        stats_.predictInserts++;
    }
}

void
PredictPolicy::saveState(Serializer &s) const
{
    FifoPolicy::saveState(s);
    s.beginChunk("PRED");
    // Shared mode: table_ is empty by construction (setShared cleared
    // it), so this writes a zero-length table and the real state lives
    // in the Gpu's "PSHR" chunk. predictShared is fingerprinted, so a
    // snapshot can never be resumed under the other mode.
    s.u64(table_.size());
    for (const Entry &e : table_) {
        s.u64(e.tag);
        s.u32(e.firstTri);
        s.u32(e.count);
    }
    s.endChunk();
}

void
PredictPolicy::loadState(Deserializer &d)
{
    FifoPolicy::loadState(d);
    d.beginChunk("PRED");
    if (d.u64() != table_.size())
        throw SnapshotError(
            "snapshot: prediction-table size mismatch (config skew)");
    for (Entry &e : table_) {
        e.tag = d.u64();
        e.firstTri = d.u32();
        e.count = d.u32();
    }
    d.endChunk();
}

// ---- factory ----------------------------------------------------------

std::unique_ptr<DispatchPolicy>
makeDispatchPolicy(const GpuConfig &cfg, const Bvh &bvh, RtStats &stats)
{
    switch (cfg.policy) {
      case DispatchPolicyKind::Prefetch:
        return std::make_unique<PrefetchPolicy>(cfg, bvh, stats);
      case DispatchPolicyKind::Vtq:
        return std::make_unique<VtqPolicy>(cfg, bvh, stats);
      case DispatchPolicyKind::Reorder:
        return std::make_unique<ReorderPolicy>(cfg, bvh, stats);
      case DispatchPolicyKind::Predict:
        return std::make_unique<PredictPolicy>(cfg, bvh, stats);
      case DispatchPolicyKind::Fifo:
      default:
        return std::make_unique<FifoPolicy>(cfg, bvh, stats);
    }
}

} // namespace trt
