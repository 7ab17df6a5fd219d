/**
 * @file
 * BVH construction: binned-SAH binary build, collapse to a wide BVH
 * (greedy 4-wide, or cost-based DP 8-wide — Ylitie/Karras/Laine
 * HPG'17 — when BvhConfig::width == 8), treelet partitioning and
 * byte-level memory layout.
 *
 * The build is task-parallel (BvhConfig::buildThreads / the
 * TRT_BUILD_THREADS knob) and **bit-identical** to the serial build at
 * any thread count:
 *  - Per-thread bin accumulation splits ranges into fixed chunks and
 *    merges partials in chunk order; AABB growth is min/max and counts
 *    are integer sums, both exactly associative.
 *  - The top of the binary tree is expanded on one thread (with
 *    parallel binning); subtrees below a cutoff become tasks that
 *    recurse serially over disjoint primitive ranges, so the primitive
 *    permutation matches the serial build exactly.
 *  - The 4-wide collapse runs as parallel waves over a scratch tree and
 *    then assigns the exact node numbering the serial recursion would
 *    (a parent's children are allocated consecutively, then each child
 *    subtree in slot order), computed from per-subtree node counts.
 *  - Treelet partitioning processes the FIFO frontier of treelet roots
 *    in parallel waves; wave order equals the serial queue order, so
 *    treelet ids and layout match.
 */

#include "bvh/bvh.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <queue>

#include "util/env.hh"
#include <thread>

#include "bvh/parallel.hh"
#include "geom/hash.hh"

namespace trt
{

namespace
{

/** Below this many primitives the whole build runs serially. */
constexpr uint32_t kParallelMinPrims = 4096;
/** Subtrees at or below this size become serial tasks. */
constexpr uint32_t kMinTaskGrain = 1024;
/** Ranges larger than this use chunk-parallel bin accumulation. */
constexpr uint32_t kParallelBinMin = 16384;
/** Chunk size for parallel reductions over primitive ranges. */
constexpr uint32_t kReduceGrain = 8192;
/** Below this many binary nodes the collapse runs serially. */
constexpr size_t kParallelCollapseMin = 4096;

/** Binary build node (temporary). */
struct BinNode
{
    Aabb bounds;
    uint32_t left = kInvalidNode;   //!< Child index, or kInvalidNode.
    uint32_t right = kInvalidNode;
    uint32_t firstTri = 0;          //!< Leaf only: range into the index
    uint32_t triCount = 0;          //!< permutation array.

    bool isLeaf() const { return triCount > 0; }
};

struct PrimRef
{
    Aabb bounds;
    Vec3 centroid;
    uint32_t tri;
};

class BinaryBuilder
{
  public:
    BinaryBuilder(const std::vector<Triangle> &tris, const BvhConfig &cfg,
                  uint32_t threads)
        : cfg_(cfg), threads_(threads)
    {
        prims_.resize(tris.size());
        parallelChunks(tris.size(), kReduceGrain, threads_,
                       [&](size_t begin, size_t end, uint32_t) {
                           for (size_t i = begin; i < end; i++) {
                               PrimRef &p = prims_[i];
                               p.bounds = tris[i].bounds();
                               p.centroid = p.bounds.center();
                               p.tri = uint32_t(i);
                           }
                       });
    }

    /** Build; returns root index (kInvalidNode for an empty scene). */
    uint32_t
    build()
    {
        if (prims_.empty())
            return kInvalidNode;
        uint32_t n = uint32_t(prims_.size());
        if (threads_ <= 1 || n < kParallelMinPrims)
            return buildRange(nodes_, 0, n);
        return buildParallel();
    }

    const std::vector<BinNode> &nodes() const { return nodes_; }
    const std::vector<PrimRef> &prims() const { return prims_; }

  private:
    struct Bin
    {
        Aabb bounds;
        uint32_t count = 0;
    };

    /** Deferred subtree build: fills one child slot of a top node. */
    struct SubtreeTask
    {
        uint32_t begin;
        uint32_t end;
        uint32_t parent; //!< Node whose left/right slot this fills.
        bool right;
    };

    /**
     * Grow @p bounds / @p cbounds over [begin, end). Chunk boundaries
     * are size-derived and partials merge in chunk order, so the result
     * is bit-identical to the serial loop at any thread count.
     */
    void
    rangeBounds(uint32_t begin, uint32_t end, uint32_t threads,
                Aabb &bounds, Aabb &cbounds) const
    {
        uint32_t count = end - begin;
        if (threads <= 1 || count < kParallelBinMin) {
            for (uint32_t i = begin; i < end; i++) {
                bounds.grow(prims_[i].bounds);
                cbounds.grow(prims_[i].centroid);
            }
            return;
        }
        uint32_t chunks = chunkCount(count, kReduceGrain);
        std::vector<std::pair<Aabb, Aabb>> partial(chunks);
        parallelChunks(count, kReduceGrain, threads,
                       [&](size_t b, size_t e, uint32_t c) {
                           Aabb pb, pc;
                           for (size_t i = begin + b; i < begin + e; i++) {
                               pb.grow(prims_[i].bounds);
                               pc.grow(prims_[i].centroid);
                           }
                           partial[c] = {pb, pc};
                       });
        for (const auto &[pb, pc] : partial) {
            bounds.grow(pb);
            cbounds.grow(pc);
        }
    }

    /** Per-thread bin accumulation with in-order reduction. */
    void
    accumulateBins(uint32_t begin, uint32_t end, int axis, float lo,
                   float scale, uint32_t threads,
                   std::vector<Bin> &bins) const
    {
        const int nbins = int(bins.size());
        auto bin_of = [&](const PrimRef &p) {
            int b = int((p.centroid[axis] - lo) * scale);
            return std::clamp(b, 0, nbins - 1);
        };
        uint32_t count = end - begin;
        if (threads <= 1 || count < kParallelBinMin) {
            for (uint32_t i = begin; i < end; i++) {
                Bin &b = bins[size_t(bin_of(prims_[i]))];
                b.bounds.grow(prims_[i].bounds);
                b.count++;
            }
            return;
        }
        uint32_t chunks = chunkCount(count, kReduceGrain);
        std::vector<std::vector<Bin>> partial(chunks);
        parallelChunks(count, kReduceGrain, threads,
                       [&](size_t b, size_t e, uint32_t c) {
                           auto &pb = partial[c];
                           pb.resize(size_t(nbins));
                           for (size_t i = begin + b; i < begin + e; i++) {
                               Bin &bin = pb[size_t(bin_of(prims_[i]))];
                               bin.bounds.grow(prims_[i].bounds);
                               bin.count++;
                           }
                       });
        for (const auto &pb : partial) {
            for (int b = 0; b < nbins; b++) {
                bins[size_t(b)].bounds.grow(pb[size_t(b)].bounds);
                bins[size_t(b)].count += pb[size_t(b)].count;
            }
        }
    }

    uint32_t
    buildRange(std::vector<BinNode> &nodes, uint32_t begin, uint32_t end)
    {
        Aabb bounds, cbounds;
        rangeBounds(begin, end, 1, bounds, cbounds);

        uint32_t count = end - begin;
        uint32_t idx = uint32_t(nodes.size());
        nodes.emplace_back();
        nodes[idx].bounds = bounds;

        if (count <= uint32_t(cfg_.maxLeafTris)) {
            nodes[idx].firstTri = begin;
            nodes[idx].triCount = count;
            return idx;
        }

        uint32_t mid = findSplit(begin, end, bounds, cbounds, 1);
        uint32_t l = buildRange(nodes, begin, mid);
        uint32_t r = buildRange(nodes, mid, end);
        nodes[idx].left = l;
        nodes[idx].right = r;
        return idx;
    }

    /** Binned SAH split; falls back to a median split when degenerate. */
    uint32_t
    findSplit(uint32_t begin, uint32_t end, const Aabb &bounds,
              const Aabb &cbounds, uint32_t threads)
    {
        const int nbins = cfg_.sahBins;
        Vec3 cext = cbounds.extent();
        int axis = cext.maxDim();

        uint32_t count = end - begin;
        if (cext[axis] <= 1e-12f) {
            // All centroids coincide: equal split keeps the tree balanced.
            uint32_t mid = begin + count / 2;
            std::nth_element(prims_.begin() + begin, prims_.begin() + mid,
                             prims_.begin() + end,
                             [axis](const PrimRef &a, const PrimRef &b) {
                                 return a.centroid[axis] < b.centroid[axis];
                             });
            return mid;
        }

        float lo = cbounds.lo[axis];
        float scale = float(nbins) / cext[axis];
        auto bin_of = [&](const PrimRef &p) {
            int b = int((p.centroid[axis] - lo) * scale);
            return std::clamp(b, 0, nbins - 1);
        };

        std::vector<Bin> bins(static_cast<size_t>(nbins));
        accumulateBins(begin, end, axis, lo, scale, threads, bins);

        // Sweep to evaluate SAH for each of the nbins-1 split planes.
        std::vector<float> rightArea(size_t(nbins), 0.0f);
        std::vector<uint32_t> rightCount(size_t(nbins), 0);
        Aabb acc;
        uint32_t cacc = 0;
        for (int b = nbins - 1; b > 0; b--) {
            acc.grow(bins[size_t(b)].bounds);
            cacc += bins[size_t(b)].count;
            rightArea[size_t(b)] = acc.surfaceArea();
            rightCount[size_t(b)] = cacc;
        }

        float best_cost = std::numeric_limits<float>::max();
        int best_split = -1;
        acc = Aabb();
        cacc = 0;
        float inv_root = 1.0f / std::max(bounds.surfaceArea(), 1e-20f);
        for (int b = 0; b < nbins - 1; b++) {
            acc.grow(bins[size_t(b)].bounds);
            cacc += bins[size_t(b)].count;
            if (cacc == 0 || rightCount[size_t(b) + 1] == 0)
                continue;
            float cost =
                cfg_.traversalCost +
                cfg_.intersectCost * inv_root *
                    (acc.surfaceArea() * float(cacc) +
                     rightArea[size_t(b) + 1] *
                         float(rightCount[size_t(b) + 1]));
            if (cost < best_cost) {
                best_cost = cost;
                best_split = b;
            }
        }

        if (best_split < 0) {
            uint32_t mid = begin + count / 2;
            std::nth_element(prims_.begin() + begin, prims_.begin() + mid,
                             prims_.begin() + end,
                             [axis](const PrimRef &a, const PrimRef &b) {
                                 return a.centroid[axis] < b.centroid[axis];
                             });
            return mid;
        }

        auto it = std::partition(prims_.begin() + begin, prims_.begin() + end,
                                 [&](const PrimRef &p) {
                                     return bin_of(p) <= best_split;
                                 });
        uint32_t mid = uint32_t(it - prims_.begin());
        assert(mid > begin && mid < end);
        return mid;
    }

    /**
     * Expand the top of the tree on the calling thread (parallel
     * binning inside findSplit), deferring small subtrees as tasks.
     */
    uint32_t
    expandTop(uint32_t begin, uint32_t end, uint32_t cutoff,
              std::vector<SubtreeTask> &tasks)
    {
        Aabb bounds, cbounds;
        rangeBounds(begin, end, threads_, bounds, cbounds);

        uint32_t count = end - begin;
        uint32_t idx = uint32_t(nodes_.size());
        nodes_.emplace_back();
        nodes_[idx].bounds = bounds;

        if (count <= uint32_t(cfg_.maxLeafTris)) {
            nodes_[idx].firstTri = begin;
            nodes_[idx].triCount = count;
            return idx;
        }

        uint32_t mid = findSplit(begin, end, bounds, cbounds, threads_);
        if (mid - begin <= cutoff)
            tasks.push_back({begin, mid, idx, false});
        else
            nodes_[idx].left = expandTop(begin, mid, cutoff, tasks);
        if (end - mid <= cutoff)
            tasks.push_back({mid, end, idx, true});
        else
            nodes_[idx].right = expandTop(mid, end, cutoff, tasks);
        return idx;
    }

    uint32_t
    buildParallel()
    {
        uint32_t n = uint32_t(prims_.size());
        uint32_t cutoff =
            std::max(kMinTaskGrain, n / (threads_ * 8));
        if (n <= cutoff)
            return buildRange(nodes_, 0, n);

        std::vector<SubtreeTask> tasks;
        uint32_t root = expandTop(0, n, cutoff, tasks);

        // Build deferred subtrees into task-local node arrays over
        // their disjoint primitive ranges. Tasks are claimed biggest
        // first for load balance; output placement is by task index,
        // so execution order can't affect the result.
        std::vector<std::vector<BinNode>> local(tasks.size());
        std::vector<uint32_t> order(tasks.size());
        for (uint32_t i = 0; i < tasks.size(); i++)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return tasks[a].end - tasks[a].begin >
                                    tasks[b].end - tasks[b].begin;
                         });
        parallelTasks(order.size(), threads_, [&](size_t k) {
            uint32_t i = order[k];
            local[i].reserve(2 * size_t(tasks[i].end - tasks[i].begin));
            buildRange(local[i], tasks[i].begin, tasks[i].end);
        });

        // Stitch: concatenate local arrays in task order, rebasing
        // child links. Binary node numbering differs from the serial
        // build here, but only the topology and the primitive
        // permutation feed the collapse, and both are identical.
        std::vector<size_t> base(tasks.size());
        size_t total = nodes_.size();
        for (size_t i = 0; i < tasks.size(); i++) {
            base[i] = total;
            total += local[i].size();
        }
        nodes_.resize(total);
        parallelTasks(tasks.size(), threads_, [&](size_t i) {
            uint32_t off = uint32_t(base[i]);
            const SubtreeTask &t = tasks[i];
            BinNode *dst = nodes_.data() + off;
            for (size_t k = 0; k < local[i].size(); k++) {
                BinNode nd = local[i][k];
                if (nd.left != kInvalidNode)
                    nd.left += off;
                if (nd.right != kInvalidNode)
                    nd.right += off;
                dst[k] = nd;
            }
            if (t.right)
                nodes_[t.parent].right = off;
            else
                nodes_[t.parent].left = off;
        });
        return root;
    }

    const BvhConfig &cfg_;
    uint32_t threads_;
    std::vector<PrimRef> prims_;
    std::vector<BinNode> nodes_;
};

/** Bytes node @p n occupies including the leaf blocks it references. */
uint32_t
nodeFootprintBytes(const WideNode &n, uint32_t node_bytes)
{
    uint32_t bytes = node_bytes;
    for (const auto &c : n.child)
        if (c.kind == WideChild::Leaf)
            bytes += c.count * kTriBytes;
    return bytes;
}

/**
 * Quantize every child box to an 8-bit grid anchored at its node's
 * union box, growing outward so the quantized box always contains the
 * exact one (Ylitie et al. compressed wide BVH). Traversal then tests
 * exactly what the hardware would decode.
 */
void
quantizeChildBounds(std::vector<WideNode> &nodes, uint32_t threads)
{
    parallelChunks(nodes.size(), 4096, threads, [&](size_t begin,
                                                    size_t end, uint32_t) {
        for (size_t i = begin; i < end; i++) {
            WideNode &n = nodes[i];
            Aabb u;
            for (const auto &c : n.child)
                if (c.kind != WideChild::Invalid)
                    u.grow(c.bounds);
            if (u.empty())
                continue;
            Vec3 ext = u.extent();
            for (auto &c : n.child) {
                if (c.kind == WideChild::Invalid)
                    continue;
                Aabb exact = c.bounds;
                for (int a = 0; a < 3; a++) {
                    float e = ext[a];
                    if (e <= 0.0f)
                        continue; // flat axis: exact representation
                    float step = e / 255.0f;
                    float qlo = u.lo[a] +
                                std::floor((exact.lo[a] - u.lo[a]) / step) *
                                    step;
                    float qhi = u.lo[a] +
                                std::ceil((exact.hi[a] - u.lo[a]) / step) *
                                    step;
                    // Guard against float round-off un-conserving the box.
                    c.bounds.lo[a] = std::min(qlo, exact.lo[a]);
                    c.bounds.hi[a] = std::max(qhi, exact.hi[a]);
                }
            }
        }
    });
}

/**
 * Quantizer for the compressed 8-wide layout (DESIGN.md §11): each
 * node stores an origin (the union box's lo corner), one power-of-two
 * scale exponent per axis, and 8-bit child bounds. The stored child
 * boxes are exactly what decompression produces — origin + q * 2^e,
 * one float rounding per coordinate — so traversal, the functional
 * renderer and the timing model all test identical planes
 * ("decompression-order-exact"). The grid always grows outward:
 * qlo rounds down, qhi rounds up, and bounded +-1 nudges absorb any
 * division round-off, so a quantized box strictly contains the exact
 * one and no hit can be missed.
 */
void
quantizeChildBounds8(std::vector<WideNode> &nodes, uint32_t threads)
{
    parallelChunks(nodes.size(), 4096, threads, [&](size_t begin,
                                                    size_t end, uint32_t) {
        for (size_t i = begin; i < end; i++) {
            WideNode &n = nodes[i];
            Aabb u;
            for (const auto &c : n.child)
                if (c.kind != WideChild::Invalid)
                    u.grow(c.bounds);
            if (u.empty())
                continue;
            for (int a = 0; a < 3; a++) {
                float origin = u.lo[a];
                float ext = u.hi[a] - u.lo[a];
                if (ext <= 0.0f) {
                    // Flat axis: every child collapses to the origin
                    // plane, which the 8-bit grid represents exactly.
                    for (auto &c : n.child) {
                        if (c.kind == WideChild::Invalid)
                            continue;
                        c.bounds.lo[a] = origin;
                        c.bounds.hi[a] = origin;
                    }
                    continue;
                }
                // Smallest power-of-two cell covering ext/255: frexp
                // yields ext/255 = m * 2^e with m in [0.5, 1), so
                // 2^e > ext/255 and ceil((hi-origin)/scale) <= 255.
                int e = 0;
                std::frexp(ext / 255.0f, &e);
                for (;; e++) {
                    float scale = std::ldexp(1.0f, e);
                    bool ok = true;
                    for (auto &c : n.child) {
                        if (c.kind == WideChild::Invalid)
                            continue;
                        float lo = c.bounds.lo[a], hi = c.bounds.hi[a];
                        int qlo = std::clamp(
                            int(std::floor((lo - origin) / scale)), 0, 255);
                        int qhi = std::clamp(
                            int(std::ceil((hi - origin) / scale)), 0, 255);
                        while (qlo > 0 && origin + float(qlo) * scale > lo)
                            qlo--;
                        while (qhi < 255 && origin + float(qhi) * scale < hi)
                            qhi++;
                        float dlo = origin + float(qlo) * scale;
                        float dhi = origin + float(qhi) * scale;
                        if (dlo > lo || dhi < hi) {
                            ok = false; // grid can't cover; double cell
                            break;
                        }
                        c.bounds.lo[a] = dlo;
                        c.bounds.hi[a] = dhi;
                    }
                    if (ok)
                        break;
                }
            }
        }
    });
}

// --- Cost-based DP collapse to an 8-wide BVH (Ylitie et al.) ---------
//
// For every binary node n and slot budget j in [1, 8], costF(n, j) is
// the cheapest SAH cost of representing n's subtree in at most j root
// slots of its parent's wide node. A binary leaf always occupies one
// slot (leaves are never merged — leaf blocks stay identical to the
// 4-wide backend's, which is what keeps frames bit-identical across
// widths). An internal node either *emits* a wide node here
// (costF(n,1) = A(n)*Cnode + dist(n,8)) or *distributes* its two
// children over the budget (dist(n,j) = min_k costF(l,k) +
// costF(r,j-k)). Each row is a pure function of the children's rows,
// so computing rows bottom-up over depth waves is bit-identical at any
// thread count. Ties: the distribute scan takes the lowest k (strict
// <), and carrying the j-1 decision beats an equal-cost distribute.

constexpr uint8_t kDecLeaf = 255; //!< Slot is a binary leaf.
constexpr uint8_t kDecNode = 0;   //!< Emit a wide node at this slot.

/** Per-(node, budget) DP rows; index n * kMaxBvhWidth + (j - 1). */
struct WideDp
{
    std::vector<float> cost;
    std::vector<uint8_t> decL; //!< kDecLeaf / kDecNode / left slot count.
    std::vector<uint8_t> decR; //!< Right slot count of a distribute.
    /** Left slot count of dist(n, 8), used when n emits a wide node. */
    std::vector<uint8_t> rootK;
};

void
computeDpNode(const std::vector<BinNode> &bin, uint32_t n,
              const BvhConfig &cfg, WideDp &dp)
{
    const size_t at = size_t(n) * kMaxBvhWidth;
    float area = bin[n].bounds.surfaceArea();
    if (bin[n].isLeaf()) {
        float c = area * cfg.intersectCost * float(bin[n].triCount);
        for (int j = 0; j < kMaxBvhWidth; j++) {
            dp.cost[at + j] = c;
            dp.decL[at + j] = kDecLeaf;
            dp.decR[at + j] = 0;
        }
        return;
    }
    const float *cl = &dp.cost[size_t(bin[n].left) * kMaxBvhWidth];
    const float *cr = &dp.cost[size_t(bin[n].right) * kMaxBvhWidth];
    float dist[kMaxBvhWidth + 1];
    uint8_t distK[kMaxBvhWidth + 1];
    for (int j = 2; j <= kMaxBvhWidth; j++) {
        float best = std::numeric_limits<float>::max();
        uint8_t best_k = 1;
        for (int k = 1; k < j; k++) {
            float v = cl[k - 1] + cr[j - k - 1];
            if (v < best) {
                best = v;
                best_k = uint8_t(k);
            }
        }
        dist[j] = best;
        distK[j] = best_k;
    }
    dp.cost[at] = area * cfg.traversalCost + dist[kMaxBvhWidth];
    dp.decL[at] = kDecNode;
    dp.decR[at] = 0;
    dp.rootK[n] = distK[kMaxBvhWidth];
    for (int j = 2; j <= kMaxBvhWidth; j++) {
        if (dist[j] < dp.cost[at + j - 2]) {
            dp.cost[at + j - 1] = dist[j];
            dp.decL[at + j - 1] = distK[j];
            dp.decR[at + j - 1] = uint8_t(j) - distK[j];
        } else {
            dp.cost[at + j - 1] = dp.cost[at + j - 2];
            dp.decL[at + j - 1] = dp.decL[at + j - 2];
            dp.decR[at + j - 1] = dp.decR[at + j - 2];
        }
    }
}

/**
 * Fill the DP tables bottom-up. Depth buckets come from a forward
 * sweep over the parent-before-child node order the binary builders
 * guarantee (serial recursion appends parents first; the stitched
 * parallel arrays rebase child links to later offsets).
 */
WideDp
computeWideDp(const std::vector<BinNode> &bin, uint32_t root,
              const BvhConfig &cfg, uint32_t threads)
{
    WideDp dp;
    const size_t n = bin.size();
    dp.cost.resize(n * kMaxBvhWidth);
    dp.decL.resize(n * kMaxBvhWidth);
    dp.decR.resize(n * kMaxBvhWidth);
    dp.rootK.assign(n, 0);

    std::vector<uint32_t> depth(n, 0);
    depth[root] = 1;
    uint32_t maxd = 1;
    for (uint32_t i = root; i < n; i++) {
        assert(depth[i] > 0 && "binary node unreachable from root");
        if (bin[i].isLeaf())
            continue;
        assert(bin[i].left > i && bin[i].right > i);
        depth[bin[i].left] = depth[i] + 1;
        depth[bin[i].right] = depth[i] + 1;
        maxd = std::max(maxd, depth[i] + 1);
    }

    // Counting sort into depth buckets (deepest processed first).
    std::vector<uint32_t> bucket_begin(maxd + 2, 0);
    for (uint32_t i = root; i < n; i++)
        bucket_begin[depth[i] + 1]++;
    for (uint32_t d = 1; d <= maxd; d++)
        bucket_begin[d + 1] += bucket_begin[d];
    std::vector<uint32_t> order(n - root);
    {
        std::vector<uint32_t> cur(bucket_begin.begin(),
                                  bucket_begin.end() - 1);
        for (uint32_t i = root; i < n; i++)
            order[cur[depth[i]]++] = i;
    }
    for (uint32_t d = maxd; d >= 1; d--) {
        uint32_t begin = bucket_begin[d], end = bucket_begin[d + 1];
        parallelChunks(end - begin, 1024, threads,
                       [&](size_t b, size_t e, uint32_t) {
                           for (size_t i = b; i < e; i++)
                               computeDpNode(bin, order[begin + i], cfg,
                                             dp);
                       });
    }
    return dp;
}

} // anonymous namespace

uint64_t
BvhConfig::fingerprint() const
{
    // buildThreads is deliberately excluded: it never changes the
    // output (the parallel build is bit-identical to the serial one).
    Fnv1a h;
    h.pod(uint32_t(0xB1D50002)); // schema tag (v2: + width)
    h.pod(int32_t(maxLeafTris));
    h.pod(int32_t(sahBins));
    h.pod(traversalCost);
    h.pod(intersectCost);
    h.pod(treeletMaxBytes);
    h.pod(uint8_t(quantizedNodes));
    h.pod(int32_t(width));
    return h.value();
}

uint32_t
resolveBuildThreads(uint32_t requested)
{
    if (requested)
        return requested;
    uint64_t n = envUInt("TRT_BUILD_THREADS", 0, 256);
    if (n > 0)
        return uint32_t(n);
    uint32_t hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/** Collapses the binary tree into the wide node array of @p out. */
class BvhBuilder
{
  public:
    static void
    collapse(const std::vector<BinNode> &bin, uint32_t bin_root, Bvh &out,
             const BvhConfig &cfg, uint32_t threads)
    {
        if (bin_root == kInvalidNode) {
            out.nodes_.emplace_back();
            return;
        }
        if (bin[bin_root].isLeaf()) {
            // Degenerate: root itself is a leaf; wrap it in a node.
            WideNode n;
            n.child[0].bounds = bin[bin_root].bounds;
            n.child[0].kind = WideChild::Leaf;
            n.child[0].index = bin[bin_root].firstTri;
            n.child[0].count = bin[bin_root].triCount;
            out.nodes_.push_back(n);
            return;
        }
        WideDp dp;
        const WideDp *dpp = nullptr;
        if (cfg.width == kMaxBvhWidth) {
            dp = computeWideDp(bin, bin_root, cfg, threads);
            dpp = &dp;
        }
        if (threads > 1 && bin.size() >= kParallelCollapseMin) {
            collapseParallel(bin, bin_root, out, cfg.width, dpp, threads);
            return;
        }
        out.nodes_.emplace_back();
        collapseNode(bin, bin_root, 0, out, cfg.width, dpp);
    }

    static void
    partitionTreelets(Bvh &bvh, uint32_t max_bytes, uint32_t threads)
    {
        auto &nodes = bvh.nodes_;
        bvh.nodeTreelet_.assign(nodes.size(), kInvalidTreelet);

        // Treelet node membership in assignment order, used for layout.
        std::vector<std::vector<uint32_t>> members;

        // The serial formulation is a FIFO over treelet roots: pop a
        // root, fill its treelet, append the spilled roots. Each fill
        // depends only on its root (fills touch disjoint subtrees), so
        // entire FIFO generations can run in parallel; processing them
        // as waves preserves the serial pop order and hence the
        // treelet ids and the layout, bit for bit.
        std::vector<uint32_t> wave{0};
        while (!wave.empty()) {
            uint32_t base = uint32_t(members.size());
            members.resize(base + wave.size());
            std::vector<std::vector<uint32_t>> spills(wave.size());
            parallelChunks(wave.size(), 1, threads,
                           [&](size_t i, size_t, uint32_t) {
                               fillTreelet(bvh, wave[i],
                                           base + uint32_t(i), max_bytes,
                                           members[base + i], spills[i]);
                           });
            std::vector<uint32_t> next;
            for (const auto &s : spills)
                next.insert(next.end(), s.begin(), s.end());
            wave = std::move(next);
        }

        layout(bvh, members);
        computeTreeletDepths(bvh, members);
    }

  private:
    /** Walk the DP decision tree of (@p n, budget @p j): a leaf or
     *  emit-node decision makes @p n a root slot; a distribute
     *  decision recurses left then right, so slots come out in
     *  left-to-right binary order (recursion depth < kMaxBvhWidth). */
    static void
    collectRoots(const std::vector<BinNode> &bin, const WideDp &dp,
                 uint32_t n, int j, uint32_t slots[kMaxBvhWidth],
                 int &n_slots)
    {
        const size_t at = size_t(n) * kMaxBvhWidth + size_t(j) - 1;
        uint8_t d = dp.decL[at];
        if (d == kDecLeaf || d == kDecNode) {
            slots[n_slots++] = n;
            return;
        }
        collectRoots(bin, dp, bin[n].left, d, slots, n_slots);
        collectRoots(bin, dp, bin[n].right, dp.decR[at], slots, n_slots);
    }

    /**
     * Gather the binary descendants that become @p bin_idx's wide
     * children. Width 4 (no DP tables): greedily expand the internal
     * slot with the largest surface area. Width 8: walk the DP
     * decision tree of dist(bin_idx, 8). Returns the slot count.
     */
    static int
    gatherSlots(const std::vector<BinNode> &bin, uint32_t bin_idx,
                uint32_t slots[kMaxBvhWidth], int width, const WideDp *dp)
    {
        int n_slots = 0;
        if (dp) {
            int k = dp->rootK[bin_idx];
            collectRoots(bin, *dp, bin[bin_idx].left, k, slots, n_slots);
            collectRoots(bin, *dp, bin[bin_idx].right, width - k, slots,
                         n_slots);
            return n_slots;
        }
        slots[n_slots++] = bin[bin_idx].left;
        slots[n_slots++] = bin[bin_idx].right;

        while (n_slots < width) {
            int best = -1;
            float best_area = -1.0f;
            for (int i = 0; i < n_slots; i++) {
                if (bin[slots[i]].isLeaf())
                    continue;
                float a = bin[slots[i]].bounds.surfaceArea();
                if (a > best_area) {
                    best_area = a;
                    best = i;
                }
            }
            if (best < 0)
                break;
            uint32_t expand = slots[best];
            slots[best] = bin[expand].left;
            slots[n_slots++] = bin[expand].right;
        }
        return n_slots;
    }

    static void
    collapseNode(const std::vector<BinNode> &bin, uint32_t bin_idx,
                 uint32_t wide_idx, Bvh &out, int width, const WideDp *dp)
    {
        uint32_t slots[kMaxBvhWidth];
        int n_slots = gatherSlots(bin, bin_idx, slots, width, dp);

        // First create all children entries (reserving wide indices for
        // the internal ones), then recurse; out.nodes_ may reallocate so
        // never hold a reference across the recursion.
        uint32_t child_wide[kMaxBvhWidth];
        for (int i = 0; i < n_slots; i++) {
            const BinNode &c = bin[slots[i]];
            WideChild wc;
            wc.bounds = c.bounds;
            if (c.isLeaf()) {
                wc.kind = WideChild::Leaf;
                wc.index = c.firstTri;
                wc.count = c.triCount;
                child_wide[i] = kInvalidNode;
            } else {
                wc.kind = WideChild::Internal;
                wc.index = uint32_t(out.nodes_.size());
                child_wide[i] = wc.index;
                out.nodes_.emplace_back();
            }
            out.nodes_[wide_idx].child[i] = wc;
        }
        for (int i = 0; i < n_slots; i++)
            if (child_wide[i] != kInvalidNode)
                collapseNode(bin, slots[i], child_wide[i], out, width, dp);
    }

    /** Scratch entry of the wave-parallel collapse: one wide node. */
    struct CollapseScratch
    {
        uint32_t bin = 0;               //!< Binary node collapsed here.
        uint32_t slots[kMaxBvhWidth] = {}; //!< Gathered binary descendants.
        int nSlots = 0;
        uint32_t internalCount = 0; //!< Slots that are wide children.
        uint32_t firstChild = 0;    //!< First wide child (slot order).
        uint32_t subtree = 0;       //!< Wide nodes in this subtree.
        uint32_t canon = 0;         //!< Canonical index in out.nodes_.
        uint32_t childrenBase = 0;  //!< Canonical index of first child.
    };

    /**
     * Wave-parallel collapse reproducing the serial numbering exactly.
     * The serial recursion allocates a parent's internal children
     * consecutively, then numbers each child's descendants in slot
     * order; with per-subtree wide-node counts those indices are
     * computable top-down without running the recursion.
     */
    static void
    collapseParallel(const std::vector<BinNode> &bin, uint32_t bin_root,
                     Bvh &out, int width, const WideDp *dp,
                     uint32_t threads)
    {
        std::vector<CollapseScratch> cn;
        cn.reserve(bin.size() / 2 + 1);
        cn.emplace_back();
        cn[0].bin = bin_root;

        // Wave expansion: gather slots for the current wave in
        // parallel, then append its wide children (slot order within a
        // parent, parent order within the wave).
        std::vector<std::pair<uint32_t, uint32_t>> waves;
        uint32_t wave_begin = 0;
        while (wave_begin < cn.size()) {
            uint32_t wave_end = uint32_t(cn.size());
            waves.emplace_back(wave_begin, wave_end);
            parallelChunks(
                wave_end - wave_begin, 256, threads,
                [&](size_t b, size_t e, uint32_t) {
                    for (size_t i = b; i < e; i++) {
                        CollapseScratch &c = cn[wave_begin + i];
                        c.nSlots =
                            gatherSlots(bin, c.bin, c.slots, width, dp);
                        c.internalCount = 0;
                        for (int s = 0; s < c.nSlots; s++)
                            if (!bin[c.slots[s]].isLeaf())
                                c.internalCount++;
                    }
                });
            uint32_t next = wave_end;
            for (uint32_t i = wave_begin; i < wave_end; i++) {
                cn[i].firstChild = next;
                next += cn[i].internalCount;
            }
            cn.resize(next);
            parallelChunks(wave_end - wave_begin, 256, threads,
                           [&](size_t b, size_t e, uint32_t) {
                               for (size_t i = b; i < e; i++) {
                                   CollapseScratch &c = cn[wave_begin + i];
                                   uint32_t r = 0;
                                   for (int s = 0; s < c.nSlots; s++)
                                       if (!bin[c.slots[s]].isLeaf())
                                           cn[c.firstChild + r++].bin =
                                               c.slots[s];
                               }
                           });
            wave_begin = wave_end;
        }

        // Subtree wide-node counts, bottom-up wave by wave.
        for (size_t w = waves.size(); w-- > 0;) {
            auto [begin, end] = waves[w];
            parallelChunks(end - begin, 1024, threads,
                           [&](size_t b, size_t e, uint32_t) {
                               for (size_t i = b; i < e; i++) {
                                   CollapseScratch &c = cn[begin + i];
                                   c.subtree = 1;
                                   for (uint32_t r = 0;
                                        r < c.internalCount; r++)
                                       c.subtree +=
                                           cn[c.firstChild + r].subtree;
                               }
                           });
        }

        // Canonical numbering, top-down: each wave assigns the next
        // wave's indices from its own (already assigned) ones.
        cn[0].canon = 0;
        cn[0].childrenBase = 1;
        for (const auto &[begin, end] : waves) {
            parallelChunks(
                end - begin, 1024, threads,
                [&](size_t b, size_t e, uint32_t) {
                    for (size_t i = b; i < e; i++) {
                        const CollapseScratch &p = cn[begin + i];
                        uint32_t running =
                            p.childrenBase + p.internalCount;
                        for (uint32_t r = 0; r < p.internalCount; r++) {
                            CollapseScratch &c = cn[p.firstChild + r];
                            c.canon = p.childrenBase + r;
                            c.childrenBase = running;
                            running += c.subtree - 1;
                        }
                    }
                });
        }

        // Emit the wide nodes.
        out.nodes_.assign(cn.size(), WideNode{});
        parallelChunks(cn.size(), 1024, threads, [&](size_t b, size_t e,
                                                     uint32_t) {
            for (size_t i = b; i < e; i++) {
                const CollapseScratch &c = cn[i];
                WideNode &n = out.nodes_[c.canon];
                uint32_t r = 0;
                for (int s = 0; s < c.nSlots; s++) {
                    const BinNode &bc = bin[c.slots[s]];
                    WideChild wc;
                    wc.bounds = bc.bounds;
                    if (bc.isLeaf()) {
                        wc.kind = WideChild::Leaf;
                        wc.index = bc.firstTri;
                        wc.count = bc.triCount;
                    } else {
                        wc.kind = WideChild::Internal;
                        wc.index = cn[c.firstChild + r].canon;
                        r++;
                    }
                    n.child[s] = wc;
                }
            }
        });
    }

    /**
     * Fill the treelet rooted at @p root with id @p tid: pull nodes by
     * descending surface area (Aila & Karras) until the byte cap, spill
     * the rest as future treelet roots.
     */
    static void
    fillTreelet(Bvh &bvh, uint32_t root, uint32_t tid, uint32_t max_bytes,
                std::vector<uint32_t> &out_members,
                std::vector<uint32_t> &spills)
    {
        const auto &nodes = bvh.nodes_;
        using Entry = std::pair<float, uint32_t>;
        std::priority_queue<Entry> frontier;
        auto area_of = [&](uint32_t n) {
            Aabb b;
            for (const auto &c : nodes[n].child)
                if (c.kind != WideChild::Invalid)
                    b.grow(c.bounds);
            return b.surfaceArea();
        };
        frontier.emplace(area_of(root), root);
        uint32_t bytes = 0;

        while (!frontier.empty()) {
            uint32_t n = frontier.top().second;
            frontier.pop();
            uint32_t fp = nodeFootprintBytes(nodes[n], bvh.nodeBytes_);
            if (bytes > 0 && bytes + fp > max_bytes) {
                spills.push_back(n);
                continue;
            }
            bvh.nodeTreelet_[n] = tid;
            out_members.push_back(n);
            bytes += fp;
            for (const auto &c : nodes[n].child)
                if (c.kind == WideChild::Internal)
                    frontier.emplace(area_of(c.index), c.index);
        }
    }

    static void
    layout(Bvh &bvh, const std::vector<std::vector<uint32_t>> &members)
    {
        bvh.nodeAddr_.assign(bvh.nodes_.size(), 0);
        bvh.triAddr_.assign(std::max<size_t>(1, bvh.tris_.size()), 0);
        bvh.treeletAddr_.assign(members.size(), 0);
        bvh.treeletNodes_.assign(members.size(), 0);
        bvh.treeletBytes_.assign(members.size(), 0);

        uint64_t cur = kBvhBaseAddr;
        for (uint32_t t = 0; t < members.size(); t++) {
            uint64_t base = cur;
            bvh.treeletAddr_[t] = base;
            bvh.treeletNodes_[t] = uint32_t(members[t].size());
            for (uint32_t n : members[t]) {
                bvh.nodeAddr_[n] = cur;
                cur += bvh.nodeBytes_;
            }
            for (uint32_t n : members[t]) {
                for (const auto &c : bvh.nodes_[n].child) {
                    if (c.kind != WideChild::Leaf)
                        continue;
                    for (uint32_t k = 0; k < c.count; k++)
                        bvh.triAddr_[c.index + k] = cur + k * kTriBytes;
                    cur += uint64_t(c.count) * kTriBytes;
                }
            }
            bvh.treeletBytes_[t] = uint32_t(cur - base);
        }
        bvh.totalBytes_ = cur - kBvhBaseAddr;
    }

    static void
    computeTreeletDepths(Bvh &bvh,
                         const std::vector<std::vector<uint32_t>> &members)
    {
        // Within-treelet depth: a treelet's entry node has depth 1;
        // children in the same treelet are one deeper. Used to estimate
        // how many node visits a ray makes per treelet (preload timing,
        // section 4.3).
        std::vector<uint32_t> depth(bvh.nodes_.size(), 0);
        depth[0] = 1;
        // Nodes were appended parent-before-child per treelet, but child
        // wide indices are globally increasing, so a forward sweep works.
        for (uint32_t n = 0; n < bvh.nodes_.size(); n++) {
            if (depth[n] == 0)
                depth[n] = 1; // treelet entry reached via cross edge
            for (const auto &c : bvh.nodes_[n].child) {
                if (c.kind != WideChild::Internal)
                    continue;
                depth[c.index] =
                    bvh.nodeTreelet_[c.index] == bvh.nodeTreelet_[n]
                        ? depth[n] + 1
                        : 1;
            }
        }
        bvh.treeletDepth_.assign(members.size(), 1.0f);
        for (uint32_t t = 0; t < members.size(); t++) {
            double sum = 0.0;
            for (uint32_t n : members[t])
                sum += depth[n];
            if (!members[t].empty())
                bvh.treeletDepth_[t] = float(sum / members[t].size());
        }
    }
};

Bvh
Bvh::build(const std::vector<Triangle> &tris, const BvhConfig &cfg)
{
    Bvh bvh;
    uint32_t threads = resolveBuildThreads(cfg.buildThreads);

    BinaryBuilder bb(tris, cfg, threads);
    uint32_t bin_root = bb.build();

    // Reorder triangles by the permutation the binary build produced so
    // leaf ranges are contiguous.
    bvh.tris_.resize(tris.size());
    bvh.triOrig_.resize(tris.size());
    const auto &prims = bb.prims();
    parallelChunks(tris.size(), kReduceGrain, threads,
                   [&](size_t begin, size_t end, uint32_t) {
                       for (size_t i = begin; i < end; i++) {
                           bvh.tris_[i] = tris[prims[i].tri];
                           bvh.triOrig_[i] = prims[i].tri;
                       }
                   });

    assert(cfg.width == kBvhWidth || cfg.width == kMaxBvhWidth);
    BvhBuilder::collapse(bb.nodes(), bin_root, bvh, cfg, threads);

    if (cfg.width == kMaxBvhWidth) {
        // Width 8 always uses the compressed layout: quantized child
        // bounds and the 80-byte node encoding (DESIGN.md §11).
        bvh.width_ = kMaxBvhWidth;
        bvh.nodeBytes_ = kCompressedNode8Bytes;
        quantizeChildBounds8(bvh.nodes_, threads);
    } else if (cfg.quantizedNodes) {
        bvh.nodeBytes_ = kCompressedNodeBytes;
        quantizeChildBounds(bvh.nodes_, threads);
    }
    for (const auto &c : bvh.nodes_[0].child)
        if (c.kind != WideChild::Invalid)
            bvh.rootBounds_.grow(c.bounds);

    BvhBuilder::partitionTreelets(bvh, cfg.treeletMaxBytes, threads);
    bvh.buildPackedBounds(threads);
    return bvh;
}

void
Bvh::buildPackedBounds(uint32_t threads)
{
    const uint32_t stride = packedStride();
    packed_.resize(nodes_.size() * stride);
    parallelChunks(nodes_.size(), kReduceGrain, threads,
                   [&](size_t begin, size_t end, uint32_t) {
                       for (size_t i = begin; i < end; i++) {
                           const WideNode &n = nodes_[i];
                           for (uint32_t g = 0; g < stride; g++) {
                               PackedBounds4 pb;
                               for (int k = 0; k < 4; k++) {
                                   const WideChild &c =
                                       n.child[g * 4 + k];
                                   if (c.kind != WideChild::Invalid)
                                       pb.set(k, c.bounds);
                               }
                               packed_[i * stride + g] = pb;
                           }
                       }
                   });
}

HitRecord
Bvh::intersectClosest(const Ray &ray) const
{
    HitRecord hit;
    RayInv inv(ray);

    Ray r = ray; // r.tmax shrinks as hits are found
    struct Entry
    {
        uint32_t node;
        float t;
    };
    std::vector<Entry> stack;
    stack.push_back({0, r.tmin});

    while (!stack.empty()) {
        Entry e = stack.back();
        stack.pop_back();
        if (hit.hit() && e.t > hit.t)
            continue;

        const WideNode &n = nodes_[e.node];
        // Collect intersected children (one packed slab test per group
        // of four lanes, groups in child order), then push far-to-near.
        struct ChildHit
        {
            const WideChild *c;
            float t;
        };
        ChildHit hits[kMaxBvhWidth];
        int nh = 0;
        const uint32_t stride = packedStride();
        for (uint32_t g = 0; g < stride; g++) {
            float t_entry[4];
            uint32_t m = intersectAabb4(
                r, inv, packed_[size_t(e.node) * stride + g], t_entry);
            for (int k = 0; k < 4; k++) {
                if (m >> k & 1u)
                    hits[nh++] = {&n.child[g * 4 + k], t_entry[k]};
            }
        }
        // Insertion sort by descending t (at most kMaxBvhWidth entries;
        // avoids std::sort's code paths tripping -Warray-bounds).
        for (int i = 1; i < nh; i++) {
            ChildHit key = hits[i];
            int j = i - 1;
            while (j >= 0 && hits[j].t < key.t) {
                hits[j + 1] = hits[j];
                j--;
            }
            hits[j + 1] = key;
        }
        for (int i = 0; i < nh; i++) {
            const WideChild &c = *hits[i].c;
            if (c.kind == WideChild::Internal) {
                stack.push_back({c.index, hits[i].t});
            } else {
                // Batched Möller-Trumbore; the acceptance fold runs
                // per lane in order so r.tmax shrinks exactly as the
                // scalar loop's did.
                for (uint32_t k0 = 0; k0 < c.count; k0 += 4) {
                    uint32_t cnt = std::min(c.count - k0, 4u);
                    float t[4], u[4], v[4];
                    uint32_t tm = mollerTrumbore4(
                        r, &tris_[c.index + k0], cnt, t, u, v);
                    for (uint32_t k = 0; k < cnt; k++) {
                        if (!(tm >> k & 1u))
                            continue;
                        if (t[k] > r.tmin && t[k] < r.tmax) {
                            hit.t = t[k];
                            hit.u = u[k];
                            hit.v = v[k];
                            hit.triIndex = c.index + k0 + k;
                            r.tmax = t[k];
                        }
                    }
                }
            }
        }
    }
    return hit;
}

BvhStats
Bvh::stats() const
{
    BvhStats st;
    st.nodeCount = uint32_t(nodes_.size());
    st.triCount = uint32_t(tris_.size());
    st.totalBytes = totalBytes_;
    st.treeletCount = treeletCount();

    uint64_t leaf_tris = 0;
    for (const auto &n : nodes_) {
        for (const auto &c : n.child) {
            if (c.kind == WideChild::Leaf) {
                st.leafCount++;
                leaf_tris += c.count;
            }
        }
    }
    st.avgLeafTris = st.leafCount ? double(leaf_tris) / st.leafCount : 0.0;

    // Depth via explicit traversal.
    struct Entry
    {
        uint32_t node;
        uint32_t depth;
    };
    std::vector<Entry> stack{{0, 1}};
    while (!stack.empty()) {
        Entry e = stack.back();
        stack.pop_back();
        st.maxDepth = std::max(st.maxDepth, e.depth);
        for (const auto &c : nodes_[e.node].child)
            if (c.kind == WideChild::Internal)
                stack.push_back({c.index, e.depth + 1});
    }

    double tb = 0.0, tn = 0.0, td = 0.0;
    for (uint32_t t = 0; t < treeletCount(); t++) {
        tb += treeletBytes_[t];
        tn += treeletNodes_[t];
        td += treeletDepth_[t];
    }
    if (treeletCount()) {
        st.avgTreeletBytes = tb / treeletCount();
        st.avgTreeletNodes = tn / treeletCount();
        st.avgTreeletDepth = td / treeletCount();
    }
    return st;
}

} // namespace trt
