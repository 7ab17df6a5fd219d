/**
 * @file
 * Wide (4-ary) bounding volume hierarchy with an explicit memory layout.
 *
 * The pipeline mirrors the paper's methodology (section 5): a binary
 * binned-SAH build (standing in for Embree), collapse to a 4-wide BVH
 * (the branching factor Vulkan-Sim uses via Benthin et al.'s format),
 * treelet partitioning with treelets capped at half the L1 size, and a
 * byte-level layout in which each treelet's nodes and leaf triangle
 * blocks are contiguous (Chou et al. pack treelets in memory; the
 * paper's area analysis in section 6.5 depends on this).
 */

#ifndef TRT_BVH_BVH_HH
#define TRT_BVH_BVH_HH

#include <cstdint>
#include <vector>

#include "geom/aabb.hh"
#include "geom/intersect.hh"
#include "geom/simd.hh"

namespace trt
{

/** Default branching factor of the wide BVH. */
constexpr int kBvhWidth = 4;
/** Maximum supported branching factor (TRT_BVH_WIDTH=8 backend). */
constexpr int kMaxBvhWidth = 8;
/** Bytes one wide node occupies in simulated memory. */
constexpr uint32_t kNodeBytes = 64;
/** Bytes per node with quantized child bounds (Ylitie et al. style
 *  compressed wide BVH, paper section 7.3). */
constexpr uint32_t kCompressedNodeBytes = 32;
/** Bytes per compressed 8-wide node (DESIGN.md §11): 12B origin +
 *  3x1B scale exponents + 1B imask + 4B child base + 4B tri base +
 *  8 x (1B meta + 6B quantized bounds) = 80 — 10B per child vs the
 *  16B per child of the 64B 4-wide layout. */
constexpr uint32_t kCompressedNode8Bytes = 80;
/** Bytes one triangle record occupies in simulated memory. */
constexpr uint32_t kTriBytes = 48;
/** Base simulated address of the BVH allocation. */
constexpr uint64_t kBvhBaseAddr = 0x100000000ull;

/** Sentinel for "no treelet assigned / invalid id". */
constexpr uint32_t kInvalidTreelet = ~0u;
/** Sentinel node index. */
constexpr uint32_t kInvalidNode = ~0u;

/** Build-time parameters. */
struct BvhConfig
{
    /** Leaf size cap. 2 matches the node density of the compressed
     *  4-wide LumiBench BVHs (~100B/triangle overall). */
    int maxLeafTris = 2;
    int sahBins = 16;        //!< Binned-SAH bin count.
    float traversalCost = 1.0f;
    float intersectCost = 1.5f;
    /** Treelet byte cap: half of a 16KB L1 per the paper (section 5). */
    uint32_t treeletMaxBytes = 8 * 1024;
    /**
     * Compressed wide BVH (Ylitie et al., section 7.3): child bounds
     * are quantized to an 8-bit grid anchored at the node's union box
     * (conservatively, so no hit is ever missed) and nodes shrink to
     * kCompressedNodeBytes. Composable with treelet queues — more
     * nodes fit per treelet and per cache line.
     */
    bool quantizedNodes = false;
    /**
     * Branching factor of the built BVH: 4 (the seed greedy collapse,
     * 64B nodes, or 32B with quantizedNodes) or 8 (cost-based DP
     * collapse into kCompressedNode8Bytes quantized nodes — the
     * Ylitie/Karras/Laine compressed wide BVH; width 8 always implies
     * the compressed layout). Selected by TRT_BVH_WIDTH.
     */
    int width = kBvhWidth;
    /**
     * Build threads: 1 = serial, N = exactly N threads, 0 = auto (the
     * TRT_BUILD_THREADS environment variable, else hardware
     * concurrency). The thread count never changes the built BVH — the
     * parallel build is bit-identical to the serial one (same node
     * order, same treelet ids, same layout) — so it is deliberately
     * excluded from fingerprint().
     */
    uint32_t buildThreads = 0;

    /**
     * Hash of every parameter that affects the built BVH (not
     * buildThreads). Folded into the harness's scene-bundle cache key
     * so cached bundles can't go stale when builder parameters change.
     */
    uint64_t fingerprint() const;

    /** Default config with the TRT_BVH_WIDTH env knob applied
     *  (strictly 4 or 8; unset = 4). */
    static BvhConfig fromEnv();
};

/** Resolve a BvhConfig::buildThreads-style knob to a concrete thread
 *  count >= 1 (0 = TRT_BUILD_THREADS env var, else hardware). */
uint32_t resolveBuildThreads(uint32_t requested);

/** One child slot of a wide node. */
struct WideChild
{
    enum Kind : uint8_t { Invalid = 0, Internal = 1, Leaf = 2 };

    Aabb bounds;
    Kind kind = Invalid;
    /** Explicit, zeroed padding: BvhIo and bundle files copy nodes
     *  whole, so no byte may be left uninitialized. */
    uint8_t pad[3] = {};
    uint32_t index = 0;  //!< Node index (Internal) or first triangle (Leaf).
    uint32_t count = 0;  //!< Triangle count (Leaf only).
};
static_assert(sizeof(WideChild) == 36, "WideChild has implicit padding");

/** A wide BVH node: up to kMaxBvhWidth children (slots past the
 *  built width stay Invalid on a 4-wide build). */
struct WideNode
{
    WideChild child[kMaxBvhWidth];

    int
    childCount() const
    {
        int n = 0;
        for (const auto &c : child)
            n += c.kind != WideChild::Invalid ? 1 : 0;
        return n;
    }
};

/** Aggregate statistics about a built BVH. */
struct BvhStats
{
    uint32_t nodeCount = 0;
    uint32_t leafCount = 0;      //!< Leaf child slots.
    uint32_t triCount = 0;
    uint32_t maxDepth = 0;
    double avgLeafTris = 0.0;
    uint64_t totalBytes = 0;     //!< Nodes + triangle records.
    uint32_t treeletCount = 0;
    double avgTreeletBytes = 0.0;
    double avgTreeletNodes = 0.0;
    double avgTreeletDepth = 0.0; //!< Mean node depth within a treelet.
};

/**
 * The built acceleration structure. Immutable after build(); shared by
 * the functional renderer, the analytical model and the timing model.
 */
class Bvh
{
  public:
    /**
     * Build from a triangle soup.
     *
     * @param tris Scene triangles (copied and reordered internally).
     * @param cfg Build parameters.
     */
    static Bvh build(const std::vector<Triangle> &tris,
                     const BvhConfig &cfg = {});

    const std::vector<WideNode> &nodes() const { return nodes_; }
    /** SoA child bounds for the 4-wide intersection kernels
     *  (geom/simd.hh): packedStride() groups of 4 lanes per node, node
     *  n's group g at index n * packedStride() + g (lane k of group g
     *  covers child g*4+k). */
    const std::vector<PackedBounds4> &packedBounds() const
    { return packed_; }
    const std::vector<Triangle> &triangles() const { return tris_; }
    /** Original scene index of reordered triangle @p i. */
    uint32_t originalTriIndex(uint32_t i) const { return triOrig_[i]; }

    uint32_t rootNode() const { return 0; }
    const Aabb &rootBounds() const { return rootBounds_; }

    /** Bytes per node in simulated memory (64, 32 when built with
     *  quantizedNodes, or 80 for the 8-wide compressed layout). */
    uint32_t nodeBytes() const { return nodeBytes_; }
    /** True when built with quantized (compressed) child bounds. */
    bool quantized() const { return nodeBytes_ != kNodeBytes; }
    /** Branching factor this BVH was built with (4 or 8). */
    int width() const { return width_; }
    /** PackedBounds4 groups per node in packedBounds(). */
    uint32_t packedStride() const { return uint32_t(width_) / 4; }

    // --- Treelet structure -------------------------------------------
    /** Number of treelets. */
    uint32_t treeletCount() const { return uint32_t(treeletNodes_.size()); }
    /** Treelet owning node @p node. */
    uint32_t treeletOf(uint32_t node) const { return nodeTreelet_[node]; }
    /** Node count of treelet @p t. */
    uint32_t treeletNodeCount(uint32_t t) const { return treeletNodes_[t]; }
    /** Byte footprint (nodes + leaf blocks) of treelet @p t. */
    uint32_t treeletBytes(uint32_t t) const { return treeletBytes_[t]; }
    /** First simulated byte address of treelet @p t. */
    uint64_t treeletBaseAddr(uint32_t t) const { return treeletAddr_[t]; }
    /** Mean within-treelet node depth of treelet @p t (>= 1). */
    float treeletAvgDepth(uint32_t t) const { return treeletDepth_[t]; }

    // --- Memory layout -----------------------------------------------
    /** Simulated byte address of node @p node. */
    uint64_t nodeAddr(uint32_t node) const { return nodeAddr_[node]; }
    /** Simulated byte address of the triangle block starting at
     *  reordered triangle @p first_tri. */
    uint64_t triBlockAddr(uint32_t first_tri) const
    { return triAddr_[first_tri]; }
    /** Total simulated footprint in bytes. */
    uint64_t totalBytes() const { return totalBytes_; }

    /** Build/treelet statistics. */
    BvhStats stats() const;

    /**
     * Functional closest-hit query (plain depth-first traversal). Used
     * by tests and the fast preview renderer; the timing models use
     * RayTraverser instead but must produce identical hits.
     */
    HitRecord intersectClosest(const Ray &ray) const;

  private:
    friend class BvhBuilder;
    friend struct BvhIo;

    /** (Re)derive packed_ from nodes_ (build tail and BvhIo::load;
     *  the SoA mirror is never serialized). */
    void buildPackedBounds(uint32_t threads);

    std::vector<WideNode> nodes_;
    std::vector<PackedBounds4> packed_;
    std::vector<Triangle> tris_;
    std::vector<uint32_t> triOrig_;
    Aabb rootBounds_;

    std::vector<uint32_t> nodeTreelet_;
    std::vector<uint32_t> treeletNodes_;
    std::vector<uint32_t> treeletBytes_;
    std::vector<uint64_t> treeletAddr_;
    std::vector<float> treeletDepth_;

    std::vector<uint64_t> nodeAddr_;
    std::vector<uint64_t> triAddr_;
    uint64_t totalBytes_ = 0;
    uint32_t nodeBytes_ = kNodeBytes;
    int width_ = kBvhWidth;
};

} // namespace trt

#endif // TRT_BVH_BVH_HH
