#include "bvh/io.hh"

#include <algorithm>
#include <cstdint>

#include "snapshot/serializer.hh"

namespace trt
{

namespace
{

/** Stream magic/version: load() rejects anything else up front, so a
 *  truncated or stale cache file can never deserialize into garbage
 *  vectors. v2: explicit header + BVH width (8-wide backend). */
constexpr uint32_t kBvhIoMagic = 0x54425648u; // 'TBVH'
constexpr uint32_t kBvhIoVersion = 2;

} // anonymous namespace

void
BvhIo::save(std::ostream &os, const Bvh &bvh)
{
    Serializer s(os);
    s.u32(kBvhIoMagic);
    s.u32(kBvhIoVersion);
    s.pod(int32_t(bvh.width_));
    s.u32(bvh.nodeBytes_);
    s.vecPod(bvh.nodes_);
    s.vecPod(bvh.tris_);
    s.vecPod(bvh.triOrig_);
    s.pod(bvh.rootBounds_);
    s.vecPod(bvh.nodeTreelet_);
    s.vecPod(bvh.treeletNodes_);
    s.vecPod(bvh.treeletBytes_);
    s.vecPod(bvh.treeletAddr_);
    s.vecPod(bvh.treeletDepth_);
    s.vecPod(bvh.nodeAddr_);
    s.vecPod(bvh.triAddr_);
    s.u64(bvh.totalBytes_);
}

bool
BvhIo::load(std::istream &is, Bvh &bvh)
{
    Deserializer d(is);
    try {
        if (d.u32() != kBvhIoMagic || d.u32() != kBvhIoVersion)
            return false;
        int32_t width = d.pod<int32_t>();
        uint32_t node_bytes = d.u32();
        if ((width != kBvhWidth && width != kMaxBvhWidth) ||
            (node_bytes != kNodeBytes && node_bytes != kCompressedNodeBytes &&
             node_bytes != kCompressedNode8Bytes))
            return false;
        bvh.width_ = width;
        bvh.nodeBytes_ = node_bytes;
        bvh.nodes_ = d.vecPod<WideNode>();
        bvh.tris_ = d.vecPod<Triangle>();
        bvh.triOrig_ = d.vecPod<uint32_t>();
        bvh.rootBounds_ = d.pod<Aabb>();
        bvh.nodeTreelet_ = d.vecPod<uint32_t>();
        bvh.treeletNodes_ = d.vecPod<uint32_t>();
        bvh.treeletBytes_ = d.vecPod<uint32_t>();
        bvh.treeletAddr_ = d.vecPod<uint64_t>();
        bvh.treeletDepth_ = d.vecPod<float>();
        bvh.nodeAddr_ = d.vecPod<uint64_t>();
        bvh.triAddr_ = d.vecPod<uint64_t>();
        bvh.totalBytes_ = d.u64();
    } catch (const SnapshotError &) {
        return false;
    }
    if (!consistent(bvh))
        return false;
    // The SoA kernel mirror is derived, not serialized.
    bvh.buildPackedBounds(1);
    return true;
}

bool
BvhIo::consistent(const Bvh &bvh)
{
    const size_t nodes = bvh.nodes_.size();
    const size_t tris = bvh.tris_.size();
    const size_t treelets = bvh.treeletNodes_.size();
    if (nodes == 0 || bvh.triOrig_.size() != tris ||
        bvh.nodeTreelet_.size() != nodes || bvh.nodeAddr_.size() != nodes ||
        bvh.treeletBytes_.size() != treelets ||
        bvh.treeletAddr_.size() != treelets ||
        bvh.treeletDepth_.size() != treelets ||
        bvh.triAddr_.size() != std::max<size_t>(1, tris))
        return false;
    for (uint32_t t : bvh.triOrig_)
        if (t >= tris)
            return false;
    for (uint32_t t : bvh.nodeTreelet_)
        if (t >= treelets)
            return false;
    // Internal children lie after their parent, so no walk can cycle.
    for (size_t n = 0; n < nodes; n++) {
        for (const WideChild &c : bvh.nodes_[n].child) {
            bool ok = c.kind == WideChild::Invalid ||
                      (c.kind == WideChild::Internal && c.index > n &&
                       c.index < nodes) ||
                      (c.kind == WideChild::Leaf && c.index <= tris &&
                       c.count <= tris - c.index);
            if (!ok)
                return false;
        }
    }
    return true;
}

} // namespace trt
