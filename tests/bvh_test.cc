/**
 * @file
 * Tests for BVH construction: structural invariants (every triangle
 * referenced exactly once, child bounds contained, depth sane),
 * functional correctness against brute force, treelet partition
 * invariants (byte cap, connectivity, full cover, contiguous layout),
 * and the memory layout.
 */

#include <set>
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "bvh/bvh.hh"
#include "bvh/io.hh"
#include "geom/rng.hh"
#include "scene/registry.hh"

namespace trt
{
/** gtest prints test parameters into test IDs; without this it dumps
 *  BvhConfig's raw bytes, padding included, and the IDs change from
 *  build to build. */
void
PrintTo(const BvhConfig &c, std::ostream *os)
{
    *os << "width" << c.width << (c.quantizedNodes ? "_quant" : "");
}

namespace
{

std::vector<Triangle>
randomTriangles(uint32_t n, uint64_t seed)
{
    Pcg32 rng(seed);
    std::vector<Triangle> tris;
    tris.reserve(n);
    for (uint32_t i = 0; i < n; i++) {
        Vec3 c{rng.nextRange(-10, 10), rng.nextRange(-10, 10),
               rng.nextRange(-10, 10)};
        Triangle t;
        t.v0 = c;
        t.v1 = c + Vec3{rng.nextRange(0.05f, 0.5f), 0, 0};
        t.v2 = c + Vec3{0, rng.nextRange(0.05f, 0.5f),
                        rng.nextRange(-0.2f, 0.2f)};
        t.material = i % 3;
        tris.push_back(t);
    }
    return tris;
}

HitRecord
bruteForce(const std::vector<Triangle> &tris, const Ray &ray)
{
    HitRecord best;
    Ray r = ray;
    for (uint32_t i = 0; i < tris.size(); i++) {
        float t, u, v;
        if (intersectTriangle(r, tris[i], t, u, v)) {
            best.t = t;
            best.u = u;
            best.v = v;
            best.triIndex = i;
            r.tmax = t;
        }
    }
    return best;
}

TEST(BvhBuild, EmptyScene)
{
    Bvh bvh = Bvh::build({});
    EXPECT_EQ(bvh.triangles().size(), 0u);
    EXPECT_GE(bvh.nodes().size(), 1u);
    Ray r({0, 0, -5}, {0, 0, 1});
    EXPECT_FALSE(bvh.intersectClosest(r).hit());
}

TEST(BvhBuild, SingleTriangle)
{
    std::vector<Triangle> tris = {{{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}, 0}};
    Bvh bvh = Bvh::build(tris);
    EXPECT_EQ(bvh.triangles().size(), 1u);
    Ray r({0, 0, -5}, {0, 0, 1});
    HitRecord h = bvh.intersectClosest(r);
    ASSERT_TRUE(h.hit());
    EXPECT_NEAR(h.t, 5.0f, 1e-4f);
}

TEST(BvhBuild, EveryTriangleReferencedExactlyOnce)
{
    auto tris = randomTriangles(500, 42);
    Bvh bvh = Bvh::build(tris);

    std::vector<int> refs(tris.size(), 0);
    for (const auto &n : bvh.nodes()) {
        for (const auto &c : n.child) {
            if (c.kind != WideChild::Leaf)
                continue;
            for (uint32_t k = 0; k < c.count; k++)
                refs[bvh.originalTriIndex(c.index + k)]++;
        }
    }
    for (size_t i = 0; i < refs.size(); i++)
        EXPECT_EQ(refs[i], 1) << "triangle " << i;
}

TEST(BvhBuild, ChildBoundsContainGeometry)
{
    auto tris = randomTriangles(300, 7);
    Bvh bvh = Bvh::build(tris);

    // Leaf child bounds must contain their triangles; internal child
    // bounds must contain the union of the child node's own children.
    for (const auto &n : bvh.nodes()) {
        for (const auto &c : n.child) {
            if (c.kind == WideChild::Leaf) {
                Aabb geo;
                for (uint32_t k = 0; k < c.count; k++)
                    geo.grow(bvh.triangles()[c.index + k].bounds());
                // Allow epsilon slack for float round-trips.
                Aabb grown = c.bounds;
                grown.lo -= Vec3{1e-4f, 1e-4f, 1e-4f};
                grown.hi += Vec3{1e-4f, 1e-4f, 1e-4f};
                EXPECT_TRUE(grown.contains(geo));
            } else if (c.kind == WideChild::Internal) {
                Aabb sub;
                for (const auto &gc : bvh.nodes()[c.index].child)
                    if (gc.kind != WideChild::Invalid)
                        sub.grow(gc.bounds);
                Aabb grown = c.bounds;
                grown.lo -= Vec3{1e-4f, 1e-4f, 1e-4f};
                grown.hi += Vec3{1e-4f, 1e-4f, 1e-4f};
                EXPECT_TRUE(grown.contains(sub));
            }
        }
    }
}

TEST(BvhBuild, LeafSizeRespected)
{
    BvhConfig cfg;
    cfg.maxLeafTris = 3;
    auto tris = randomTriangles(400, 13);
    Bvh bvh = Bvh::build(tris, cfg);
    for (const auto &n : bvh.nodes())
        for (const auto &c : n.child)
            if (c.kind == WideChild::Leaf) {
                EXPECT_LE(c.count, 3u);
            }
}

TEST(BvhBuild, WideNodesHaveAtMostFourChildren)
{
    auto tris = randomTriangles(600, 99);
    Bvh bvh = Bvh::build(tris);
    uint64_t total_children = 0;
    for (const auto &n : bvh.nodes()) {
        EXPECT_LE(n.childCount(), kBvhWidth);
        total_children += uint32_t(n.childCount());
    }
    // A healthy collapse averages close to 4 children per node.
    EXPECT_GT(double(total_children) / double(bvh.nodes().size()), 2.5);
}

TEST(BvhBuild, DegenerateIdenticalCentroids)
{
    // 100 triangles stacked at the same place: the builder must still
    // terminate and produce valid leaves (median fallback).
    std::vector<Triangle> tris(
        100, Triangle{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0});
    Bvh bvh = Bvh::build(tris);
    EXPECT_EQ(bvh.triangles().size(), 100u);
    Ray r({0.2f, 0.2f, -5}, {0, 0, 1});
    EXPECT_TRUE(bvh.intersectClosest(r).hit());
}

class TraversalCorrectness
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>>
{
};

TEST_P(TraversalCorrectness, MatchesBruteForce)
{
    auto [count, seed] = GetParam();
    auto tris = randomTriangles(count, seed);
    Bvh bvh = Bvh::build(tris);

    Pcg32 rng(seed ^ 0xabcdef);
    for (int i = 0; i < 200; i++) {
        Ray r({rng.nextRange(-12, 12), rng.nextRange(-12, 12),
               rng.nextRange(-12, 12)},
              normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                             rng.nextRange(-1, 1)}));
        HitRecord a = bvh.intersectClosest(r);
        HitRecord b = bruteForce(tris, r);
        ASSERT_EQ(a.hit(), b.hit()) << "ray " << i;
        if (a.hit()) {
            ASSERT_FLOAT_EQ(a.t, b.t) << "ray " << i;
            ASSERT_EQ(bvh.originalTriIndex(a.triIndex), b.triIndex)
                << "ray " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TraversalCorrectness,
    ::testing::Values(std::make_tuple(1u, 1ull), std::make_tuple(5u, 2ull),
                      std::make_tuple(33u, 3ull),
                      std::make_tuple(200u, 4ull),
                      std::make_tuple(1000u, 5ull)));

TEST(Treelets, ByteCapRespected)
{
    auto tris = randomTriangles(2000, 21);
    BvhConfig cfg;
    cfg.treeletMaxBytes = 1024;
    Bvh bvh = Bvh::build(tris, cfg);

    for (uint32_t t = 0; t < bvh.treeletCount(); t++) {
        // A treelet may exceed the cap only if it is a single node
        // whose own footprint is larger than the cap.
        if (bvh.treeletNodeCount(t) > 1) {
            EXPECT_LE(bvh.treeletBytes(t), cfg.treeletMaxBytes)
                << "treelet " << t;
        }
    }
}

TEST(Treelets, EveryNodeAssigned)
{
    auto tris = randomTriangles(1500, 33);
    Bvh bvh = Bvh::build(tris);
    std::vector<uint32_t> counts(bvh.treeletCount(), 0);
    for (uint32_t n = 0; n < bvh.nodes().size(); n++) {
        uint32_t t = bvh.treeletOf(n);
        ASSERT_LT(t, bvh.treeletCount());
        counts[t]++;
    }
    uint64_t sum = 0;
    for (uint32_t t = 0; t < bvh.treeletCount(); t++) {
        EXPECT_EQ(counts[t], bvh.treeletNodeCount(t));
        sum += counts[t];
    }
    EXPECT_EQ(sum, bvh.nodes().size());
}

TEST(Treelets, Connectivity)
{
    // Within a treelet, every node except one entry point has its
    // parent in the same treelet.
    auto tris = randomTriangles(1500, 55);
    BvhConfig cfg;
    cfg.treeletMaxBytes = 2048;
    Bvh bvh = Bvh::build(tris, cfg);

    std::vector<uint32_t> parent(bvh.nodes().size(), kInvalidNode);
    for (uint32_t n = 0; n < bvh.nodes().size(); n++)
        for (const auto &c : bvh.nodes()[n].child)
            if (c.kind == WideChild::Internal)
                parent[c.index] = n;

    std::vector<uint32_t> entries(bvh.treeletCount(), 0);
    for (uint32_t n = 0; n < bvh.nodes().size(); n++) {
        uint32_t t = bvh.treeletOf(n);
        bool entry = parent[n] == kInvalidNode ||
                     bvh.treeletOf(parent[n]) != t;
        entries[t] += entry ? 1 : 0;
    }
    for (uint32_t t = 0; t < bvh.treeletCount(); t++)
        EXPECT_EQ(entries[t], 1u) << "treelet " << t;
}

TEST(Treelets, ContiguousLayout)
{
    auto tris = randomTriangles(1200, 77);
    Bvh bvh = Bvh::build(tris);

    for (uint32_t t = 0; t < bvh.treeletCount(); t++) {
        uint64_t base = bvh.treeletBaseAddr(t);
        uint64_t end = base + bvh.treeletBytes(t);
        // Treelets tile the address space in order.
        if (t + 1 < bvh.treeletCount()) {
            EXPECT_EQ(end, bvh.treeletBaseAddr(t + 1));
        }
    }
    // Every node's address lies inside its treelet's range.
    for (uint32_t n = 0; n < bvh.nodes().size(); n++) {
        uint32_t t = bvh.treeletOf(n);
        EXPECT_GE(bvh.nodeAddr(n), bvh.treeletBaseAddr(t));
        EXPECT_LT(bvh.nodeAddr(n) + kNodeBytes,
                  bvh.treeletBaseAddr(t) + bvh.treeletBytes(t) + 1);
    }
}

TEST(Treelets, LeafBlocksInOwnersTreelet)
{
    auto tris = randomTriangles(900, 88);
    Bvh bvh = Bvh::build(tris);
    for (uint32_t n = 0; n < bvh.nodes().size(); n++) {
        uint32_t t = bvh.treeletOf(n);
        for (const auto &c : bvh.nodes()[n].child) {
            if (c.kind != WideChild::Leaf)
                continue;
            uint64_t addr = bvh.triBlockAddr(c.index);
            EXPECT_GE(addr, bvh.treeletBaseAddr(t));
            EXPECT_LE(addr + uint64_t(c.count) * kTriBytes,
                      bvh.treeletBaseAddr(t) + bvh.treeletBytes(t));
        }
    }
}

TEST(Layout, AddressesUniqueAndSized)
{
    auto tris = randomTriangles(800, 111);
    Bvh bvh = Bvh::build(tris);

    // Node addresses are unique and non-overlapping. (They are byte-
    // granular, not 64B-aligned: triangle blocks are interleaved
    // between treelets.)
    std::set<uint64_t> addrs;
    for (uint32_t n = 0; n < bvh.nodes().size(); n++)
        EXPECT_TRUE(addrs.insert(bvh.nodeAddr(n)).second);
    uint64_t expected =
        uint64_t(bvh.nodes().size()) * kNodeBytes +
        uint64_t(bvh.triangles().size()) * kTriBytes;
    EXPECT_EQ(bvh.totalBytes(), expected);
}

TEST(Stats, Consistency)
{
    auto tris = randomTriangles(700, 123);
    Bvh bvh = Bvh::build(tris);
    BvhStats st = bvh.stats();
    EXPECT_EQ(st.triCount, 700u);
    EXPECT_EQ(st.nodeCount, uint32_t(bvh.nodes().size()));
    EXPECT_EQ(st.treeletCount, bvh.treeletCount());
    EXPECT_GT(st.maxDepth, 2u);
    EXPECT_GT(st.avgLeafTris, 0.0);
    EXPECT_LE(st.avgLeafTris, double(BvhConfig{}.maxLeafTris));
    EXPECT_GT(st.avgTreeletDepth, 0.9);
    EXPECT_EQ(st.totalBytes, bvh.totalBytes());
}

TEST(CompressedBvh, QuantizedBoundsContainExactOnes)
{
    auto tris = randomTriangles(800, 202);
    Bvh exact = Bvh::build(tris);
    BvhConfig qc;
    qc.quantizedNodes = true;
    Bvh quant = Bvh::build(tris, qc);

    // Same topology: node count and child kinds match; quantized child
    // boxes contain the exact ones.
    ASSERT_EQ(exact.nodes().size(), quant.nodes().size());
    for (size_t n = 0; n < exact.nodes().size(); n++) {
        for (int s = 0; s < kBvhWidth; s++) {
            const WideChild &e = exact.nodes()[n].child[s];
            const WideChild &q = quant.nodes()[n].child[s];
            ASSERT_EQ(e.kind, q.kind);
            if (e.kind == WideChild::Invalid)
                continue;
            EXPECT_TRUE(q.bounds.contains(e.bounds))
                << "node " << n << " slot " << s;
        }
    }
}

TEST(CompressedBvh, HalvesNodeFootprint)
{
    auto tris = randomTriangles(1000, 203);
    Bvh exact = Bvh::build(tris);
    BvhConfig qc;
    qc.quantizedNodes = true;
    Bvh quant = Bvh::build(tris, qc);

    EXPECT_EQ(exact.nodeBytes(), kNodeBytes);
    EXPECT_EQ(quant.nodeBytes(), kCompressedNodeBytes);
    EXPECT_TRUE(quant.quantized());
    EXPECT_LT(quant.totalBytes(), exact.totalBytes());
    // Treelet counts stay in the same regime (the cap is byte-based
    // and leaf triangle blocks dominate treelet footprints, so exact
    // counts may differ slightly in either direction).
    EXPECT_NEAR(double(quant.treeletCount()),
                double(exact.treeletCount()),
                0.15 * double(exact.treeletCount()));
}

TEST(CompressedBvh, ClosestHitsIdentical)
{
    // Conservative quantization may add node visits but can never
    // change the closest hit.
    auto tris = randomTriangles(600, 204);
    Bvh exact = Bvh::build(tris);
    BvhConfig qc;
    qc.quantizedNodes = true;
    Bvh quant = Bvh::build(tris, qc);

    Pcg32 rng(205);
    for (int i = 0; i < 300; i++) {
        Ray r({rng.nextRange(-12, 12), rng.nextRange(-12, 12),
               rng.nextRange(-12, 12)},
              normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                             rng.nextRange(-1, 1)}));
        HitRecord a = exact.intersectClosest(r);
        HitRecord b = quant.intersectClosest(r);
        ASSERT_EQ(a.hit(), b.hit()) << "ray " << i;
        if (a.hit()) {
            ASSERT_FLOAT_EQ(a.t, b.t);
            ASSERT_EQ(exact.originalTriIndex(a.triIndex),
                      quant.originalTriIndex(b.triIndex));
        }
    }
}

/**
 * Field-wise equality of two built BVHs (node array, triangle order,
 * treelet assignment, byte layout). Field-wise rather than memcmp so
 * uninitialized struct padding can't cause false mismatches.
 */
void
expectBvhIdentical(const Bvh &a, const Bvh &b)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    for (size_t n = 0; n < a.nodes().size(); n++) {
        const WideNode &na = a.nodes()[n];
        const WideNode &nb = b.nodes()[n];
        for (int c = 0; c < kMaxBvhWidth; c++) {
            ASSERT_EQ(na.child[c].kind, nb.child[c].kind)
                << "node " << n << " child " << c;
            ASSERT_EQ(na.child[c].index, nb.child[c].index)
                << "node " << n << " child " << c;
            ASSERT_EQ(na.child[c].count, nb.child[c].count)
                << "node " << n << " child " << c;
            ASSERT_TRUE(na.child[c].bounds.lo == nb.child[c].bounds.lo &&
                        na.child[c].bounds.hi == nb.child[c].bounds.hi)
                << "node " << n << " child " << c << " bounds";
        }
    }

    ASSERT_EQ(a.triangles().size(), b.triangles().size());
    for (uint32_t i = 0; i < a.triangles().size(); i++) {
        ASSERT_EQ(a.originalTriIndex(i), b.originalTriIndex(i))
            << "triangle permutation diverges at " << i;
        ASSERT_EQ(a.triBlockAddr(i), b.triBlockAddr(i)) << "tri addr " << i;
    }

    ASSERT_EQ(a.treeletCount(), b.treeletCount());
    for (uint32_t n = 0; n < a.nodes().size(); n++) {
        ASSERT_EQ(a.treeletOf(n), b.treeletOf(n)) << "node " << n;
        ASSERT_EQ(a.nodeAddr(n), b.nodeAddr(n)) << "node " << n;
    }
    for (uint32_t t = 0; t < a.treeletCount(); t++) {
        ASSERT_EQ(a.treeletNodeCount(t), b.treeletNodeCount(t)) << "tl " << t;
        ASSERT_EQ(a.treeletBytes(t), b.treeletBytes(t)) << "tl " << t;
        ASSERT_EQ(a.treeletBaseAddr(t), b.treeletBaseAddr(t)) << "tl " << t;
        ASSERT_FLOAT_EQ(a.treeletAvgDepth(t), b.treeletAvgDepth(t))
            << "tl " << t;
    }
    ASSERT_EQ(a.totalBytes(), b.totalBytes());
    ASSERT_EQ(a.nodeBytes(), b.nodeBytes());
    ASSERT_TRUE(a.rootBounds().lo == b.rootBounds().lo &&
                a.rootBounds().hi == b.rootBounds().hi);
}

TEST(ParallelBuild, BitIdenticalToSerialOnRegistryScenes)
{
    // ISSUE acceptance: parallel build (8 threads) must be bit-identical
    // to the serial build — same node order, same treelet ids, same
    // layout — on at least 3 registry scenes.
    for (const char *name : {"BUNNY", "CRNVL", "PARTY"}) {
        Scene s = buildScene(name, 0.25f);
        // Ensure the scene is large enough to engage the parallel path.
        ASSERT_GT(s.triangles.size(), 4096u) << name;
        BvhConfig serial;
        serial.buildThreads = 1;
        BvhConfig parallel;
        parallel.buildThreads = 8;
        Bvh a = Bvh::build(s.triangles, serial);
        Bvh b = Bvh::build(s.triangles, parallel);
        SCOPED_TRACE(name);
        expectBvhIdentical(a, b);
    }
}

TEST(ParallelBuild, BitIdenticalAcrossThreadCounts)
{
    std::vector<Triangle> tris = randomTriangles(20000, 99);
    BvhConfig serial;
    serial.buildThreads = 1;
    Bvh ref = Bvh::build(tris, serial);
    for (uint32_t threads : {2u, 3u, 8u, 16u}) {
        BvhConfig cfg;
        cfg.buildThreads = threads;
        Bvh par = Bvh::build(tris, cfg);
        SCOPED_TRACE(threads);
        expectBvhIdentical(ref, par);
    }
}

TEST(ParallelBuild, BitIdenticalWithQuantizedNodes)
{
    std::vector<Triangle> tris = randomTriangles(16000, 7);
    BvhConfig serial;
    serial.buildThreads = 1;
    serial.quantizedNodes = true;
    BvhConfig parallel = serial;
    parallel.buildThreads = 8;
    expectBvhIdentical(Bvh::build(tris, serial), Bvh::build(tris, parallel));
}

TEST(ParallelBuild, SmallInputsUseAnyThreadCount)
{
    // Tiny scenes fall back to the serial path regardless of the knob;
    // the result must still be well-formed and identical.
    std::vector<Triangle> tris = randomTriangles(37, 3);
    BvhConfig serial;
    serial.buildThreads = 1;
    BvhConfig parallel;
    parallel.buildThreads = 8;
    expectBvhIdentical(Bvh::build(tris, serial), Bvh::build(tris, parallel));
}

TEST(BvhConfigFingerprint, SensitiveToBuildParamsNotThreads)
{
    BvhConfig base;
    uint64_t fp = base.fingerprint();

    BvhConfig threads = base;
    threads.buildThreads = 8;
    EXPECT_EQ(fp, threads.fingerprint())
        << "buildThreads must not affect the fingerprint";

    BvhConfig leaf = base;
    leaf.maxLeafTris = 4;
    EXPECT_NE(fp, leaf.fingerprint());

    BvhConfig cap = base;
    cap.treeletMaxBytes = 16 * 1024;
    EXPECT_NE(fp, cap.fingerprint());

    BvhConfig quant = base;
    quant.quantizedNodes = true;
    EXPECT_NE(fp, quant.fingerprint());
}

TEST(Stats, SahQualitySane)
{
    // The SAH build should visit far fewer nodes than a degenerate
    // chain would: probe average traversal depth via closest hit.
    Scene s = buildScene("BUNNY", 0.05f);
    Bvh bvh = Bvh::build(s.triangles);
    BvhStats st = bvh.stats();
    double log4 = std::log(double(st.triCount)) / std::log(4.0);
    EXPECT_LT(double(st.maxDepth), 4.0 * log4);
}

BvhConfig
wide8Config()
{
    BvhConfig cfg;
    cfg.width = 8;
    return cfg;
}

TEST(Wide8, LayoutAndFootprint)
{
    auto tris = randomTriangles(1000, 301);
    Bvh four = Bvh::build(tris);
    Bvh eight = Bvh::build(tris, wide8Config());

    EXPECT_EQ(eight.width(), kMaxBvhWidth);
    EXPECT_EQ(eight.nodeBytes(), kCompressedNode8Bytes);
    EXPECT_TRUE(eight.quantized());
    EXPECT_EQ(eight.packedStride(), 2u);
    for (const auto &n : eight.nodes())
        EXPECT_LE(n.childCount(), kMaxBvhWidth);
    // Doubling the arity should remove a large fraction of the
    // internal nodes and shrink the node array's byte footprint even
    // though individual nodes grow from 64B to 80B.
    EXPECT_LT(eight.nodes().size(), four.nodes().size());
    EXPECT_LT(eight.nodes().size() * kCompressedNode8Bytes,
              four.nodes().size() * kNodeBytes);
    EXPECT_LT(eight.totalBytes(), four.totalBytes());
}

TEST(Wide8, EveryTriangleReferencedExactlyOnce)
{
    auto tris = randomTriangles(700, 302);
    Bvh bvh = Bvh::build(tris, wide8Config());
    std::vector<int> refs(tris.size(), 0);
    for (const auto &n : bvh.nodes()) {
        for (const auto &c : n.child) {
            if (c.kind != WideChild::Leaf)
                continue;
            for (uint32_t k = 0; k < c.count; k++)
                refs[bvh.originalTriIndex(c.index + k)]++;
        }
    }
    for (size_t i = 0; i < refs.size(); i++)
        EXPECT_EQ(refs[i], 1) << "triangle " << i;
}

/** Exact AABB of all geometry in the subtree rooted at @p node. */
Aabb
subtreeGeoBounds(const Bvh &bvh, uint32_t node)
{
    Aabb geo;
    for (const auto &c : bvh.nodes()[node].child) {
        if (c.kind == WideChild::Leaf) {
            for (uint32_t k = 0; k < c.count; k++)
                geo.grow(bvh.triangles()[c.index + k].bounds());
        } else if (c.kind == WideChild::Internal) {
            geo.grow(subtreeGeoBounds(bvh, c.index));
        }
    }
    return geo;
}

TEST(Wide8, QuantizedBoundsContainGeometry)
{
    // The dequantized child boxes must conservatively contain the
    // *exact geometry* below them — that is the invariant that makes
    // the compressed layout hit-identical. (Sibling quantized boxes
    // need not nest: a grandchild's own inflated box may poke outside
    // the parent's inflated box without affecting any hit.)
    auto tris = randomTriangles(500, 303);
    Bvh bvh = Bvh::build(tris, wide8Config());
    for (const auto &n : bvh.nodes()) {
        for (const auto &c : n.child) {
            if (c.kind == WideChild::Leaf) {
                Aabb geo;
                for (uint32_t k = 0; k < c.count; k++)
                    geo.grow(bvh.triangles()[c.index + k].bounds());
                EXPECT_TRUE(c.bounds.contains(geo));
            } else if (c.kind == WideChild::Internal) {
                EXPECT_TRUE(
                    c.bounds.contains(subtreeGeoBounds(bvh, c.index)));
            }
        }
    }
}

TEST(Wide8, MatchesBruteForce)
{
    for (uint32_t count : {1u, 7u, 64u, 800u}) {
        auto tris = randomTriangles(count, 304 + count);
        Bvh bvh = Bvh::build(tris, wide8Config());
        Pcg32 rng(count ^ 0x8888);
        for (int i = 0; i < 150; i++) {
            Ray r({rng.nextRange(-12, 12), rng.nextRange(-12, 12),
                   rng.nextRange(-12, 12)},
                  normalize(Vec3{rng.nextRange(-1, 1),
                                 rng.nextRange(-1, 1),
                                 rng.nextRange(-1, 1)}));
            HitRecord a = bvh.intersectClosest(r);
            HitRecord b = bruteForce(tris, r);
            ASSERT_EQ(a.hit(), b.hit()) << count << " tris, ray " << i;
            if (a.hit()) {
                ASSERT_FLOAT_EQ(a.t, b.t);
                ASSERT_EQ(bvh.originalTriIndex(a.triIndex), b.triIndex);
            }
        }
    }
}

TEST(Wide8, ClosestHitsIdenticalToWidth4)
{
    // The 8-wide collapse regroups the same binary SAH tree, and the
    // conservative quantization only admits extra node entries — the
    // closest hit must match the 4-wide build exactly.
    auto tris = randomTriangles(900, 305);
    Bvh four = Bvh::build(tris);
    Bvh eight = Bvh::build(tris, wide8Config());
    Pcg32 rng(306);
    for (int i = 0; i < 300; i++) {
        Ray r({rng.nextRange(-12, 12), rng.nextRange(-12, 12),
               rng.nextRange(-12, 12)},
              normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                             rng.nextRange(-1, 1)}));
        HitRecord a = four.intersectClosest(r);
        HitRecord b = eight.intersectClosest(r);
        ASSERT_EQ(a.hit(), b.hit()) << "ray " << i;
        if (a.hit()) {
            ASSERT_FLOAT_EQ(a.t, b.t);
            ASSERT_EQ(four.originalTriIndex(a.triIndex),
                      eight.originalTriIndex(b.triIndex));
        }
    }
}

TEST(Wide8, TreeletInvariantsHold)
{
    auto tris = randomTriangles(1500, 307);
    BvhConfig cfg = wide8Config();
    cfg.treeletMaxBytes = 2048;
    Bvh bvh = Bvh::build(tris, cfg);
    // Byte cap in *compressed* bytes; every node assigned.
    uint64_t sum = 0;
    for (uint32_t t = 0; t < bvh.treeletCount(); t++) {
        if (bvh.treeletNodeCount(t) > 1) {
            EXPECT_LE(bvh.treeletBytes(t), cfg.treeletMaxBytes);
        }
        sum += bvh.treeletNodeCount(t);
    }
    EXPECT_EQ(sum, bvh.nodes().size());
    uint64_t expected =
        uint64_t(bvh.nodes().size()) * kCompressedNode8Bytes +
        uint64_t(bvh.triangles().size()) * kTriBytes;
    EXPECT_EQ(bvh.totalBytes(), expected);
}

class BuilderEdgeCases : public ::testing::TestWithParam<int>
{
protected:
    BvhConfig
    cfg() const
    {
        BvhConfig c;
        c.width = GetParam();
        return c;
    }
};

TEST_P(BuilderEdgeCases, EmptyScene)
{
    Bvh bvh = Bvh::build({}, cfg());
    EXPECT_EQ(bvh.triangles().size(), 0u);
    EXPECT_GE(bvh.nodes().size(), 1u);
    Ray r({0, 0, -5}, {0, 0, 1});
    EXPECT_FALSE(bvh.intersectClosest(r).hit());
}

TEST_P(BuilderEdgeCases, SingleTriangle)
{
    std::vector<Triangle> tris = {{{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}, 0}};
    Bvh bvh = Bvh::build(tris, cfg());
    ASSERT_EQ(bvh.triangles().size(), 1u);
    Ray r({0, 0, -5}, {0, 0, 1});
    HitRecord h = bvh.intersectClosest(r);
    ASSERT_TRUE(h.hit());
    EXPECT_NEAR(h.t, 5.0f, 1e-4f);
}

TEST_P(BuilderEdgeCases, AllDegenerateAabbs)
{
    // Point triangles: every primitive AABB has zero extent, so the
    // quantizer sees flat axes everywhere and the splitter has no
    // spatial signal at all. The build must still terminate with
    // every triangle referenced once.
    std::vector<Triangle> tris(
        64, Triangle{{2, 3, 4}, {2, 3, 4}, {2, 3, 4}, 0});
    Bvh bvh = Bvh::build(tris, cfg());
    EXPECT_EQ(bvh.triangles().size(), 64u);
    std::vector<int> refs(tris.size(), 0);
    for (const auto &n : bvh.nodes())
        for (const auto &c : n.child)
            if (c.kind == WideChild::Leaf)
                for (uint32_t k = 0; k < c.count; k++)
                    refs[bvh.originalTriIndex(c.index + k)]++;
    for (size_t i = 0; i < refs.size(); i++)
        EXPECT_EQ(refs[i], 1) << "triangle " << i;
}

TEST_P(BuilderEdgeCases, LeafOnlyTree)
{
    // Fewer triangles than one leaf holds: the whole tree is a single
    // root with one leaf child.
    auto tris = randomTriangles(3, 308);
    Bvh bvh = Bvh::build(tris, cfg());
    EXPECT_EQ(bvh.nodes().size(), 1u);
    Pcg32 rng(309);
    for (int i = 0; i < 50; i++) {
        Ray r({rng.nextRange(-12, 12), rng.nextRange(-12, 12),
               rng.nextRange(-12, 12)},
              normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                             rng.nextRange(-1, 1)}));
        HitRecord a = bvh.intersectClosest(r);
        HitRecord b = bruteForce(tris, r);
        ASSERT_EQ(a.hit(), b.hit());
        if (a.hit()) {
            ASSERT_FLOAT_EQ(a.t, b.t);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothWidths, BuilderEdgeCases,
                         ::testing::Values(4, 8),
                         [](const auto &info) {
                             return "width" + std::to_string(info.param);
                         });

TEST(ParallelBuild, BitIdenticalAtWidth8)
{
    // The wave-parallel DP collapse must give the same 8-wide tree at
    // any thread count.
    std::vector<Triangle> tris = randomTriangles(20000, 310);
    BvhConfig serial = wide8Config();
    serial.buildThreads = 1;
    Bvh ref = Bvh::build(tris, serial);
    for (uint32_t threads : {2u, 8u, 16u}) {
        BvhConfig cfg = wide8Config();
        cfg.buildThreads = threads;
        SCOPED_TRACE(threads);
        expectBvhIdentical(ref, Bvh::build(tris, cfg));
    }
}

TEST(BvhConfigFingerprint, SensitiveToWidth)
{
    BvhConfig base;
    EXPECT_NE(base.fingerprint(), wide8Config().fingerprint())
        << "width must key the bundle/run caches";
}

class BvhIoRoundTrip : public ::testing::TestWithParam<BvhConfig>
{
};

TEST_P(BvhIoRoundTrip, Identical)
{
    auto tris = randomTriangles(1200, 311);
    Bvh orig = Bvh::build(tris, GetParam());
    std::stringstream ss;
    BvhIo::save(ss, orig);
    Bvh loaded;
    ASSERT_TRUE(BvhIo::load(ss, loaded));
    expectBvhIdentical(orig, loaded);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, BvhIoRoundTrip,
    ::testing::Values(BvhConfig{},
                      [] {
                          BvhConfig c;
                          c.quantizedNodes = true;
                          return c;
                      }(),
                      wide8Config()),
    [](const auto &info) {
        return info.param.width == 8     ? std::string("width8")
               : info.param.quantizedNodes ? std::string("width4_quant")
                                           : std::string("width4");
    });

TEST(BvhIoReject, CorruptedHeader)
{
    auto tris = randomTriangles(100, 312);
    Bvh orig = Bvh::build(tris, wide8Config());
    std::stringstream good;
    BvhIo::save(good, orig);
    const std::string bytes = good.str();

    // Flipping any header field (magic @0, version @4, width @8,
    // nodeBytes @12) must make load() fail before touching the vectors.
    for (size_t off : {size_t(0), size_t(4), size_t(8), size_t(12)}) {
        std::string bad = bytes;
        bad[off] ^= 0x5a;
        std::stringstream ss(bad);
        Bvh out;
        EXPECT_FALSE(BvhIo::load(ss, out)) << "offset " << off;
    }

    // A truncated stream must fail, not produce a partial BVH.
    std::stringstream trunc(bytes.substr(0, bytes.size() / 2));
    Bvh out;
    EXPECT_FALSE(BvhIo::load(trunc, out));

    // Sanity: the untampered bytes still load.
    std::stringstream ok(bytes);
    Bvh fine;
    EXPECT_TRUE(BvhIo::load(ok, fine));
}

} // anonymous namespace
} // namespace trt
