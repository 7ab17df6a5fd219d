/**
 * @file
 * Tests for the stepwise dual-stack RayTraverser: equivalence with the
 * plain traversal, the boundary/park protocol the RT units rely on,
 * access descriptors, and work counters.
 */

#include <gtest/gtest.h>

#include "bvh/traverser.hh"
#include "geom/rng.hh"
#include "scene/registry.hh"

namespace trt
{
namespace
{

struct Fixture
{
    Scene scene;
    Bvh bvh;

    explicit Fixture(uint32_t treelet_bytes = 1024, int width = 4)
    {
        scene = buildScene("CRNVL", 0.05f);
        BvhConfig cfg;
        cfg.treeletMaxBytes = treelet_bytes;
        cfg.width = width;
        bvh = Bvh::build(scene.triangles, cfg);
    }
};

Ray
randomRay(Pcg32 &rng, const Aabb &b)
{
    Vec3 e = b.extent();
    Vec3 o{b.lo.x + e.x * rng.nextFloat(), b.lo.y + e.y * rng.nextFloat(),
           b.lo.z + e.z * rng.nextFloat()};
    return Ray(o, normalize(Vec3{rng.nextFloat() - 0.5f,
                                 rng.nextFloat() - 0.5f,
                                 rng.nextFloat() - 0.5f}));
}

/** Drive a traverser to completion, never parking. */
HitRecord
runToEnd(RayTraverser &t)
{
    while (!t.done()) {
        if (t.atBoundary()) {
            t.enterNextTreelet();
            continue;
        }
        t.complete();
    }
    return t.hit();
}

TEST(Traverser, StartsAtRootBoundary)
{
    Fixture f;
    Ray r = f.scene.camera.generateRay(10, 10, 64, 64);
    RayTraverser t(&f.bvh, r);
    EXPECT_TRUE(t.atBoundary());
    EXPECT_EQ(t.nextTreelet(), f.bvh.treeletOf(f.bvh.rootNode()));
    EXPECT_EQ(t.currentTreelet(), kInvalidTreelet);
    t.enterNextTreelet();
    EXPECT_EQ(t.currentTreelet(), f.bvh.treeletOf(f.bvh.rootNode()));
    EXPECT_EQ(t.phase(), RayTraverser::Phase::FetchNode);
}

TEST(Traverser, MatchesIntersectClosest)
{
    Fixture f;
    Pcg32 rng(9);
    for (int i = 0; i < 300; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        RayTraverser t(&f.bvh, r);
        HitRecord a = runToEnd(t);
        HitRecord b = f.bvh.intersectClosest(r);
        ASSERT_EQ(a.hit(), b.hit()) << "ray " << i;
        if (a.hit()) {
            ASSERT_FLOAT_EQ(a.t, b.t);
            ASSERT_EQ(a.triIndex, b.triIndex);
        }
    }
}

TEST(Traverser, AccessDescriptorsAreValid)
{
    Fixture f;
    Ray r = f.scene.camera.generateRay(32, 32, 64, 64);
    RayTraverser t(&f.bvh, r);
    while (!t.done()) {
        if (t.atBoundary()) {
            t.enterNextTreelet();
            continue;
        }
        auto acc = t.currentAccess();
        EXPECT_GE(acc.addr, kBvhBaseAddr);
        EXPECT_LT(acc.addr, kBvhBaseAddr + f.bvh.totalBytes());
        if (acc.leaf) {
            EXPECT_GT(acc.bytes, 0u);
            EXPECT_EQ(acc.bytes % kTriBytes, 0u);
        } else {
            EXPECT_EQ(acc.bytes, f.bvh.nodeBytes());
            // Node accesses stay inside the current treelet.
            uint32_t tl = f.bvh.treeletOf(acc.node);
            EXPECT_EQ(tl, t.currentTreelet());
        }
        t.complete();
    }
}

TEST(Traverser, CountsAreConsistent)
{
    Fixture f;
    Pcg32 rng(17);
    for (int i = 0; i < 50; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        RayTraverser t(&f.bvh, r);
        uint32_t reported = 0;
        while (!t.done()) {
            if (t.atBoundary()) {
                t.enterNextTreelet();
                continue;
            }
            reported += t.complete();
        }
        const auto &c = t.counts();
        EXPECT_EQ(c.boxTests + c.triTests, reported);
        EXPECT_GE(c.nodeFetches, 1u);
        EXPECT_GE(c.treeletSwitches, 1u);
        // Each node fetch tests at most kBvhWidth children.
        EXPECT_LE(c.boxTests, c.nodeFetches * kBvhWidth);
    }
}

TEST(Traverser, ParkAndResumeAtBoundaryPreservesResult)
{
    // Simulate what the treelet-queue unit does: every time the ray
    // reaches a boundary, "park" it (copy the traverser!) and resume
    // the copy. The final hit must be unchanged.
    Fixture f;
    Pcg32 rng(23);
    for (int i = 0; i < 100; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        HitRecord expect = f.bvh.intersectClosest(r);

        RayTraverser t(&f.bvh, r);
        int parks = 0;
        while (!t.done()) {
            if (t.atBoundary()) {
                RayTraverser parked = t;   // copy = park + requeue
                t = std::move(parked);
                t.enterNextTreelet();
                parks++;
                continue;
            }
            t.complete();
        }
        ASSERT_EQ(t.hit().hit(), expect.hit());
        if (expect.hit()) {
            ASSERT_FLOAT_EQ(t.hit().t, expect.t);
        }
        ASSERT_GE(parks, 1);
    }
}

TEST(Traverser, BoundaryTargetsMatchQueueKey)
{
    // When at a boundary, nextTreelet() is the queue the RT unit files
    // the ray under; entering must land exactly there.
    Fixture f;
    Pcg32 rng(31);
    for (int i = 0; i < 50; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        RayTraverser t(&f.bvh, r);
        while (!t.done()) {
            if (t.atBoundary()) {
                uint32_t target = t.nextTreelet();
                t.enterNextTreelet();
                ASSERT_EQ(t.currentTreelet(), target);
                continue;
            }
            t.complete();
        }
    }
}

TEST(Traverser, SmallTreeletsMeanMoreSwitches)
{
    Fixture small(512), large(64 * 1024);
    Pcg32 rng(37);
    uint64_t sw_small = 0, sw_large = 0;
    for (int i = 0; i < 100; i++) {
        Ray r = randomRay(rng, small.bvh.rootBounds());
        RayTraverser a(&small.bvh, r), b(&large.bvh, r);
        runToEnd(a);
        runToEnd(b);
        sw_small += a.counts().treeletSwitches;
        sw_large += b.counts().treeletSwitches;
    }
    EXPECT_GT(sw_small, sw_large);
}

TEST(Traverser, MissRayTerminates)
{
    Fixture f;
    // A ray pointing away from the scene.
    Aabb b = f.bvh.rootBounds();
    Ray r(b.hi + Vec3{10, 10, 10}, normalize(Vec3{1, 1, 1}));
    RayTraverser t(&f.bvh, r);
    HitRecord h = runToEnd(t);
    EXPECT_FALSE(h.hit());
    // Root fetch happens, little else.
    EXPECT_LE(t.counts().nodeFetches, 2u);
}

TEST(Traverser, TmaxLimitsTraversal)
{
    Fixture f;
    Ray r = f.scene.camera.generateRay(32, 32, 64, 64);
    HitRecord full = f.bvh.intersectClosest(r);
    ASSERT_TRUE(full.hit());

    Ray clipped = r;
    clipped.tmax = full.t * 0.5f; // hit now out of range
    RayTraverser t(&f.bvh, clipped);
    HitRecord h = runToEnd(t);
    EXPECT_FALSE(h.hit());
}

TEST(Traverser, Wide8MatchesIntersectClosest)
{
    // The stepwise traverser over the compressed 8-wide tree must
    // produce exactly the hits of the scalar reference traversal.
    Fixture f(1024, 8);
    ASSERT_EQ(f.bvh.width(), 8);
    Pcg32 rng(43);
    for (int i = 0; i < 300; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        RayTraverser t(&f.bvh, r);
        HitRecord a = runToEnd(t);
        HitRecord b = f.bvh.intersectClosest(r);
        ASSERT_EQ(a.hit(), b.hit()) << "ray " << i;
        if (a.hit()) {
            ASSERT_FLOAT_EQ(a.t, b.t);
            ASSERT_EQ(a.triIndex, b.triIndex);
        }
    }
}

TEST(Traverser, Wide8AccessDescriptors)
{
    // Node accesses over the 8-wide tree are sized as compressed
    // 80-byte nodes, and each fetch tests at most 8 children.
    Fixture f(1024, 8);
    Pcg32 rng(47);
    for (int i = 0; i < 50; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        RayTraverser t(&f.bvh, r);
        while (!t.done()) {
            if (t.atBoundary()) {
                t.enterNextTreelet();
                continue;
            }
            auto acc = t.currentAccess();
            if (!acc.leaf) {
                EXPECT_EQ(acc.bytes, kCompressedNode8Bytes);
            }
            t.complete();
        }
        const auto &c = t.counts();
        EXPECT_LE(c.boxTests, c.nodeFetches * uint64_t(kMaxBvhWidth));
    }
}

TEST(Traverser, StackDepthBounded)
{
    Fixture f;
    Pcg32 rng(41);
    size_t max_depth = 0;
    for (int i = 0; i < 50; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        RayTraverser t(&f.bvh, r);
        while (!t.done()) {
            max_depth = std::max(max_depth, t.stackDepth());
            if (t.atBoundary()) {
                t.enterNextTreelet();
                continue;
            }
            t.complete();
        }
    }
    // 4-wide BVH of ~5K tris: stacks stay far below triangle count.
    EXPECT_LT(max_depth, 128u);
    EXPECT_GT(max_depth, 2u);
}

} // anonymous namespace
} // namespace trt
