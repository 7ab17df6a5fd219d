/**
 * @file
 * Tests for the treelet prefetching and virtualized treelet queue
 * policies. The load-bearing invariant is that every policy renders
 * the exact same image as the functional reference — the
 * optimizations may only change *timing*.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/arch.hh"
#include "gpu/line_set.hh"
#include "gpu/shader.hh"
#include "scene/registry.hh"

namespace trt
{
namespace
{

struct Fixture
{
    Scene scene;
    Bvh bvh;

    /**
     * Test scenes are tiny (fast), so an 8KB treelet would swallow most
     * of the BVH and no treelet boundary would ever be crossed; a 1KB
     * cap restores the many-treelets regime the full-scale scenes have.
     */
    explicit Fixture(const std::string &name = "BUNNY", float scale = 0.1f,
                     uint32_t treelet_bytes = 1024)
    {
        scene = buildScene(name, scale);
        BvhConfig bc;
        bc.treeletMaxBytes = treelet_bytes;
        bvh = Bvh::build(scene.triangles, bc);
    }
};

GpuConfig
tinyConfig(DispatchPolicyKind policy)
{
    GpuConfig cfg;
    cfg.imageWidth = 32;
    cfg.imageHeight = 32;
    cfg.numSms = 4;
    cfg.mem.numL1s = 4;
    cfg.policy = policy;
    if (policy == DispatchPolicyKind::Vtq) {
        cfg.rayVirtualization = true;
        cfg.mem.l2ReservedBytes = 64 * 1024;
        // Scale queue thresholds to the small ray population of a
        // 32x32 test frame, and keep few CTA slots so the scheduler
        // actually has pending CTAs (suspension only fires when the
        // freed slot can be reused).
        cfg.queueThreshold = 16;
        cfg.repackThreshold = 22;
        cfg.maxCtasPerSm = 2;
    }
    return cfg;
}

/** All architectures must produce bit-identical images. */
TEST(ArchEquivalence, AllArchesRenderIdenticalImages)
{
    Fixture f;
    auto ref = renderReference(f.scene, f.bvh, 32, 32, 3, 0.02f);

    for (DispatchPolicyKind policy :
         {DispatchPolicyKind::Fifo, DispatchPolicyKind::Prefetch,
          DispatchPolicyKind::Vtq}) {
        GpuConfig cfg = tinyConfig(policy);
        RunStats rs = simulate(cfg, f.scene, f.bvh);
        ASSERT_EQ(rs.framebuffer.size(), ref.size());
        for (size_t i = 0; i < ref.size(); i++) {
            ASSERT_EQ(ref[i], rs.framebuffer[i])
                << "policy=" << dispatchPolicyName(policy) << " pixel " << i;
        }
    }
}

TEST(ArchEquivalence, VtqVariantsRenderIdenticalImages)
{
    Fixture f;
    auto ref = renderReference(f.scene, f.bvh, 32, 32, 3, 0.02f);

    std::vector<GpuConfig> variants;
    {
        GpuConfig c = tinyConfig(DispatchPolicyKind::Vtq);
        c.groupUnderpopulated = false; // naive treelet queues
        variants.push_back(c);
    }
    {
        GpuConfig c = tinyConfig(DispatchPolicyKind::Vtq);
        c.repackThreshold = 0; // no repacking
        variants.push_back(c);
    }
    {
        GpuConfig c = tinyConfig(DispatchPolicyKind::Vtq);
        c.skipTreeletPhase = true;
        variants.push_back(c);
    }
    {
        GpuConfig c = tinyConfig(DispatchPolicyKind::Vtq);
        c.preloadEnabled = false;
        variants.push_back(c);
    }
    {
        GpuConfig c = tinyConfig(DispatchPolicyKind::Vtq);
        c.rayVirtualization = false;
        variants.push_back(c);
    }
    {
        GpuConfig c = tinyConfig(DispatchPolicyKind::Vtq);
        c.virtualizationFree = true;
        variants.push_back(c);
    }

    for (size_t v = 0; v < variants.size(); v++) {
        RunStats rs = simulate(variants[v], f.scene, f.bvh);
        for (size_t i = 0; i < ref.size(); i++) {
            ASSERT_EQ(ref[i], rs.framebuffer[i])
                << "variant " << v << " pixel " << i;
        }
    }
}

TEST(TreeletPrefetch, IssuesAndUsesPrefetches)
{
    Fixture f;
    RunStats rs = simulate(tinyConfig(DispatchPolicyKind::Prefetch), f.scene,
                           f.bvh);
    EXPECT_GT(rs.rt.prefetchIssues, 0u);
    EXPECT_GT(rs.rt.prefetchLines, 0u);
    EXPECT_GT(rs.rt.prefetchUsedLines, 0u);
    EXPECT_LE(rs.rt.prefetchUsedLines, rs.rt.prefetchLines);
}

TEST(TreeletQueues, UsesAllThreeModes)
{
    Fixture f;
    RunStats rs = simulate(tinyConfig(DispatchPolicyKind::Vtq), f.scene,
                           f.bvh);
    EXPECT_GT(rs.rt.modeCycles[size_t(TraversalMode::Initial)], 0u);
    EXPECT_GT(rs.rt.modeCycles[size_t(TraversalMode::TreeletStationary)],
              0u);
    EXPECT_GT(rs.rt.modeCycles[size_t(TraversalMode::RayStationary)], 0u);
    EXPECT_GT(rs.rt.treeletWarpsFormed, 0u);
    EXPECT_GT(rs.rt.groupedWarpsFormed, 0u);
    EXPECT_GT(rs.rt.raysEnqueued, 0u);
}

TEST(TreeletQueues, VirtualizationSuspendsAndRestores)
{
    Fixture f;
    GpuConfig cfg = tinyConfig(DispatchPolicyKind::Vtq);
    RunStats rs = simulate(cfg, f.scene, f.bvh);
    EXPECT_GT(rs.ctaSaves, 0u);
    EXPECT_EQ(rs.ctaSaves, rs.ctaRestores);
    EXPECT_GT(rs.ctaStateBytes, 0u);
    // CTA state traffic must be visible in the memory class stats.
    EXPECT_GT(rs.memClass(MemClass::CtaState).writes, 0u);
    EXPECT_GT(rs.memClass(MemClass::CtaState).l2Accesses, 0u);
}

TEST(TreeletQueues, VirtualizationFreeHasNoStateTraffic)
{
    Fixture f;
    GpuConfig cfg = tinyConfig(DispatchPolicyKind::Vtq);
    cfg.virtualizationFree = true;
    RunStats rs = simulate(cfg, f.scene, f.bvh);
    EXPECT_GT(rs.ctaSaves, 0u);
    EXPECT_EQ(rs.memClass(MemClass::CtaState).writes, 0u);
    EXPECT_EQ(rs.memClass(MemClass::CtaState).l1Accesses, 0u);
}

TEST(TreeletQueues, NoVirtualizationMeansNoSaves)
{
    Fixture f;
    GpuConfig cfg = tinyConfig(DispatchPolicyKind::Vtq);
    cfg.rayVirtualization = false;
    RunStats rs = simulate(cfg, f.scene, f.bvh);
    EXPECT_EQ(rs.ctaSaves, 0u);
    EXPECT_EQ(rs.ctaRestores, 0u);
}

TEST(TreeletQueues, RayDataTrafficExists)
{
    Fixture f;
    RunStats rs = simulate(tinyConfig(DispatchPolicyKind::Vtq), f.scene,
                           f.bvh);
    const auto &rd = rs.memClass(MemClass::RayData);
    EXPECT_GT(rd.writes, 0u);     // parked ray state
    EXPECT_GT(rd.l2Accesses, 0u); // reserved-region fetches
    EXPECT_EQ(rd.l1Accesses, 0u); // ray data must bypass the L1
}

TEST(TreeletQueues, RepackingHappensAndRaisesSimtEfficiency)
{
    Fixture f("SPNZA", 0.1f);
    GpuConfig with = tinyConfig(DispatchPolicyKind::Vtq);
    with.repackThreshold = 22;
    // Force every ray through the grouped ray-stationary path so the
    // queues hold plenty of strays for the repacker to pull from (a
    // 32x32 frame otherwise drains its queues into one warp), and make
    // warps diverge at their first treelet boundary so rays actually
    // reach the queues at this small scale.
    with.queueThreshold = 100000;
    with.initialDivergeThreshold = 0;
    GpuConfig without = with;
    without.repackThreshold = 0;

    RunStats a = simulate(with, f.scene, f.bvh);
    RunStats b = simulate(without, f.scene, f.bvh);
    EXPECT_GT(a.rt.repackEvents, 0u);
    EXPECT_EQ(b.rt.repackEvents, 0u);
    EXPECT_GT(a.simtEfficiency(), b.simtEfficiency());
}

TEST(TreeletQueues, TableHighWatersTracked)
{
    Fixture f;
    RunStats rs = simulate(tinyConfig(DispatchPolicyKind::Vtq), f.scene,
                           f.bvh);
    EXPECT_GT(rs.rt.countTableHighWater, 0u);
    EXPECT_GT(rs.rt.queueTableEntriesHW, 0u);
    EXPECT_GT(rs.rt.maxConcurrentRays, 32u);
}

TEST(TreeletQueues, ConcurrentRayCapRespected)
{
    Fixture f;
    GpuConfig cfg = tinyConfig(DispatchPolicyKind::Vtq);
    cfg.maxVirtualRaysPerSm = 64;
    RunStats rs = simulate(cfg, f.scene, f.bvh);
    EXPECT_LE(rs.rt.maxConcurrentRays, 64u);
    // Still renders correctly.
    auto ref = renderReference(f.scene, f.bvh, 32, 32, 3, 0.02f);
    for (size_t i = 0; i < ref.size(); i++)
        ASSERT_EQ(ref[i], rs.framebuffer[i]);
}

TEST(TreeletQueues, SkipTreeletPhaseHasNoTreeletWarps)
{
    Fixture f;
    GpuConfig cfg = tinyConfig(DispatchPolicyKind::Vtq);
    cfg.skipTreeletPhase = true;
    RunStats rs = simulate(cfg, f.scene, f.bvh);
    EXPECT_EQ(rs.rt.treeletWarpsFormed, 0u);
    EXPECT_EQ(rs.rt.modeCycles[size_t(TraversalMode::TreeletStationary)],
              0u);
    EXPECT_GT(rs.rt.groupedWarpsFormed, 0u);
}

TEST(TreeletQueues, NaiveModeFormsUnderpopulatedTreeletWarps)
{
    Fixture f;
    GpuConfig cfg = tinyConfig(DispatchPolicyKind::Vtq);
    cfg.groupUnderpopulated = false;
    cfg.repackThreshold = 0;
    RunStats rs = simulate(cfg, f.scene, f.bvh);
    EXPECT_GT(rs.rt.treeletWarpsFormed, 0u);
    EXPECT_EQ(rs.rt.groupedWarpsFormed, 0u);
}

// ---- LineSet (open-addressed line-address set, PR 3) ---------------

TEST(LineSet, InsertEraseContains)
{
    LineSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(s.insert(0x1000));
    EXPECT_FALSE(s.insert(0x1000)); // duplicate
    EXPECT_TRUE(s.insert(0x2000));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains(0x1000));
    EXPECT_FALSE(s.contains(0x3000));
    EXPECT_TRUE(s.erase(0x1000));
    EXPECT_FALSE(s.erase(0x1000)); // already gone
    EXPECT_FALSE(s.contains(0x1000));
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.sortedKeys(), (std::vector<uint64_t>{0x2000}));
}

TEST(LineSet, GrowsAndRehashesPastInitialCapacity)
{
    LineSet s;
    std::size_t cap0 = s.capacity();
    // Push well past the 3/4 load-factor trigger of the initial table.
    const uint64_t n = 4096;
    for (uint64_t i = 1; i <= n; i++)
        ASSERT_TRUE(s.insert(i * 64));
    EXPECT_EQ(s.size(), n);
    EXPECT_GT(s.capacity(), cap0);
    for (uint64_t i = 1; i <= n; i++)
        EXPECT_TRUE(s.contains(i * 64)) << i;
    EXPECT_FALSE(s.contains((n + 1) * 64));
    EXPECT_EQ(s.sortedKeys().size(), n);
}

TEST(LineSet, ClearKeepsCapacityAndDropsKeys)
{
    LineSet s;
    for (uint64_t i = 1; i <= 2000; i++)
        s.insert(i * 64);
    std::size_t cap = s.capacity();
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.capacity(), cap);
    EXPECT_FALSE(s.contains(64));
    EXPECT_TRUE(s.insert(64)); // reusable after clear
}

/** Backward-shift deletion under heavy collisions: keys engineered to
 *  share probe chains, erased in an order that forces shifts, checked
 *  against a reference std::set at every step. */
TEST(LineSet, CollisionHeavyEraseKeepsProbeChainsIntact)
{
    LineSet s;
    std::set<uint64_t> ref;
    // The multiply-shift hash uses the high 32 bits, so keys differing
    // only in a high-bit stride collide to nearby buckets frequently.
    auto key = [](uint64_t i) { return (i % 7 + 1) + ((i / 7) << 33); };
    for (uint64_t i = 0; i < 3000; i++) {
        uint64_t k = key(i);
        EXPECT_EQ(s.insert(k), ref.insert(k).second) << i;
    }
    // Erase every third key, then verify every key's membership.
    for (uint64_t i = 0; i < 3000; i += 3) {
        uint64_t k = key(i);
        EXPECT_EQ(s.erase(k), ref.erase(k) > 0) << i;
    }
    EXPECT_EQ(s.size(), ref.size());
    for (uint64_t i = 0; i < 3000; i++) {
        uint64_t k = key(i);
        EXPECT_EQ(s.contains(k), ref.count(k) > 0) << i;
    }
    std::vector<uint64_t> want(ref.begin(), ref.end());
    EXPECT_EQ(s.sortedKeys(), want);
}

} // anonymous namespace
} // namespace trt
