/**
 * @file
 * Tests for the GPU timing model: config defaults (Table 1), baseline
 * simulation correctness (bit-identical to the functional renderer),
 * CTA scheduling limits, shader model, and stat plausibility.
 */

#include <gtest/gtest.h>

#include "core/arch.hh"
#include "gpu/gpu.hh"
#include "gpu/rate_limiter.hh"
#include "gpu/shader.hh"
#include "scene/registry.hh"

namespace trt
{
namespace
{

/** Small deterministic scene + BVH shared by the tests. */
struct Fixture
{
    Scene scene;
    Bvh bvh;

    explicit Fixture(const std::string &name = "BUNNY", float scale = 0.1f)
    {
        scene = buildScene(name, scale);
        bvh = Bvh::build(scene.triangles);
    }
};

GpuConfig
tinyConfig()
{
    GpuConfig cfg;
    cfg.imageWidth = 32;
    cfg.imageHeight = 32;
    cfg.numSms = 4;
    cfg.mem.numL1s = 4;
    return cfg;
}

TEST(GpuConfig, Table1Defaults)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.numSms, 16u);
    EXPECT_EQ(cfg.maxWarpsPerSm, 32u);
    EXPECT_EQ(cfg.warpSize, 32u);
    EXPECT_EQ(cfg.maxCtasPerSm, 16u);
    EXPECT_EQ(cfg.regsPerSm, 32768u);
    EXPECT_EQ(cfg.mem.l1Bytes, 16u * 1024u);
    EXPECT_EQ(cfg.mem.l1Ways, 0u); // fully associative
    EXPECT_EQ(cfg.mem.l1HitLatency, 39u);
    EXPECT_EQ(cfg.mem.l2Bytes, 128u * 1024u);
    EXPECT_EQ(cfg.mem.l2Ways, 16u);
    EXPECT_EQ(cfg.mem.l2HitLatency, 187u);
    EXPECT_EQ(cfg.rtUnitsPerSm, 1u);
    EXPECT_EQ(cfg.warpBufferSize, 1u);
    EXPECT_EQ(cfg.maxVirtualRaysPerSm, 4096u);
    EXPECT_EQ(cfg.imageWidth, 256u);
    EXPECT_EQ(cfg.maxBounces, 3u);
}

TEST(GpuConfig, ConvenienceConstructors)
{
    GpuConfig vtq = GpuConfig::virtualizedTreeletQueues();
    EXPECT_EQ(vtq.policy, DispatchPolicyKind::Vtq);
    EXPECT_TRUE(vtq.rayVirtualization);
    EXPECT_GT(vtq.mem.l2ReservedBytes, 0u);

    GpuConfig pf = GpuConfig::treeletPrefetch();
    EXPECT_EQ(pf.policy, DispatchPolicyKind::Prefetch);
    EXPECT_FALSE(pf.rayVirtualization);
}

TEST(PathTracer, PrimaryRaysHitScene)
{
    Fixture f;
    PathTracer pt(f.scene, f.bvh, 3, 0.02f);
    uint32_t hits = 0;
    for (uint32_t p = 0; p < 64; p++) {
        PathState st = pt.startPath(p * 16 + 5, 32, 32);
        EXPECT_TRUE(st.alive);
        HitRecord h = f.bvh.intersectClosest(st.ray);
        hits += h.hit() ? 1 : 0;
    }
    // The auto-framed camera must actually see the scene.
    EXPECT_GT(hits, 32u);
}

TEST(PathTracer, ShadeTerminatesOnMiss)
{
    Fixture f;
    PathTracer pt(f.scene, f.bvh, 3, 0.02f);
    PathState st = pt.startPath(0, 32, 32);
    HitRecord miss;
    pt.shade(st, miss);
    EXPECT_FALSE(st.alive);
    EXPECT_EQ(st.radiance.x, f.scene.background.x);
}

TEST(PathTracer, BounceLimitRespected)
{
    Fixture f;
    PathTracer pt(f.scene, f.bvh, 2, 1e-6f);
    for (uint32_t p = 0; p < 256; p++) {
        PathState st = pt.startPath(p, 16, 16);
        uint32_t traces = 0;
        while (st.alive) {
            HitRecord h = f.bvh.intersectClosest(st.ray);
            pt.shade(st, h);
            traces++;
            ASSERT_LE(traces, 3u); // primary + 2 bounces
        }
    }
}

TEST(PathTracer, ThroughputCutoffKillsPaths)
{
    Fixture f;
    // A cutoff of 1.0 kills every path at its first diffuse bounce.
    PathTracer pt(f.scene, f.bvh, 3, 1.0f);
    for (uint32_t p = 0; p < 64; p++) {
        PathState st = pt.startPath(p, 16, 16);
        HitRecord h = f.bvh.intersectClosest(st.ray);
        pt.shade(st, h);
        EXPECT_FALSE(st.alive);
    }
}

TEST(RenderReference, Deterministic)
{
    Fixture f;
    auto fb1 = renderReference(f.scene, f.bvh, 16, 16, 3, 0.02f);
    auto fb2 = renderReference(f.scene, f.bvh, 16, 16, 3, 0.02f);
    ASSERT_EQ(fb1.size(), fb2.size());
    for (size_t i = 0; i < fb1.size(); i++)
        EXPECT_EQ(fb1[i], fb2[i]) << "pixel " << i;
}

TEST(BaselineSim, CompletesAndMatchesReference)
{
    Fixture f;
    GpuConfig cfg = tinyConfig();
    Gpu gpu(cfg, f.scene, f.bvh);
    RunStats rs = gpu.run();

    EXPECT_GT(rs.cycles, 0u);
    EXPECT_EQ(rs.framebuffer.size(), 32u * 32u);

    auto ref = renderReference(f.scene, f.bvh, 32, 32, cfg.maxBounces,
                               cfg.contributionCutoff);
    ASSERT_EQ(ref.size(), rs.framebuffer.size());
    for (size_t i = 0; i < ref.size(); i++)
        ASSERT_EQ(ref[i], rs.framebuffer[i]) << "pixel " << i;
}

TEST(BaselineSim, DeterministicCycles)
{
    Fixture f;
    GpuConfig cfg = tinyConfig();
    RunStats a = Gpu(cfg, f.scene, f.bvh).run();
    RunStats b = Gpu(cfg, f.scene, f.bvh).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.rt.nodeVisits, b.rt.nodeVisits);
    EXPECT_EQ(a.mem[size_t(MemClass::BvhNode)].l1Misses,
              b.mem[size_t(MemClass::BvhNode)].l1Misses);
}

TEST(BaselineSim, StatsArePlausible)
{
    Fixture f;
    GpuConfig cfg = tinyConfig();
    RunStats rs = Gpu(cfg, f.scene, f.bvh).run();

    EXPECT_GT(rs.raysTraced, 1024u);  // 1024 primaries + secondaries
    EXPECT_EQ(rs.rt.raysCompleted, rs.raysTraced);
    EXPECT_GT(rs.rt.nodeVisits, rs.raysTraced); // several nodes per ray
    EXPECT_GT(rs.rt.leafVisits, 0u);
    EXPECT_GT(rs.aluLaneInstrs, 0u);
    EXPECT_EQ(rs.ctasLaunched, (32u * 32u) / cfg.ctaSize);
    EXPECT_EQ(rs.ctaSaves, 0u); // no virtualization in the baseline
    double simt = rs.simtEfficiency();
    EXPECT_GT(simt, 0.05);
    EXPECT_LE(simt, 1.0);
    // Baseline attributes every cycle to ray-stationary mode.
    EXPECT_EQ(rs.rt.modeCycles[size_t(TraversalMode::Initial)], 0u);
    EXPECT_EQ(rs.rt.modeCycles[size_t(TraversalMode::TreeletStationary)],
              0u);
    EXPECT_GT(rs.rt.modeCycles[size_t(TraversalMode::RayStationary)], 0u);
}

TEST(BaselineSim, BvhAccessesRecorded)
{
    Fixture f;
    GpuConfig cfg = tinyConfig();
    RunStats rs = Gpu(cfg, f.scene, f.bvh).run();
    const auto &bvh_mem = rs.memClass(MemClass::BvhNode);
    EXPECT_GT(bvh_mem.l1Accesses, 0u);
    EXPECT_GT(rs.bvhL1MissRate(), 0.0);
    EXPECT_LT(rs.bvhL1MissRate(), 1.0);
}

TEST(RunStats, BvhL1MissRateOverNodeAndTriangleClasses)
{
    RunStats rs;
    EXPECT_EQ(rs.bvhL1MissRate(), 0.0); // no accesses
    rs.mem[size_t(MemClass::BvhNode)].l1Accesses = 6;
    rs.mem[size_t(MemClass::BvhNode)].l1Misses = 1;
    rs.mem[size_t(MemClass::Triangle)].l1Accesses = 2;
    rs.mem[size_t(MemClass::Triangle)].l1Misses = 1;
    rs.mem[size_t(MemClass::Shader)].l1Accesses = 5; // not BVH traffic
    rs.mem[size_t(MemClass::Shader)].l1Misses = 5;
    EXPECT_DOUBLE_EQ(rs.bvhL1MissRate(), 0.25);
}

TEST(BaselineSim, RunTwiceThrows)
{
    Fixture f;
    Gpu gpu(tinyConfig(), f.scene, f.bvh);
    gpu.run();
    EXPECT_THROW(gpu.run(), std::logic_error);
}

TEST(BaselineSim, MismatchedL1CountRejected)
{
    Fixture f;
    GpuConfig cfg = tinyConfig();
    cfg.mem.numL1s = 2; // != numSms
    EXPECT_THROW(Gpu(cfg, f.scene, f.bvh), std::invalid_argument);
}

TEST(BaselineSim, PartialWarpAtOddResolution)
{
    Fixture f;
    GpuConfig cfg = tinyConfig();
    cfg.imageWidth = 30; // 900 pixels: last CTA is partial
    cfg.imageHeight = 30;
    RunStats rs = Gpu(cfg, f.scene, f.bvh).run();
    EXPECT_EQ(rs.framebuffer.size(), 900u);
    auto ref = renderReference(f.scene, f.bvh, 30, 30, cfg.maxBounces,
                               cfg.contributionCutoff);
    for (size_t i = 0; i < ref.size(); i++)
        ASSERT_EQ(ref[i], rs.framebuffer[i]) << "pixel " << i;
}

TEST(RateLimiter, WidthOnePerCycle)
{
    RateLimiter rl(1);
    EXPECT_EQ(rl.book(10), 10u);
    EXPECT_EQ(rl.book(10), 11u);
    EXPECT_EQ(rl.book(10), 12u);
    EXPECT_EQ(rl.book(20), 20u);
    EXPECT_EQ(rl.nextFree(20), 21u);
}

TEST(RateLimiter, WiderWidths)
{
    RateLimiter rl(3);
    EXPECT_EQ(rl.book(5), 5u);
    EXPECT_EQ(rl.book(5), 5u);
    EXPECT_EQ(rl.book(5), 5u);
    EXPECT_EQ(rl.book(5), 6u);
    EXPECT_EQ(rl.nextFree(5), 6u);
    EXPECT_EQ(rl.nextFree(7), 7u);
}

} // anonymous namespace
} // namespace trt
