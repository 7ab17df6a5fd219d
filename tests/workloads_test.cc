/**
 * @file
 * Tests for the general tree-traversal workload (section 8 extension):
 * splat geometry, query lowering, functional correctness against brute
 * force, and the custom-ray simulation path through the GPU model.
 */

#include <gtest/gtest.h>

#include "core/arch.hh"
#include "workloads/rt_query.hh"

namespace trt
{
namespace
{

RtQueryConfig
smallConfig(PointDistribution dist = PointDistribution::Clustered)
{
    RtQueryConfig cfg;
    cfg.numPoints = 2000;
    cfg.numQueries = 400;
    cfg.distribution = dist;
    cfg.queryRadius = 0.03f;
    cfg.seed = 7;
    return cfg;
}

TEST(RtQueryWorkload, GeometryShape)
{
    RtQueryConfig cfg = smallConfig();
    RtQueryWorkload wl = buildRtQueryWorkload(cfg);
    EXPECT_EQ(wl.points.size(), cfg.numPoints);
    EXPECT_EQ(wl.queries.size(), cfg.numQueries);
    EXPECT_EQ(wl.scene.triangles.size(),
              size_t(cfg.numPoints) * wl.trisPerSplat);
    // Every splat triangle's bounds lie within queryRadius (L-inf) of
    // its point.
    for (uint32_t i = 0; i < 100; i++) {
        uint32_t tri = i * 37 % uint32_t(wl.scene.triangles.size());
        uint32_t pt = wl.pointOf(tri);
        Aabb b = wl.scene.triangles[tri].bounds();
        EXPECT_LE(length(b.center() - wl.points[pt]),
                  2.0f * wl.queryRadius);
    }
}

TEST(RtQueryWorkload, Deterministic)
{
    RtQueryWorkload a = buildRtQueryWorkload(smallConfig());
    RtQueryWorkload b = buildRtQueryWorkload(smallConfig());
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); i += 53)
        EXPECT_EQ(a.points[i], b.points[i]);
    for (size_t i = 0; i < a.queries.size(); i += 29)
        EXPECT_EQ(a.queries[i].orig, b.queries[i].orig);
}

TEST(RtQueryWorkload, QuerySegmentsSpanBallDiameter)
{
    RtQueryWorkload wl = buildRtQueryWorkload(smallConfig());
    for (const Ray &q : wl.queries) {
        EXPECT_FLOAT_EQ(q.tmax, 2.0f * wl.queryRadius);
        EXPECT_NEAR(length(q.dir), 1.0f, 1e-5f);
    }
}

class DistributionParam
    : public ::testing::TestWithParam<PointDistribution>
{
};

TEST_P(DistributionParam, AnswersMatchBruteForce)
{
    RtQueryConfig cfg = smallConfig(GetParam());
    RtQueryWorkload wl = buildRtQueryWorkload(cfg);
    Bvh bvh = Bvh::build(wl.scene.triangles);
    auto results = answerQueries(wl, bvh);
    ASSERT_EQ(results.size(), wl.queries.size());

    uint32_t found = 0;
    for (size_t i = 0; i < results.size(); i++) {
        QueryResult bf = bruteForceNearest(wl.points, wl.queries[i].orig,
                                           wl.queryRadius);
        ASSERT_EQ(results[i].nearest != ~0u, bf.nearest != ~0u)
            << "query " << i;
        if (bf.nearest != ~0u) {
            found++;
            ASSERT_FLOAT_EQ(results[i].distance, bf.distance)
                << "query " << i;
        }
    }
    // The workload must actually exercise hits (the L1-ball volume at
    // this radius gives roughly 5-10% of queries a neighbor for the
    // uniform distribution, more for clustered/shell).
    EXPECT_GE(found, 10u);
}

INSTANTIATE_TEST_SUITE_P(Distributions, DistributionParam,
                         ::testing::Values(PointDistribution::Uniform,
                                           PointDistribution::Clustered,
                                           PointDistribution::Shell));

TEST(RtQuerySim, RunsThroughGpuAndHitsAgree)
{
    RtQueryConfig cfg = smallConfig();
    cfg.numQueries = 512;
    RtQueryWorkload wl = buildRtQueryWorkload(cfg);
    Bvh bvh = Bvh::build(wl.scene.triangles);

    GpuConfig gc;
    gc.numSms = 4;
    gc.mem.numL1s = 4;
    RunStats rs = simulateRays(gc, wl.scene, bvh, wl.queries);

    EXPECT_GT(rs.cycles, 0u);
    EXPECT_EQ(rs.raysTraced, wl.queries.size());
    ASSERT_EQ(rs.primaryHits.size(), wl.queries.size());

    // The timing model's closest hits match direct traversal.
    for (size_t i = 0; i < wl.queries.size(); i++) {
        HitRecord ref = bvh.intersectClosest(wl.queries[i]);
        ASSERT_EQ(rs.primaryHits[i].hit(), ref.hit()) << "query " << i;
        if (ref.hit()) {
            ASSERT_FLOAT_EQ(rs.primaryHits[i].t, ref.t);
        }
    }
}

TEST(RtQuerySim, ArchitecturesAgreeOnQueryHits)
{
    RtQueryConfig cfg = smallConfig();
    cfg.numQueries = 512;
    RtQueryWorkload wl = buildRtQueryWorkload(cfg);
    BvhConfig bc;
    bc.treeletMaxBytes = 2048;
    Bvh bvh = Bvh::build(wl.scene.triangles, bc);

    GpuConfig base;
    base.numSms = 4;
    base.mem.numL1s = 4;
    GpuConfig vtq = GpuConfig::virtualizedTreeletQueues();
    vtq.numSms = 4;
    vtq.mem.numL1s = 4;
    vtq.queueThreshold = 16;
    vtq.maxCtasPerSm = 2;

    RunStats a = simulateRays(base, wl.scene, bvh, wl.queries);
    RunStats b = simulateRays(vtq, wl.scene, bvh, wl.queries);
    ASSERT_EQ(a.primaryHits.size(), b.primaryHits.size());
    for (size_t i = 0; i < a.primaryHits.size(); i++) {
        ASSERT_EQ(a.primaryHits[i].hit(), b.primaryHits[i].hit());
        if (a.primaryHits[i].hit()) {
            ASSERT_FLOAT_EQ(a.primaryHits[i].t, b.primaryHits[i].t);
        }
    }
    // Query rays are single-bounce, so the workload completes.
    EXPECT_EQ(b.rt.raysCompleted, wl.queries.size());
}

TEST(RtQuerySim, PointCloudBvhHasManyTreelets)
{
    RtQueryWorkload wl = buildRtQueryWorkload(smallConfig());
    Bvh bvh = Bvh::build(wl.scene.triangles);
    // The workload must be big enough to exceed one treelet, or the
    // treelet-queue evaluation on it is vacuous.
    EXPECT_GT(bvh.treeletCount(), 8u);
}

} // anonymous namespace
} // namespace trt
