/**
 * @file
 * Cross-module integration tests: the shape claims the paper's
 * evaluation rests on, checked at test scale. These are the "does the
 * reproduction reproduce" tests — slower than unit tests but still
 * seconds, not minutes (64x64 frames, reduced scene scale).
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "analytic/analytic.hh"
#include "core/arch.hh"
#include "energy/energy.hh"
#include "harness/harness.hh"
#include "scene/registry.hh"
#include "telemetry/telemetry.hh"

namespace trt
{
namespace
{

/** Shared bundle at integration-test scale. */
const SceneBundle &
bundle(const std::string &name = "CRNVL")
{
    return getSceneBundle(name, 0.25f);
}

GpuConfig
sized(GpuConfig cfg)
{
    cfg.imageWidth = cfg.imageHeight = 64;
    // A 64x64 frame only has 256 rays per SM; cap CTA slots so the
    // baseline occupancy (2 CTAs x 64 threads = 128 rays) is below
    // that, putting virtualization in the regime it targets.
    cfg.maxCtasPerSm = 2;
    return cfg;
}

/** Run cache keyed by (scene, arch-tag) so expensive sims run once. */
RunStats
cachedRun(const std::string &scene, const std::string &tag,
          const GpuConfig &cfg)
{
    static std::map<std::string, RunStats> cache;
    auto key = scene + "/" + tag;
    auto it = cache.find(key);
    if (it == cache.end()) {
        const SceneBundle &b = bundle(scene);
        it = cache.emplace(key, simulate(cfg, b.scene, b.bvh)).first;
    }
    return it->second;
}

TEST(Integration, VtqBeatsBaselineOnDivergentScene)
{
    RunStats rb = cachedRun("CRNVL", "base", sized(GpuConfig{}));
    RunStats rv = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EXPECT_LT(rv.cycles, rb.cycles);
    // And with much better SIMT efficiency (Fig. 13b direction).
    EXPECT_GT(rv.simtEfficiency(), rb.simtEfficiency() * 1.3);
}

TEST(Integration, AllArchesIdenticalImageAtScale)
{
    RunStats rb = cachedRun("CRNVL", "base", sized(GpuConfig{}));
    RunStats rp = cachedRun("CRNVL", "pref",
                            sized(GpuConfig::treeletPrefetch()));
    RunStats rv = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EXPECT_EQ(rb.framebuffer, rp.framebuffer);
    EXPECT_EQ(rb.framebuffer, rv.framebuffer);
}

TEST(Integration, PrefetcherIssuesAndMostlyHits)
{
    RunStats rp = cachedRun("CRNVL", "pref",
                            sized(GpuConfig::treeletPrefetch()));
    ASSERT_GT(rp.rt.prefetchLines, 0u);
    double used = double(rp.rt.prefetchUsedLines) /
                  double(rp.rt.prefetchLines);
    // Chou et al. report 56.5% used; we require the same regime.
    EXPECT_GT(used, 0.25);
    EXPECT_LT(used, 1.0);
}

TEST(Integration, TreeletPhaseLowersMissRateWhileActive)
{
    // Fig. 11 direction: permanently treelet-stationary traversal has
    // a lower *early* BVH miss rate than the baseline.
    GpuConfig tstat = sized(GpuConfig::virtualizedTreeletQueues());
    tstat.groupUnderpopulated = false;
    tstat.repackThreshold = 0;
    // The curves come from telemetry, sampled as bench_fig11 does.
    auto curve = [](GpuConfig cfg, const std::string &name) {
        cfg.telem.enabled = true;
        cfg.telem.everyCycles = 2048;
        cfg.telem.outDir = (std::filesystem::path(::testing::TempDir()) /
                            "trt_integration_fig11")
                               .string();
        cfg.telem.outBase = name;
        const SceneBundle &b = bundle();
        simulate(cfg, b.scene, b.bvh);
        return bvhL1MissSeries(
            Telemetry::readBinary(cfg.telem.outDir + "/" + name + ".tsbin")
                .gpuSamples(),
            64);
    };
    std::vector<double> rt = curve(tstat, "tstat");
    std::vector<double> rb = curve(sized(GpuConfig{}), "base");

    ASSERT_GE(rt.size(), 8u);
    ASSERT_GE(rb.size(), 8u);
    // The populated-queue phase is brief in cycles at test scale, so
    // compare the *deepest dip* in the first half against the
    // baseline's own minimum: treelet-stationary mode must reach a
    // lower miss rate than the baseline ever does (the paper's 9% dip).
    auto min_first_half = [](const std::vector<double> &s) {
        double m = 1.0;
        for (size_t i = 0; i < s.size() / 2; i++)
            if (s[i] > 0.0)
                m = std::min(m, s[i]);
        return m;
    };
    EXPECT_LT(min_first_half(rt), min_first_half(rb));
}

TEST(Integration, GroupingBeatsNaive)
{
    // Fig. 12 direction: grouping underpopulated queues is much faster
    // than dispatching every queue as a treelet warp.
    GpuConfig naive = sized(GpuConfig::virtualizedTreeletQueues());
    naive.groupUnderpopulated = false;
    naive.repackThreshold = 0;
    GpuConfig grouped = sized(GpuConfig::virtualizedTreeletQueues());
    grouped.repackThreshold = 0;

    RunStats rn = cachedRun("CRNVL", "tstat", naive);
    RunStats rg = cachedRun("CRNVL", "grouped", grouped);
    EXPECT_LT(rg.cycles, rn.cycles);
}

TEST(Integration, RepackingImprovesOverNoRepacking)
{
    GpuConfig norepack = sized(GpuConfig::virtualizedTreeletQueues());
    norepack.repackThreshold = 0;
    RunStats rn = cachedRun("CRNVL", "grouped", norepack);
    RunStats rr = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EXPECT_LT(rr.cycles, rn.cycles);
    EXPECT_GT(rr.simtEfficiency(), rn.simtEfficiency());
}

TEST(Integration, VirtualizationRaisesConcurrentRays)
{
    GpuConfig off = sized(GpuConfig::virtualizedTreeletQueues());
    off.rayVirtualization = false;
    RunStats ro = cachedRun("CRNVL", "novirt", off);
    RunStats rv = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EXPECT_GT(rv.rt.maxConcurrentRays, ro.rt.maxConcurrentRays);
}

TEST(Integration, VirtualizationCostIsModest)
{
    // Fig. 16 direction: real CTA save/restore costs a bounded amount
    // versus free virtualization.
    GpuConfig freev = sized(GpuConfig::virtualizedTreeletQueues());
    freev.virtualizationFree = true;
    RunStats rf = cachedRun("CRNVL", "freevirt", freev);
    RunStats rr = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EXPECT_GE(rr.cycles, rf.cycles);
    EXPECT_LT(double(rr.cycles), double(rf.cycles) * 1.5);
}

TEST(Integration, EnergyFollowsCycles)
{
    // Fig. 17 direction: the faster VTQ run burns less energy.
    RunStats rb = cachedRun("CRNVL", "base", sized(GpuConfig{}));
    RunStats rv = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EnergyReport eb = computeEnergy(rb, 16);
    EnergyReport ev = computeEnergy(rv, 16);
    EXPECT_LT(ev.total(), eb.total());
    EXPECT_GT(ev.virtualizationShare(), 0.0);
    EXPECT_LT(ev.virtualizationShare(), 0.4);
}

TEST(Integration, AnalyticModelPredictsGainDirection)
{
    // Fig. 5 direction: the analytical model must predict >1x at high
    // concurrency for a divergent scene.
    const SceneBundle &b = bundle("CRNVL");
    auto traces = recordTraces(b.scene, b.bvh, 64, 64, 3, 0.02f, 8000);
    AnalyticModel m(std::move(traces), b.bvhStats.avgTreeletNodes);
    EXPECT_GT(m.speedup(4096), m.speedup(32));
    EXPECT_GT(m.speedup(4096), 1.0);
}

TEST(Integration, ModeBreakdownCoversAllTests)
{
    RunStats rv = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    uint64_t total = 0;
    for (auto t : rv.rt.isectTests)
        total += t;
    // Every intersection test is attributed to exactly one mode; the
    // total must match the baseline run (same functional work).
    RunStats rb = cachedRun("CRNVL", "base", sized(GpuConfig{}));
    uint64_t base_total = 0;
    for (auto t : rb.rt.isectTests)
        base_total += t;
    EXPECT_EQ(total, base_total);
}

TEST(Integration, NodeVisitCountsInvariantAcrossArches)
{
    // Traversal work is functional, so every architecture performs the
    // same node/leaf visits; only the timing differs.
    RunStats rb = cachedRun("CRNVL", "base", sized(GpuConfig{}));
    RunStats rp = cachedRun("CRNVL", "pref",
                            sized(GpuConfig::treeletPrefetch()));
    RunStats rv = cachedRun("CRNVL", "vtq",
                            sized(GpuConfig::virtualizedTreeletQueues()));
    EXPECT_EQ(rb.rt.nodeVisits, rp.rt.nodeVisits);
    EXPECT_EQ(rb.rt.nodeVisits, rv.rt.nodeVisits);
    EXPECT_EQ(rb.rt.leafVisits, rv.rt.leafVisits);
}

} // anonymous namespace
} // namespace trt
