/**
 * @file
 * Golden RunStats fingerprints: hard-coded RunStatsIo::fingerprint
 * values for every dispatch policy at both BVH widths, the VTQ
 * ablation variants, the ray-query entry point and sampled runs.
 *
 * Refactors of the RT-unit pipeline must leave every value unchanged;
 * a mismatch means simulated timing moved. Only a deliberate change of
 * the model may update the table, and it then names the change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/arch.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "harness/job.hh"
#include "scene/registry.hh"
#include "workloads/rt_query.hh"

namespace trt
{
namespace
{

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

void
expectGolden(const RunStats &st, uint64_t want, const std::string &what)
{
    EXPECT_EQ(hex(RunStatsIo::fingerprint(st)), hex(want)) << what;
}

const SceneBundle &
bundle(const std::string &name, uint32_t width)
{
    BvhConfig bc;
    bc.width = int(width);
    return getSceneBundle(name, 0.25f, bc);
}

/** A named JobSpec configuration at the policy tests' size. */
GpuConfig
policyConfig(const std::string &config, bool predict_shared = false)
{
    JobSpec spec;
    spec.config = config;
    spec.resolution = 64;
    spec.predictShared = predict_shared;
    GpuConfig cfg = spec.gpuConfig();
    cfg.maxCtasPerSm = 2;
    return cfg;
}

struct PolicyCase
{
    const char *scene;
    uint32_t width;
    const char *config;
    bool predictShared;
    uint64_t want;
};

constexpr PolicyCase kPolicyCases[] = {
    {"CRNVL", 4, "fifo", false, 0x70d5d9627baa8fc8},
    {"CRNVL", 4, "prefetch", false, 0x76c7284e1bc8fd7e},
    {"CRNVL", 4, "vtq", false, 0x5bfe2811c06a8fd0},
    {"CRNVL", 4, "reorder", false, 0xfeedc709867f031c},
    {"CRNVL", 4, "predict", false, 0xfd053a9fbfa4aad6},
    {"CRNVL", 4, "predict", true, 0xadc4caf9c0c5caa2},
    {"CRNVL", 8, "fifo", false, 0x294fa7708ef3ac5b},
    {"CRNVL", 8, "prefetch", false, 0x4d0ec2ed8ffc79f1},
    {"CRNVL", 8, "vtq", false, 0xfb26fdf95b2a4aea},
    {"CRNVL", 8, "reorder", false, 0x32a94230b54cbf41},
    {"CRNVL", 8, "predict", false, 0x5d3424598824735c},
    {"CRNVL", 8, "predict", true, 0x9d10f6c82c574dde},
    {"BUNNY", 4, "fifo", false, 0x6a0a45ffb600c7dd},
    {"BUNNY", 4, "prefetch", false, 0xb551fe5f6ce56d38},
    {"BUNNY", 4, "vtq", false, 0x917fe859c63bee7e},
    {"BUNNY", 4, "reorder", false, 0xec8d51fc52df3fa2},
    {"BUNNY", 4, "predict", false, 0xc672856933338ab0},
    {"BUNNY", 4, "predict", true, 0xf10b3ba336dd7010},
    {"BUNNY", 8, "fifo", false, 0x44d26382610d701f},
    {"BUNNY", 8, "prefetch", false, 0xf6b5679bf2c821db},
    {"BUNNY", 8, "vtq", false, 0xde17a376b5071ced},
    {"BUNNY", 8, "reorder", false, 0x696ebff3a5e1c9ca},
    {"BUNNY", 8, "predict", false, 0x9022f8dc40e24cfd},
    {"BUNNY", 8, "predict", true, 0x98aae63f7872be1b},
};

TEST(GoldenFingerprints, PoliciesAtBothWidths)
{
    for (const PolicyCase &c : kPolicyCases) {
        const SceneBundle &b = bundle(c.scene, c.width);
        RunStats st = simulate(policyConfig(c.config, c.predictShared),
                               b.scene, b.bvh);
        expectGolden(st, c.want,
                     std::string(c.scene) + " w" +
                         std::to_string(c.width) + " " + c.config +
                         (c.predictShared ? "_shared" : ""));
    }
}

/** The ablation variants of core_test's VtqVariantsRenderIdenticalImages
 *  (a 32x32 BUNNY frame over 1 KB treelets). */
TEST(GoldenFingerprints, VtqVariants)
{
    Scene scene = buildScene("BUNNY", 0.1f);
    BvhConfig bc;
    bc.treeletMaxBytes = 1024;
    Bvh bvh = Bvh::build(scene.triangles, bc);

    auto tiny = [] {
        GpuConfig c = GpuConfig::virtualizedTreeletQueues();
        c.imageWidth = c.imageHeight = 32;
        c.numSms = 4;
        c.mem.numL1s = 4;
        c.queueThreshold = 16;
        c.repackThreshold = 22;
        c.maxCtasPerSm = 2;
        return c;
    };
    struct Variant
    {
        const char *name;
        void (*apply)(GpuConfig &);
        uint64_t want;
    };
    const Variant variants[] = {
        {"no_grouping",
         [](GpuConfig &c) { c.groupUnderpopulated = false; },
         0x8bd706f4e25290f4},
        {"no_repack", [](GpuConfig &c) { c.repackThreshold = 0; },
         0xe312b1c974ddc09c},
        {"skip_treelet_phase",
         [](GpuConfig &c) { c.skipTreeletPhase = true; },
         0x319ac7efc6ede071},
        {"no_preload", [](GpuConfig &c) { c.preloadEnabled = false; },
         0xd6640752dfeddd17},
        {"no_virtualization",
         [](GpuConfig &c) { c.rayVirtualization = false; },
         0x2f07724b4ca222fc},
        {"free_virtualization",
         [](GpuConfig &c) { c.virtualizationFree = true; },
         0xdf3963b037cc5ad5},
    };
    for (const Variant &v : variants) {
        GpuConfig c = tiny();
        v.apply(c);
        expectGolden(simulate(c, scene, bvh), v.want, v.name);
    }
}

TEST(GoldenFingerprints, RayQueries)
{
    RtQueryConfig qc;
    qc.numPoints = 2000;
    qc.numQueries = 512;
    qc.queryRadius = 0.03f;
    qc.seed = 7;
    RtQueryWorkload wl = buildRtQueryWorkload(qc);
    BvhConfig bc;
    bc.treeletMaxBytes = 2048;
    Bvh bvh = Bvh::build(wl.scene.triangles, bc);

    auto small = [](GpuConfig c) {
        c.numSms = 4;
        c.mem.numL1s = 4;
        c.queueThreshold = 16;
        c.maxCtasPerSm = 2;
        return c;
    };
    expectGolden(simulateRays(small(GpuConfig::treeletPrefetch()),
                              wl.scene, bvh, wl.queries),
                 0x54b4c8e48ea2a92f, "queries prefetch");
    expectGolden(simulateRays(small(GpuConfig::virtualizedTreeletQueues()),
                              wl.scene, bvh, wl.queries),
                 0xc76161365f50a6d8, "queries vtq");
}

TEST(GoldenFingerprints, SampledRuns)
{
    SampleConfig sc;
    sc.enabled = true;
    sc.measureCtas = 2;
    sc.targetIntervals = 4;
    sc.warmupCycles = 2000;
    const SceneBundle &b = bundle("CRNVL", 4);
    for (const auto &[config, want] :
         {std::pair<const char *, uint64_t>{"fifo", 0xb778b368c5650e49},
          std::pair<const char *, uint64_t>{"vtq", 0xe42ea9f6e889d1dd}}) {
        RunStats st = simulateSampled(policyConfig(config), b.scene, b.bvh,
                                      sc);
        ASSERT_TRUE(st.sampled.enabled) << config;
        EXPECT_GT(st.sampled.ffRays, 0u)
            << config << ": fast-forward never engaged";
        expectGolden(st, want, std::string("sampled ") + config);
    }
}

} // anonymous namespace
} // namespace trt
