/**
 * @file
 * Golden RunStats fingerprints: hard-coded RunStatsIo::fingerprint
 * values for every dispatch policy at both BVH widths, the VTQ
 * ablation variants, the ray-query entry point and sampled runs.
 *
 * Refactors of the RT-unit pipeline must leave every value unchanged;
 * a mismatch means simulated timing moved. Only a deliberate change of
 * the model, or of the RunStatsIo bytes the values hash, may update the
 * table, and it then names the change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/arch.hh"
#include "geom/hash.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "harness/job.hh"
#include "scene/registry.hh"
#include "telemetry/telemetry.hh"
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
    {"CRNVL", 4, "fifo", false, 0x2e00b0b3e1be092e},
    {"CRNVL", 4, "prefetch", false, 0xdf3a03290e6b2b24},
    {"CRNVL", 4, "vtq", false, 0xfcf0aa8371a226e3},
    {"CRNVL", 4, "reorder", false, 0x5d2938ae12d4d621},
    {"CRNVL", 4, "predict", false, 0xc9315e487ad219b8},
    {"CRNVL", 4, "predict", true, 0x64553368992fbca8},
    {"CRNVL", 8, "fifo", false, 0x2e2a98a52767c9e3},
    {"CRNVL", 8, "prefetch", false, 0xef0f7367c440b6b9},
    {"CRNVL", 8, "vtq", false, 0xc6017bd24eb6887c},
    {"CRNVL", 8, "reorder", false, 0xbb63c6fd6e076224},
    {"CRNVL", 8, "predict", false, 0xf3e4fbf36fc3675e},
    {"CRNVL", 8, "predict", true, 0x762e45337664fde4},
    {"BUNNY", 4, "fifo", false, 0xadaff8b5313d15ae},
    {"BUNNY", 4, "prefetch", false, 0x3e7f01097af75aca},
    {"BUNNY", 4, "vtq", false, 0xb9b965a3cfdd52e5},
    {"BUNNY", 4, "reorder", false, 0xc1c65818b2ea3de1},
    {"BUNNY", 4, "predict", false, 0x1a9ed4a6d24be0f9},
    {"BUNNY", 4, "predict", true, 0xaa41ee9fd5db5096},
    {"BUNNY", 8, "fifo", false, 0x25e3a3c5cd43887e},
    {"BUNNY", 8, "prefetch", false, 0x80f7a5d7ab124262},
    {"BUNNY", 8, "vtq", false, 0x9ad26714c03fb075},
    {"BUNNY", 8, "reorder", false, 0xcc97b561468a0bd7},
    {"BUNNY", 8, "predict", false, 0x64170fd9730d2161},
    {"BUNNY", 8, "predict", true, 0x09b96c5b331efae5},
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
 *  run on a 32x32 BUNNY frame over 1 KB treelets. */
struct TinyVtqScene
{
    Scene scene;
    Bvh bvh;
};

const TinyVtqScene &
tinyVtqScene()
{
    static const TinyVtqScene s = [] {
        TinyVtqScene t;
        t.scene = buildScene("BUNNY", 0.1f);
        BvhConfig bc;
        bc.treeletMaxBytes = 1024;
        t.bvh = Bvh::build(t.scene.triangles, bc);
        return t;
    }();
    return s;
}

GpuConfig
tinyVtq()
{
    GpuConfig c = GpuConfig::virtualizedTreeletQueues();
    c.imageWidth = c.imageHeight = 32;
    c.numSms = 4;
    c.mem.numL1s = 4;
    c.queueThreshold = 16;
    c.repackThreshold = 22;
    c.maxCtasPerSm = 2;
    return c;
}

/** A ray cap of two warps: the units refuse warps for most of the
 *  frame, so this configuration exercises the admission path. */
constexpr uint32_t kRayCap = 64;

GpuConfig
rayCapped()
{
    GpuConfig c = tinyVtq();
    c.maxVirtualRaysPerSm = kRayCap;
    return c;
}

constexpr uint64_t kRayCapGolden = 0xfda1f576139f2ea7;

TEST(GoldenFingerprints, VtqVariants)
{
    const TinyVtqScene &t = tinyVtqScene();
    struct Variant
    {
        const char *name;
        void (*apply)(GpuConfig &);
        uint64_t want;
    };
    const Variant variants[] = {
        {"no_grouping",
         [](GpuConfig &c) { c.groupUnderpopulated = false; },
         0xd278e5b0d0b46b61},
        {"no_repack", [](GpuConfig &c) { c.repackThreshold = 0; },
         0x6626c2fd3517287e},
        {"skip_treelet_phase",
         [](GpuConfig &c) { c.skipTreeletPhase = true; },
         0x17f83a5811394dfa},
        {"no_preload", [](GpuConfig &c) { c.preloadEnabled = false; },
         0xc782b843de97d2d1},
        {"no_virtualization",
         [](GpuConfig &c) { c.rayVirtualization = false; },
         0xc4f25b55c4409663},
        {"free_virtualization",
         [](GpuConfig &c) { c.virtualizationFree = true; },
         0x361b7f9f6b30a908},
        {"ray_cap_64",
         [](GpuConfig &c) { c.maxVirtualRaysPerSm = kRayCap; },
         kRayCapGolden},
    };
    for (const Variant &v : variants) {
        GpuConfig c = tinyVtq();
        v.apply(c);
        expectGolden(simulate(c, t.scene, t.bvh), v.want, v.name);
    }

    // The cap binds (the pin covers refusals, not just the cap check)
    // and the refusal path is thread-count independent.
    for (uint32_t threads : {1u, 2u}) {
        GpuConfig c = rayCapped();
        c.simThreads = threads;
        RunStats st = simulate(c, t.scene, t.bvh);
        EXPECT_EQ(st.rt.maxConcurrentRays, kRayCap) << threads;
        expectGolden(st, kRayCapGolden,
                     "ray_cap_64 at " + std::to_string(threads) +
                         " sim threads");
    }
}

/** The refusal path's telemetry: a traced cap-64 run writes the same
 *  .tsbin bytes, QueueOverflow events included, whatever the host-side
 *  retry schedule. */
TEST(GoldenFingerprints, RayCapTelemetryBytes)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "trt_golden_raycap";
    fs::remove_all(dir);
    GpuConfig c = rayCapped();
    c.telem.enabled = true;
    c.telem.trace = true;
    c.telem.everyCycles = 512;
    c.telem.outDir = dir.string();
    c.telem.outBase = "cap";
    const TinyVtqScene &t = tinyVtqScene();
    simulate(c, t.scene, t.bvh);

    fs::path bin = dir / "cap.tsbin";
    std::ifstream in(bin, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    EXPECT_EQ(hex(h.value()), "0x3f1ebea05a5a1178");

    Telemetry back = Telemetry::readBinary(bin.string());
    size_t overflows = 0;
    for (const TelemEvent &e : back.events())
        overflows += e.kind == TelemEventKind::QueueOverflow;
    EXPECT_GT(overflows, 0u);
    fs::remove_all(dir);
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
                 0x0c6cffc4608acbba, "queries prefetch");
    expectGolden(simulateRays(small(GpuConfig::virtualizedTreeletQueues()),
                              wl.scene, bvh, wl.queries),
                 0x84e854e599ce5c4b, "queries vtq");
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
         {std::pair<const char *, uint64_t>{"fifo", 0xb4e70fb6606dae62},
          std::pair<const char *, uint64_t>{"vtq", 0x1b1cca92c88ae912}}) {
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
