/**
 * @file
 * Sampled-simulation tests (DESIGN.md §8): the stratified extrapolation
 * math on known synthetic interval streams, SampleAccumulator snapshot
 * round-trips, determinism of sampled runs across TRT_SIM_THREADS and
 * the SIMD toggle, crash/resume of a mid-flight sampled run, the
 * all-detailed small-scene guarantee, and run-cache separation between
 * sampled and full results.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "core/arch.hh"
#include "geom/simd.hh"
#include "gpu/run_stats_io.hh"
#include "gpu/sampled.hh"
#include "harness/harness.hh"
#include "harness/run_cache.hh"
#include "snapshot/snapshot.hh"
#include "stats/sampling.hh"

namespace trt
{
namespace
{

namespace fs = std::filesystem;

// ---- stratified extrapolation on synthetic streams -----------------

TEST(StratifiedExtrapolate, ExactWhenStrataEqualWork)
{
    // All-detailed degenerate case: every unit of work measured, the
    // estimate is the exact sum and the CI collapses to zero.
    Estimate e = stratifiedExtrapolate({100, 200}, {10, 20}, {10, 20});
    EXPECT_DOUBLE_EQ(e.value, 300.0);
    EXPECT_DOUBLE_EQ(e.ci95, 0.0);
}

TEST(StratifiedExtrapolate, HandComputedTwoStrata)
{
    // Rates 10 and 30 over strata 50 and 100: 10*50 + 30*100 = 3500.
    // The pooled ratio-of-sums would give (400/20)*150 = 3000 — the
    // stratified estimator must weight by represented, not measured,
    // work.
    Estimate e = stratifiedExtrapolate({100, 300}, {10, 10}, {50, 100});
    EXPECT_DOUBLE_EQ(e.value, 3500.0);
    // CI: rates {10, 30}, sd = sqrt(((10-20)^2 + (30-20)^2)/1),
    // t95(df=1) = 12.706, scaled by sqrt(50^2 + 100^2).
    double sd = std::sqrt(200.0);
    double expect_ci = 12.706 * sd * std::sqrt(50.0 * 50.0 + 100.0 * 100.0);
    EXPECT_NEAR(e.ci95, expect_ci, 1e-9);
}

TEST(StratifiedExtrapolate, ZeroWorkIntervalFallsBackToPooledRate)
{
    // Second interval observed nothing: its stratum is charged at the
    // pooled rate 100/10 = 10, so 10*10 + 10*20 = 300.
    Estimate e = stratifiedExtrapolate({100, 0}, {10, 0}, {10, 20});
    EXPECT_DOUBLE_EQ(e.value, 300.0);
}

TEST(StratifiedExtrapolate, ResidualWorkChargedAtPooledRate)
{
    // Strata cover the measured work exactly, plus 30 residual units
    // no interval represents: 100 + 300 + (400/20)*30 = 1000. The
    // residual also disqualifies the exact-degenerate shortcut.
    Estimate e =
        stratifiedExtrapolate({100, 300}, {10, 10}, {10, 10}, 30);
    EXPECT_DOUBLE_EQ(e.value, 1000.0);
    EXPECT_GT(e.ci95, 0.0);
}

TEST(StratifiedExtrapolate, NoObservedWorkReturnsRawSum)
{
    Estimate e = stratifiedExtrapolate({7, 8}, {0, 0}, {10, 20});
    EXPECT_DOUBLE_EQ(e.value, 15.0);
    EXPECT_DOUBLE_EQ(e.ci95, 0.0);
}

TEST(StratifiedExtrapolate, LengthMismatchThrows)
{
    EXPECT_THROW(stratifiedExtrapolate({1}, {1, 2}, {1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(stratifiedExtrapolate({1, 2}, {1, 2}, {1}),
                 std::invalid_argument);
}

TEST(StudentT95, KnownCriticalValues)
{
    EXPECT_DOUBLE_EQ(studentT95(0), 0.0);
    EXPECT_DOUBLE_EQ(studentT95(1), 12.706);
    EXPECT_DOUBLE_EQ(studentT95(5), 2.571);
    EXPECT_DOUBLE_EQ(studentT95(30), 2.042);
    EXPECT_DOUBLE_EQ(studentT95(31), 1.96);
    EXPECT_DOUBLE_EQ(studentT95(1000), 1.96);
}

// ---- SampleAccumulator ---------------------------------------------

SampleInterval
interval(uint64_t cycles, uint64_t work, std::vector<uint64_t> deltas)
{
    SampleInterval iv;
    iv.cycles = cycles;
    iv.work = work;
    iv.deltas = std::move(deltas);
    return iv;
}

TEST(SampleAccumulator, AccumulatesAndExtrapolates)
{
    SampleAccumulator acc;
    acc.add(interval(100, 10, {50, 1}));
    acc.closeStratum(50);
    acc.add(interval(300, 10, {150, 3}));
    acc.closeStratum(100);
    EXPECT_EQ(acc.intervals(), 2u);
    EXPECT_EQ(acc.measuredCycles(), 400u);
    EXPECT_EQ(acc.measuredWork(), 20u);
    EXPECT_DOUBLE_EQ(acc.extrapolateCycles().value, 3500.0);
    std::vector<Estimate> c = acc.extrapolateCounters();
    ASSERT_EQ(c.size(), 2u);
    EXPECT_DOUBLE_EQ(c[0].value, 1750.0); // rates 5, 15 over 50, 100
    EXPECT_DOUBLE_EQ(c[1].value, 35.0);   // rates .1, .3 over 50, 100
}

TEST(SampleAccumulator, CounterCountMismatchThrows)
{
    SampleAccumulator acc;
    acc.add(interval(1, 1, {1, 2}));
    EXPECT_THROW(acc.add(interval(1, 1, {1})), std::invalid_argument);
}

TEST(SampleAccumulator, SaveLoadRoundTripsEstimates)
{
    SampleAccumulator acc;
    acc.add(interval(100, 10, {50, 1}));
    acc.closeStratum(50);
    acc.add(interval(300, 10, {150, 3}));
    acc.closeStratum(80);
    acc.setResidualWork(20);

    Serializer s;
    acc.saveState(s);
    Deserializer d(s.bytes());
    SampleAccumulator back;
    back.loadState(d);

    EXPECT_EQ(back.intervals(), acc.intervals());
    EXPECT_EQ(back.measuredCycles(), acc.measuredCycles());
    EXPECT_EQ(back.measuredWork(), acc.measuredWork());
    EXPECT_EQ(back.residualWork(), acc.residualWork());
    EXPECT_EQ(back.samples()[1].stratumWork, 80u);
    // The reloaded accumulator must extrapolate bit-identically.
    EXPECT_DOUBLE_EQ(back.extrapolateCycles().value,
                     acc.extrapolateCycles().value);
    EXPECT_DOUBLE_EQ(back.extrapolateCycles().ci95,
                     acc.extrapolateCycles().ci95);
}

// ---- end-to-end sampled runs ---------------------------------------

const SceneBundle &
bundle(const std::string &name)
{
    return getSceneBundle(name, 0.25f);
}

GpuConfig
sized(GpuConfig cfg)
{
    cfg.imageWidth = cfg.imageHeight = 64;
    // Occupancy below the ray count so virtualization is exercised.
    cfg.maxCtasPerSm = 2;
    return cfg;
}

/** A schedule small enough that 64x64 scenes (16 CTAs) really sample:
 *  fast-forward legs and warm-ups run instead of the all-detailed
 *  small-scene bypass. */
SampleConfig
samplingConfig()
{
    SampleConfig sc;
    sc.enabled = true;
    sc.measureCtas = 2;
    sc.targetIntervals = 4;
    sc.warmupCycles = 2000;
    return sc;
}

RunStats
runSampledWith(const std::string &scene, GpuConfig cfg, uint32_t threads,
               const SampleConfig &sc)
{
    cfg.simThreads = threads;
    const SceneBundle &b = bundle(scene);
    return simulateSampled(cfg, b.scene, b.bvh, sc);
}

class SampledScene : public ::testing::TestWithParam<const char *>
{
};

/** Sampled runs must be bit-identical across simulator thread counts:
 *  fast-forward legs, warm-up boundaries, interval placement and the
 *  IEEE extrapolation arithmetic are all serial-commit decisions. */
TEST_P(SampledScene, BitIdenticalAcrossSimThreads)
{
    SampleConfig sc = samplingConfig();
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    RunStats serial = runSampledWith(GetParam(), cfg, 1, sc);
    ASSERT_TRUE(serial.sampled.enabled);
    EXPECT_GT(serial.sampled.intervals, 1u);
    for (uint32_t t : {2u, 4u}) {
        RunStats parallel = runSampledWith(GetParam(), cfg, t, sc);
        EXPECT_EQ(serial.cycles, parallel.cycles) << t << " threads";
        EXPECT_EQ(RunStatsIo::fingerprint(serial),
                  RunStatsIo::fingerprint(parallel))
            << GetParam() << " sampled 1 vs " << t << " threads";
    }
}

TEST_P(SampledScene, BitIdenticalAcrossSimdToggle)
{
    if (!simdCompiledIn())
        GTEST_SKIP() << "scalar-only build (TRT_SIMD=OFF)";
    struct SimdGuard
    {
        ~SimdGuard() { setSimdEnabled(true); }
    } guard;
    SampleConfig sc = samplingConfig();
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    setSimdEnabled(true);
    RunStats simd_on = runSampledWith(GetParam(), cfg, 1, sc);
    setSimdEnabled(false);
    RunStats simd_off = runSampledWith(GetParam(), cfg, 4, sc);
    EXPECT_EQ(RunStatsIo::fingerprint(simd_on),
              RunStatsIo::fingerprint(simd_off))
        << GetParam() << " sampled simd-on@1 vs simd-off@4";
}

INSTANTIATE_TEST_SUITE_P(AcrossScenes, SampledScene,
                         ::testing::Values("CRNVL", "BUNNY"));

TEST(Sampled, BaselineAndPrefetchArchesDeterministic)
{
    SampleConfig sc = samplingConfig();
    for (auto make : {+[] { return GpuConfig{}; },
                      +[] { return GpuConfig::treeletPrefetch(); }}) {
        GpuConfig cfg = sized(make());
        RunStats serial = runSampledWith("CRNVL", cfg, 1, sc);
        RunStats parallel = runSampledWith("CRNVL", cfg, 4, sc);
        EXPECT_EQ(RunStatsIo::fingerprint(serial),
                  RunStatsIo::fingerprint(parallel))
            << dispatchPolicyName(cfg.policy);
    }
}

/** Scenes smaller than one sampling schedule (measureCtas *
 *  targetIntervals CTAs) run entirely detailed: exact cycles and
 *  counters, zero confidence interval. This is the property the CI
 *  accuracy gate leans on. */
TEST(Sampled, SmallSceneIsExact)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    const SceneBundle &b = bundle("BUNNY");
    RunStats full = simulate(cfg, b.scene, b.bvh);
    SampleConfig sc; // default schedule: 32 * 8 CTAs >> 16 CTAs
    sc.enabled = true;
    RunStats sampled = simulateSampled(cfg, b.scene, b.bvh, sc);
    ASSERT_TRUE(sampled.sampled.enabled);
    EXPECT_EQ(sampled.cycles, full.cycles);
    EXPECT_DOUBLE_EQ(sampled.sampled.cyclesCi95, 0.0);
    EXPECT_EQ(sampled.rt.raysCompleted, full.rt.raysCompleted);
    EXPECT_EQ(sampled.rt.nodeVisits, full.rt.nodeVisits);
    EXPECT_EQ(sampled.framebuffer, full.framebuffer);
}

// ---- crash/resume of a mid-flight sampled run ----------------------

fs::path
snapDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("trt_sampled_" + name);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

TEST(SampledSnapshot, ResumeBitIdenticalToUninterrupted)
{
    SampleConfig sc = samplingConfig();
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = bundle("CRNVL");
    RunStats reference = simulateSampled(cfg, b.scene, b.bvh, sc);

    fs::path dir = snapDir("resume");
    SnapshotPolicy halt;
    halt.dir = dir.string();
    halt.worldFp = 0xBEEF;
    halt.haltAtCycle = 4000;
    bool halted = false;
    try {
        simulateSampled(cfg, b.scene, b.bvh, sc, halt, false);
    } catch (const SimulationHalted &) {
        halted = true;
    }
    ASSERT_TRUE(halted) << "halt cycle never reached — scene too small";

    SnapshotPolicy resume;
    resume.dir = dir.string();
    resume.worldFp = 0xBEEF;
    GpuConfig rcfg = cfg;
    rcfg.simThreads = 4; // resume under a different thread count
    RunStats resumed =
        simulateSampled(rcfg, b.scene, b.bvh, sc, resume, true);
    EXPECT_EQ(reference.cycles, resumed.cycles);
    EXPECT_EQ(RunStatsIo::fingerprint(reference),
              RunStatsIo::fingerprint(resumed));
}

TEST(SampledSnapshot, SampleConfigMismatchThrows)
{
    SampleConfig sc = samplingConfig();
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = bundle("CRNVL");

    fs::path dir = snapDir("cfg_mismatch");
    SnapshotPolicy halt;
    halt.dir = dir.string();
    halt.worldFp = 0xF00D;
    halt.haltAtCycle = 4000;
    EXPECT_THROW(simulateSampled(cfg, b.scene, b.bvh, sc, halt, false),
                 SimulationHalted);

    // The snapshot holds mid-flight sampler state under sc's schedule;
    // resuming under different TRT_SAMPLE_* parameters must refuse
    // rather than blend two schedules into one estimate.
    SampleConfig other = sc;
    other.measureCtas = 3;
    SnapshotPolicy resume;
    resume.dir = dir.string();
    resume.worldFp = 0xF00D;
    EXPECT_THROW(
        simulateSampled(cfg, b.scene, b.bvh, other, resume, true),
        SnapshotError);
}

TEST(SampledSnapshot, FullRunSnapshotRefusedUnderSampling)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = bundle("CRNVL");

    fs::path dir = snapDir("full_to_sampled");
    SnapshotPolicy halt;
    halt.dir = dir.string();
    halt.worldFp = 0xCAFE;
    halt.haltAtCycle = 4000;
    EXPECT_THROW(simulateWithSnapshots(cfg, b.scene, b.bvh, halt, false),
                 SimulationHalted);

    SnapshotPolicy resume;
    resume.dir = dir.string();
    resume.worldFp = 0xCAFE;
    SampleConfig sc = samplingConfig();
    EXPECT_THROW(simulateSampled(cfg, b.scene, b.bvh, sc, resume, true),
                 SnapshotError);
}

// ---- run-cache separation ------------------------------------------

/** Restores an env var on scope exit (mirrors harness_test.cc). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = getenv(name)) {
            had_ = true;
            old_ = old;
        }
        setenv(name, value, 1);
    }
    ~EnvGuard()
    {
        if (had_)
            setenv(name_.c_str(), old_.c_str(), 1);
        else
            unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_ = false;
};

TEST(SampledRunCache, FingerprintSeparatesSampledFromFull)
{
    GpuConfig cfg = sized(GpuConfig{});
    SampleConfig sc;
    sc.enabled = true;
    uint64_t fp_full = runFingerprint(cfg, "BUNNY", 0.25f);
    uint64_t fp_sampled =
        runFingerprint(cfg, "BUNNY", 0.25f, sc.fingerprint());
    EXPECT_NE(fp_full, fp_sampled);

    // Different sampling parameters must not share blobs either.
    SampleConfig other = sc;
    other.measureCtas *= 2;
    EXPECT_NE(runFingerprint(cfg, "BUNNY", 0.25f, other.fingerprint()),
              fp_sampled);
}

/** The regression the fingerprint exists for: a stored sampled result
 *  must never be served to a full run, nor a full result to a sampled
 *  run, through the on-disk cache itself. */
TEST(SampledRunCache, StoredBlobsNeverAlias)
{
    fs::path dir = fs::path(::testing::TempDir()) / "trt_runcache_alias";
    fs::remove_all(dir);
    EnvGuard cache("TRT_CACHE", dir.string().c_str());
    EnvGuard enable("TRT_RUN_CACHE", "1");

    GpuConfig cfg = sized(GpuConfig{});
    SampleConfig sc;
    sc.enabled = true;
    uint64_t fp_full = runFingerprint(cfg, "BUNNY", 0.25f);
    uint64_t fp_sampled =
        runFingerprint(cfg, "BUNNY", 0.25f, sc.fingerprint());

    RunStats sampled_result;
    sampled_result.cycles = 424242;
    sampled_result.sampled.enabled = true;
    storeCachedRun(fp_sampled, "BUNNY", sampled_result);

    RunStats out;
    EXPECT_FALSE(loadCachedRun(fp_full, "BUNNY", out))
        << "full run was served a sampled blob";
    ASSERT_TRUE(loadCachedRun(fp_sampled, "BUNNY", out));
    EXPECT_EQ(out.cycles, 424242u);
    EXPECT_TRUE(out.sampled.enabled);

    RunStats full_result;
    full_result.cycles = 111111;
    storeCachedRun(fp_full, "BUNNY", full_result);
    ASSERT_TRUE(loadCachedRun(fp_full, "BUNNY", out));
    EXPECT_EQ(out.cycles, 111111u);
    EXPECT_FALSE(out.sampled.enabled)
        << "sampled blob overwrote the full run's";
    fs::remove_all(dir);
}

} // anonymous namespace
} // namespace trt
