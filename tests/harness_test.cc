/**
 * @file
 * Tests for the experiment harness: environment parsing, scene-bundle
 * caching, parallel execution and CSV output.
 */

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "util/env.hh"
#include "harness/run_cache.hh"

namespace trt
{
namespace
{

/** RAII environment variable setter. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old)
            old_ = old;
        had_ = old != nullptr;
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
    bool had_;
};

TEST(HarnessOptions, Defaults)
{
    unsetenv("TRT_RES");
    unsetenv("TRT_SCALE");
    unsetenv("TRT_SCENES");
    unsetenv("TRT_FAST");
    HarnessOptions opt = HarnessOptions::fromEnv();
    EXPECT_EQ(opt.job.resolution, 256u);
    EXPECT_FLOAT_EQ(opt.job.scale, 1.0f);
    EXPECT_EQ(opt.scenes.size(), 14u);
}

TEST(HarnessOptions, EnvOverrides)
{
    EnvGuard r("TRT_RES", "64");
    EnvGuard s("TRT_SCALE", "0.5");
    EnvGuard sc("TRT_SCENES", "BUNNY,CRNVL");
    EnvGuard th("TRT_THREADS", "3");
    HarnessOptions opt = HarnessOptions::fromEnv();
    EXPECT_EQ(opt.job.resolution, 64u);
    EXPECT_FLOAT_EQ(opt.job.scale, 0.5f);
    ASSERT_EQ(opt.scenes.size(), 2u);
    EXPECT_EQ(opt.scenes[0], "BUNNY");
    EXPECT_EQ(opt.scenes[1], "CRNVL");
    EXPECT_EQ(opt.threads, 3u);
}

TEST(HarnessOptions, FastMode)
{
    EnvGuard f("TRT_FAST", "1");
    EnvGuard r("TRT_RES", ""); // empty -> atof 0 -> keeps fast default?
    unsetenv("TRT_RES");
    unsetenv("TRT_SCALE");
    HarnessOptions opt = HarnessOptions::fromEnv();
    EXPECT_EQ(opt.job.resolution, 64u);
    EXPECT_LT(opt.job.scale, 0.5f);
}

/** TRT_FAST only lowers the *defaults*: an explicit TRT_SCALE (or
 *  TRT_RES) wins over the smoke-mode values regardless of the order
 *  the knobs are read (precedence note in harness.hh). */
TEST(HarnessOptions, ExplicitScaleWinsOverFastMode)
{
    EnvGuard f("TRT_FAST", "1");
    EnvGuard s("TRT_SCALE", "0.5");
    unsetenv("TRT_RES");
    HarnessOptions opt = HarnessOptions::fromEnv();
    EXPECT_EQ(opt.job.resolution, 64u); // fast default still applies
    EXPECT_FLOAT_EQ(opt.job.scale, 0.5f);

    EnvGuard r("TRT_RES", "512");
    opt = HarnessOptions::fromEnv();
    EXPECT_EQ(opt.job.resolution, 512u);
    EXPECT_FLOAT_EQ(opt.job.scale, 0.5f);
}

// ---- strict environment-knob parsing (util/env.hh) -----------------

TEST(EnvKnobs, MalformedIntegerIsAHardError)
{
    EnvGuard r("TRT_RES", "abc");
    EXPECT_THROW(HarnessOptions::fromEnv(), EnvError);
}

TEST(EnvKnobs, TrailingGarbageIsAHardError)
{
    EnvGuard r("TRT_RES", "64junk");
    EXPECT_THROW(HarnessOptions::fromEnv(), EnvError);
}

TEST(EnvKnobs, NegativeUnsignedKnobIsAHardError)
{
    EnvGuard t("TRT_THREADS", "-2");
    EXPECT_THROW(HarnessOptions::fromEnv(), EnvError);
}

TEST(EnvKnobs, MalformedFloatIsAHardError)
{
    EnvGuard sc("TRT_SCALE", "0.5x");
    EXPECT_THROW(HarnessOptions::fromEnv(), EnvError);
}

TEST(EnvKnobs, MalformedFlagIsAHardError)
{
    EnvGuard f("TRT_FAST", "maybe");
    EXPECT_THROW(HarnessOptions::fromEnv(), EnvError);
}

TEST(EnvKnobs, ErrorNamesKnobAndOffendingValue)
{
    EnvGuard r("TRT_RES", "12junk");
    try {
        HarnessOptions::fromEnv();
        FAIL() << "expected EnvError";
    } catch (const EnvError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("TRT_RES"), std::string::npos) << msg;
        EXPECT_NE(msg.find("12junk"), std::string::npos) << msg;
    }
}

TEST(EnvKnobs, FlagSpellings)
{
    for (const char *v : {"1", "true", "on", "yes"}) {
        EnvGuard f("TRT_FAST", v);
        EXPECT_TRUE(envFlag("TRT_FAST", false)) << v;
    }
    for (const char *v : {"0", "false", "off", "no"}) {
        EnvGuard f("TRT_FAST", v);
        EXPECT_FALSE(envFlag("TRT_FAST", true)) << v;
    }
}

TEST(EnvKnobs, RangeViolationIsAHardError)
{
    EnvGuard r("TRT_RES", "100000"); // above the 1<<16 cap
    EXPECT_THROW(HarnessOptions::fromEnv(), EnvError);
}

TEST(HarnessOptions, ApplySetsResolution)
{
    HarnessOptions opt;
    opt.job.resolution = 48;
    GpuConfig cfg = opt.apply(GpuConfig{});
    EXPECT_EQ(cfg.imageWidth, 48u);
    EXPECT_EQ(cfg.imageHeight, 48u);
}

TEST(HarnessOptions, PolicyOverrideTakesCanonicalConfig)
{
    // TRT_POLICY=fifo on a VTQ config drops ray virtualization and the
    // reserved L2 along with the treelet queues.
    HarnessOptions opt;
    opt.job.resolution = 48;
    opt.job.config = "fifo";
    GpuConfig fifo = GpuConfig::forPolicy(DispatchPolicyKind::Fifo);
    fifo.imageWidth = fifo.imageHeight = 48;
    EXPECT_EQ(opt.apply(GpuConfig::virtualizedTreeletQueues()).fingerprint(),
              fifo.fingerprint());
    opt.job.config = "vtq";
    GpuConfig vtq = GpuConfig::forPolicy(DispatchPolicyKind::Vtq);
    vtq.imageWidth = vtq.imageHeight = 48;
    EXPECT_EQ(opt.apply(GpuConfig{}).fingerprint(), vtq.fingerprint());
}

TEST(SceneBundle, CachedByNameAndScale)
{
    const SceneBundle &a = getSceneBundle("BUNNY", 0.03f);
    const SceneBundle &b = getSceneBundle("BUNNY", 0.03f);
    EXPECT_EQ(&a, &b); // same object
    const SceneBundle &c = getSceneBundle("BUNNY", 0.06f);
    EXPECT_NE(&a, &c);
    EXPECT_GT(c.scene.triangles.size(), a.scene.triangles.size());
    EXPECT_EQ(a.bvhStats.triCount, a.scene.triangles.size());
}

TEST(RunScene, ProducesStats)
{
    HarnessOptions opt;
    opt.job.resolution = 16;
    opt.job.scale = 0.03f;
    GpuConfig cfg = opt.apply(GpuConfig{});
    cfg.numSms = 2;
    cfg.mem.numL1s = 2;
    RunStats rs = runScene("BUNNY", cfg, opt);
    EXPECT_GT(rs.cycles, 0u);
    EXPECT_EQ(rs.framebuffer.size(), 256u);
}

TEST(ParallelForScenes, VisitsAllInOrderedSlots)
{
    HarnessOptions opt;
    opt.scenes = {"A", "B", "C", "D"};
    opt.threads = 2;
    std::vector<std::string> got(4);
    parallelForScenes(opt, [&](size_t i, const std::string &n) {
        got[i] = n;
    });
    EXPECT_EQ(got, opt.scenes);
}

TEST(ParallelForScenes, PropagatesExceptions)
{
    HarnessOptions opt;
    opt.scenes = {"A", "B"};
    opt.threads = 2;
    EXPECT_THROW(
        parallelForScenes(opt,
                          [&](size_t, const std::string &n) {
                              if (n == "B")
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(WriteCsv, CreatesFile)
{
    HarnessOptions opt;
    opt.resultsDir =
        (std::filesystem::temp_directory_path() / "trt_test_results")
            .string();
    Table t({"a"});
    t.row().cell("1");
    writeCsv(opt, t, "unit.csv");
    std::ifstream in(std::filesystem::path(opt.resultsDir) / "unit.csv");
    ASSERT_TRUE(in.good());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a");
    std::filesystem::remove_all(opt.resultsDir);
}

RunStats
syntheticStats()
{
    RunStats st;
    st.cycles = 123456789ull;
    st.framebuffer = {{0.1f, 0.2f, 0.3f}, {1.0f, 0.0f, 0.5f}};
    st.rt.activeLaneCycles = 11;
    st.rt.slotLaneCycles = 22;
    st.rt.modeCycles[0] = 33;
    st.rt.isectTests[1] = 44;
    st.rt.nodeVisits = 55;
    st.rt.countTableHighWater = 66;
    st.rt.prefetchIssues = 77;
    st.mem[0].l1Accesses = 88;
    st.mem[1].dramReadBytes = 99;
    st.aluLaneInstrs = 101;
    st.raysTraced = 102;
    st.ctasLaunched = 103;
    st.ctaSaves = 104;
    st.ctaRestores = 105;
    st.ctaStateBytes = 106;
    st.primaryHits.resize(3);
    st.primaryHits[1].t = 1.5f;
    st.primaryHits[1].triIndex = 42;
    return st;
}

void
expectStatsEqual(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(a.framebuffer.size(), b.framebuffer.size());
    for (size_t i = 0; i < a.framebuffer.size(); i++)
        EXPECT_TRUE(a.framebuffer[i] == b.framebuffer[i]) << i;
    EXPECT_EQ(a.rt.activeLaneCycles, b.rt.activeLaneCycles);
    EXPECT_EQ(a.rt.slotLaneCycles, b.rt.slotLaneCycles);
    EXPECT_EQ(a.rt.modeCycles, b.rt.modeCycles);
    EXPECT_EQ(a.rt.isectTests, b.rt.isectTests);
    EXPECT_EQ(a.rt.nodeVisits, b.rt.nodeVisits);
    EXPECT_EQ(a.rt.countTableHighWater, b.rt.countTableHighWater);
    EXPECT_EQ(a.rt.prefetchIssues, b.rt.prefetchIssues);
    for (size_t c = 0; c < a.mem.size(); c++) {
        EXPECT_EQ(a.mem[c].l1Accesses, b.mem[c].l1Accesses) << c;
        EXPECT_EQ(a.mem[c].l1Misses, b.mem[c].l1Misses) << c;
        EXPECT_EQ(a.mem[c].dramReadBytes, b.mem[c].dramReadBytes) << c;
    }
    EXPECT_EQ(a.aluLaneInstrs, b.aluLaneInstrs);
    EXPECT_EQ(a.raysTraced, b.raysTraced);
    EXPECT_EQ(a.ctasLaunched, b.ctasLaunched);
    EXPECT_EQ(a.ctaSaves, b.ctaSaves);
    EXPECT_EQ(a.ctaRestores, b.ctaRestores);
    EXPECT_EQ(a.ctaStateBytes, b.ctaStateBytes);
    ASSERT_EQ(a.primaryHits.size(), b.primaryHits.size());
    for (size_t i = 0; i < a.primaryHits.size(); i++) {
        EXPECT_EQ(a.primaryHits[i].t, b.primaryHits[i].t) << i;
        EXPECT_EQ(a.primaryHits[i].triIndex, b.primaryHits[i].triIndex)
            << i;
    }
}

TEST(RunStatsIo, RoundTripExact)
{
    RunStats st = syntheticStats();
    std::stringstream ss;
    RunStatsIo::save(ss, st);
    RunStats back;
    ASSERT_TRUE(RunStatsIo::load(ss, back));
    expectStatsEqual(st, back);
}

TEST(RunStatsIo, RejectsBadMagicVersionAndTruncation)
{
    RunStats st = syntheticStats();
    std::stringstream ss;
    RunStatsIo::save(ss, st);
    std::string blob = ss.str();

    RunStats back;
    {
        std::string bad = blob;
        bad[0] ^= 0xff; // magic
        std::istringstream is(bad);
        EXPECT_FALSE(RunStatsIo::load(is, back));
    }
    {
        std::string bad = blob;
        bad[4] ^= 0xff; // version
        std::istringstream is(bad);
        EXPECT_FALSE(RunStatsIo::load(is, back));
    }
    {
        std::istringstream is(blob.substr(0, blob.size() / 2));
        EXPECT_FALSE(RunStatsIo::load(is, back));
    }
    {
        std::istringstream is(blob + "x"); // trailing garbage
        EXPECT_FALSE(RunStatsIo::load(is, back));
    }
}

TEST(RunCache, FingerprintSensitivity)
{
    GpuConfig cfg;
    uint64_t fp = runFingerprint(cfg, "BUNNY", 1.0f);
    EXPECT_EQ(fp, runFingerprint(cfg, "BUNNY", 1.0f));
    EXPECT_NE(fp, runFingerprint(cfg, "CRNVL", 1.0f));
    EXPECT_NE(fp, runFingerprint(cfg, "BUNNY", 0.5f));

    GpuConfig bounces = cfg;
    bounces.maxBounces++;
    EXPECT_NE(fp, runFingerprint(bounces, "BUNNY", 1.0f));
    GpuConfig res = cfg;
    res.imageWidth = 128;
    EXPECT_NE(fp, runFingerprint(res, "BUNNY", 1.0f));
    GpuConfig vtq = GpuConfig::virtualizedTreeletQueues();
    EXPECT_NE(fp, runFingerprint(vtq, "BUNNY", 1.0f));
}

/** Fixture giving each test a private cache root: ctest -j runs the
 *  tests as concurrent processes, so the directory is keyed by test
 *  name and pid. */
class RunCacheOnDisk : public ::testing::Test
{
  protected:
    RunCacheOnDisk()
        : dir_((std::filesystem::temp_directory_path() /
                ("trt_run_cache_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()) +
                 "_" + std::to_string(::getpid())))
                   .string()),
          cache_("TRT_CACHE", dir_.c_str())
    {
        std::filesystem::remove_all(dir_);
        resetHarnessTiming();
    }

    ~RunCacheOnDisk() override
    {
        std::filesystem::remove_all(dir_);
        resetHarnessTiming();
    }

    std::string dir_;
    EnvGuard cache_;
};

TEST_F(RunCacheOnDisk, StoreThenLoadRoundTrips)
{
    RunStats st = syntheticStats();
    uint64_t fp = runFingerprint(GpuConfig{}, "BUNNY", 0.03f);
    storeCachedRun(fp, "BUNNY", st);

    RunStats back;
    ASSERT_TRUE(loadCachedRun(fp, "BUNNY", back));
    expectStatsEqual(st, back);
    EXPECT_EQ(harnessTiming().runCacheHits, 1u);

    // A different fingerprint (changed config) must miss.
    GpuConfig other;
    other.maxBounces++;
    RunStats none;
    EXPECT_FALSE(
        loadCachedRun(runFingerprint(other, "BUNNY", 0.03f), "BUNNY",
                      none));
    EXPECT_EQ(harnessTiming().runCacheMisses, 1u);
}

TEST_F(RunCacheOnDisk, SecondRunSceneIsServedFromCache)
{
    HarnessOptions opt;
    opt.job.resolution = 16;
    opt.job.scale = 0.03f;
    GpuConfig cfg = opt.apply(GpuConfig{});
    cfg.numSms = 2;
    cfg.mem.numL1s = 2;

    RunStats first = runScene("BUNNY", cfg, opt);
    EXPECT_EQ(harnessTiming().runCacheHits, 0u);
    EXPECT_EQ(harnessTiming().runCacheMisses, 1u);

    RunStats second = runScene("BUNNY", cfg, opt);
    EXPECT_EQ(harnessTiming().runCacheHits, 1u);
    EXPECT_EQ(harnessTiming().runCacheMisses, 1u);
    expectStatsEqual(first, second);

    // Any config change invalidates (different fingerprint -> miss).
    GpuConfig changed = cfg;
    changed.queueThreshold++;
    runScene("BUNNY", changed, opt);
    EXPECT_EQ(harnessTiming().runCacheMisses, 2u);
}

TEST_F(RunCacheOnDisk, SizeCapPrunesLruBlobs)
{
    // ~0.7 MB serialized per blob.
    RunStats big;
    big.cycles = 1;
    big.framebuffer.assign(60000, Vec3{1, 2, 3});

    uint64_t fp1 = runFingerprint(GpuConfig{}, "AAA", 1.0f);
    uint64_t fp2 = runFingerprint(GpuConfig{}, "BBB", 1.0f);
    uint64_t fp3 = runFingerprint(GpuConfig{}, "CCC", 1.0f);
    {
        EnvGuard nocap("TRT_RUN_CACHE_MAX_MB", "0"); // no pruning yet
        storeCachedRun(fp1, "AAA", big);
        storeCachedRun(fp2, "BBB", big);
        storeCachedRun(fp3, "CCC", big);
    }

    // Age the blobs explicitly (mtime is the LRU signal): AAA oldest.
    auto runs = std::filesystem::path(dir_) / "runs";
    auto now = std::filesystem::file_time_type::clock::now();
    for (const auto &de : std::filesystem::directory_iterator(runs)) {
        std::string name = de.path().filename().string();
        int age_min = name.rfind("AAA", 0) == 0   ? 3
                      : name.rfind("BBB", 0) == 0 ? 2
                                                  : 1;
        std::filesystem::last_write_time(
            de.path(), now - std::chrono::minutes(age_min));
    }

    // A store under a 1 MB cap prunes the two oldest blobs.
    EnvGuard cap("TRT_RUN_CACHE_MAX_MB", "1");
    RunStats small;
    small.cycles = 2;
    storeCachedRun(runFingerprint(GpuConfig{}, "DDD", 1.0f), "DDD",
                   small);

    RunStats back;
    EXPECT_FALSE(loadCachedRun(fp1, "AAA", back));
    EXPECT_FALSE(loadCachedRun(fp2, "BBB", back));
    EXPECT_TRUE(loadCachedRun(fp3, "CCC", back));
    EXPECT_EQ(harnessTiming().runCachePrunedBlobs, 2u);
    EXPECT_GT(harnessTiming().runCachePrunedBytes, 1024u * 1024u);
}

TEST_F(RunCacheOnDisk, EscapeHatchDisablesCache)
{
    EnvGuard off("TRT_RUN_CACHE", "0");
    EXPECT_FALSE(runCacheEnabled());

    HarnessOptions opt;
    opt.job.resolution = 16;
    opt.job.scale = 0.03f;
    GpuConfig cfg = opt.apply(GpuConfig{});
    cfg.numSms = 2;
    cfg.mem.numL1s = 2;

    runScene("BUNNY", cfg, opt);
    runScene("BUNNY", cfg, opt);
    EXPECT_EQ(harnessTiming().runCacheHits, 0u);
    EXPECT_EQ(harnessTiming().runCacheMisses, 0u);
    EXPECT_FALSE(
        std::filesystem::exists(std::filesystem::path(dir_) / "runs"));
}

} // anonymous namespace
} // namespace trt
