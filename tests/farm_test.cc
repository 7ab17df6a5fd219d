/**
 * @file
 * Tests for the sweep farm (DESIGN.md §13): manifest parsing and
 * expansion, JobSpec serialization and run-cache aliasing, the framed
 * pipe protocol, multi-process run-cache stores, and the end-to-end
 * crash/retry sweep whose results must be bit-identical to serial
 * execution.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "farm/json.hh"
#include "farm/manifest.hh"
#include "farm/protocol.hh"
#include "farm/scheduler.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "harness/run_cache.hh"
#include "util/env.hh"

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

/** Unique temp dir per test, removed on teardown. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            ("trt_farm_" + tag + "_XXXXXX"))
                               .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        path_ = ::mkdtemp(buf.data());
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }
    std::string sub(const std::string &name) const
    {
        return (std::filesystem::path(path_) / name).string();
    }

  private:
    std::string path_;
};

RunStats
syntheticStats(uint64_t seed)
{
    RunStats st;
    st.cycles = 1000 + seed;
    st.raysTraced = 77 * (seed + 1);
    st.aluLaneInstrs = seed * 3;
    st.rt.nodeVisits = seed * 11;
    st.framebuffer.assign(16, Vec3{float(seed), 0.5f, 0.25f});
    return st;
}

// ---- JSON ------------------------------------------------------------

TEST(FarmJson, ParsesScalarsArraysObjects)
{
    JsonValue v = JsonValue::parse(
        "{\"a\": 1, \"b\": [true, \"x\", 2.5], // comment\n"
        " \"c\": {\"d\": null}, # also a comment\n"
        " \"e\": \"esc\\n\\\"q\\\"\",}");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->text, "1");
    ASSERT_TRUE(v.find("b")->isArray());
    ASSERT_EQ(v.find("b")->items.size(), 3u);
    EXPECT_TRUE(v.find("b")->items[0].isBool());
    EXPECT_EQ(v.find("b")->items[2].text, "2.5");
    EXPECT_TRUE(v.find("c")->find("d")->isNull());
    EXPECT_EQ(v.find("e")->text, "esc\n\"q\"");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(FarmJson, RejectsGarbage)
{
    EXPECT_THROW(JsonValue::parse("{\"a\": }"), EnvError);
    EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), EnvError);
    EXPECT_THROW(JsonValue::parse("{\"a\": 1, \"a\": 2}"), EnvError);
    EXPECT_THROW(JsonValue::parse("[1, 2"), EnvError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), EnvError);
    EXPECT_THROW(JsonValue::parse("01x"), EnvError);
}

// ---- JobSpec ---------------------------------------------------------

TEST(FarmJobSpec, SerializeRoundTrips)
{
    JobSpec spec;
    spec.scene = "CRNVL";
    spec.scale = 0.15f;
    spec.resolution = 128;
    spec.config = "vtq";
    spec.bvhWidth = 8;
    spec.maxBounces = 2;
    spec.sample.enabled = true;
    spec.sample.measureCtas = 4;
    spec.sample.targetIntervals = 6;
    JobSpec back = JobSpec::deserialize(spec.serialize());
    EXPECT_EQ(back.scene, spec.scene);
    EXPECT_EQ(back.scale, spec.scale);
    EXPECT_EQ(back.resolution, spec.resolution);
    EXPECT_EQ(back.config, spec.config);
    EXPECT_EQ(back.bvhWidth, spec.bvhWidth);
    EXPECT_EQ(back.maxBounces, spec.maxBounces);
    EXPECT_EQ(back.sample.enabled, spec.sample.enabled);
    EXPECT_EQ(back.sample.measureCtas, spec.sample.measureCtas);
    EXPECT_EQ(back.sample.targetIntervals, spec.sample.targetIntervals);
    EXPECT_EQ(back.fingerprint(), spec.fingerprint());
}

TEST(FarmJobSpec, StrictParsing)
{
    EXPECT_THROW(JobSpec::deserialize("scene=B\nbogus_key=1\n"),
                 EnvError);
    EXPECT_THROW(JobSpec::deserialize("res=128\n"), EnvError); // no scene
    EXPECT_THROW(JobSpec::deserialize("scene=B\nres=-5\n"), EnvError);
    EXPECT_THROW(JobSpec::deserialize("scene=B\nres=12x\n"), EnvError);
    EXPECT_THROW(JobSpec::deserialize("scene=B\npredict_shared=maybe\n"),
                 EnvError);
    // The knob table's checks fire at parse time, not first when the
    // job materializes or simulates.
    EXPECT_THROW(JobSpec::deserialize("scene=B\nsample_intervals=0\n"),
                 EnvError);
    EXPECT_THROW(JobSpec::deserialize("scene=B\nsample_measure=0\n"),
                 EnvError);
    EXPECT_THROW(JobSpec::deserialize("scene=B\nbvh_width=6\n"), EnvError);
}

/** Every knob with a TRT_* name gives the same JobSpec through the
 *  environment as the same value through its text key. */
TEST(FarmJobSpec, EnvNamesMatchTextKeys)
{
    // A non-default value for each knob the environment can set.
    const std::map<std::string, std::string> values = {
        {"scale", "0.25"},         {"res", "96"},
        {"config", "predict"},     {"bvh_width", "8"},
        {"reorder_bits", "5"},     {"predict_bits", "10"},
        {"predict_shared", "1"},   {"sample", "1"},
        {"sample_measure", "16"},  {"sample_warmup", "5000"},
        {"sample_intervals", "3"}, {"sample_ff_rays", "4096"},
    };
    JobSpec base;
    base.scene = "BUNNY";
    size_t covered = 0;
    for (const JobKnob &k : jobKnobs()) {
        if (!k.env)
            continue;
        SCOPED_TRACE(k.env);
        auto it = values.find(k.key);
        ASSERT_NE(it, values.end()) << "no test value for " << k.key;
        JobSpec text = base;
        text.set(k.key, it->second);
        EXPECT_NE(text.serialize(), base.serialize());
        EnvGuard env(k.env, it->second.c_str());
        EXPECT_EQ(JobSpec::fromEnv(base).serialize(), text.serialize());
        covered++;
    }
    EXPECT_EQ(covered, values.size());
}

TEST(FarmJobSpec, MaterializationValidates)
{
    JobSpec spec;
    spec.scene = "BUNNY";
    spec.config = "warp-drive";
    EXPECT_THROW(spec.gpuConfig(), EnvError);
    spec.config = "vtq";
    EXPECT_NO_THROW(spec.gpuConfig());
    spec.bvhWidth = 6;
    EXPECT_THROW(spec.bvhConfig(), EnvError);
}

TEST(FarmJobSpec, NamedConfigsMatchFactories)
{
    JobSpec spec;
    spec.scene = "BUNNY";
    spec.resolution = 64;
    spec.config = "vtq";
    GpuConfig want = GpuConfig::virtualizedTreeletQueues();
    want.imageWidth = want.imageHeight = 64;
    EXPECT_EQ(spec.gpuConfig().fingerprint(), want.fingerprint());

    spec.config = "prefetch";
    GpuConfig pf = GpuConfig::treeletPrefetch();
    pf.imageWidth = pf.imageHeight = 64;
    EXPECT_EQ(spec.gpuConfig().fingerprint(), pf.fingerprint());

    spec.config = "fifo";
    GpuConfig base;
    base.imageWidth = base.imageHeight = 64;
    EXPECT_EQ(spec.gpuConfig().fingerprint(), base.fingerprint());
}

// ---- manifest expansion ----------------------------------------------

constexpr const char *kGridManifest = R"({
  "name": "grid",
  "defaults": {"res": 32, "scale": 0.05},
  "scenes": ["BUNNY", "CRNVL"],
  "configs": ["fifo", "vtq"],
  "grid": {"bvh_width": [4, 8]}
})";

TEST(FarmManifest, ExpandsCrossProductInOrder)
{
    Manifest m = Manifest::parse(kGridManifest);
    EXPECT_EQ(m.name, "grid");
    ASSERT_EQ(m.jobs.size(), 8u); // 2 scenes × 2 configs × 2 widths
    EXPECT_EQ(m.duplicates, 0u);
    // Scenes outermost, grid axis innermost.
    EXPECT_EQ(m.jobs[0].label(), "BUNNY/fifo/r32/x0.0500000007/w4");
    EXPECT_EQ(m.jobs[1].bvhWidth, 8u);
    EXPECT_EQ(m.jobs[2].config, "vtq");
    EXPECT_EQ(m.jobs[4].scene, "CRNVL");
    for (const JobSpec &j : m.jobs) {
        EXPECT_EQ(j.resolution, 32u);
        EXPECT_FLOAT_EQ(j.scale, 0.05f);
    }
}

TEST(FarmManifest, DedupsByFingerprint)
{
    Manifest m = Manifest::parse(R"({
      "scenes": ["BUNNY"],
      "configs": ["fifo", "fifo", "baseline"],
      "jobs": [{"scene": "BUNNY", "config": "fifo"}]
    })");
    // fifo == baseline == the explicit job: one unique simulation.
    EXPECT_EQ(m.jobs.size(), 1u);
    EXPECT_EQ(m.duplicates, 3u);
}

TEST(FarmManifest, RejectsUnknownKeysAndKnobs)
{
    EXPECT_THROW(Manifest::parse(R"({"scenes": ["B"], "shards": 4})"),
                 EnvError);
    EXPECT_THROW(Manifest::parse(
                     R"({"scenes": ["B"], "defaults": {"rez": 128}})"),
                 EnvError);
    EXPECT_THROW(Manifest::parse(
                     R"({"scenes": ["B"], "grid": {"warp_size": [16]}})"),
                 EnvError);
    EXPECT_THROW(Manifest::parse(
                     R"({"scenes": ["B"], "configs": ["warp-drive"]})"),
                 EnvError);
    EXPECT_THROW(Manifest::parse(R"({"jobs": [{"res": 32}]})"),
                 EnvError); // job without scene
    EXPECT_THROW(Manifest::parse(R"({"name": "x"})"),
                 EnvError); // neither scenes nor jobs
}

/** A knob value the table rejects fails the whole manifest with the
 *  key named, before any job runs (a zero interval count would
 *  otherwise reach the sampler's divide). */
TEST(FarmManifest, RejectsZeroSampleIntervals)
{
    try {
        Manifest::parse(R"({"scenes": ["CRNVL"],
                            "defaults": {"sample": 1,
                                         "sample_intervals": 0}})");
        FAIL() << "expected EnvError";
    } catch (const EnvError &e) {
        EXPECT_NE(std::string(e.what()).find("sample_intervals"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FarmManifest, LoadReadsFile)
{
    TempDir dir("manifest");
    std::string path = dir.sub("m.json");
    std::ofstream(path) << kGridManifest;
    EXPECT_EQ(Manifest::load(path).jobs.size(), 8u);
    EXPECT_THROW(Manifest::load(dir.sub("missing.json")), EnvError);
}

// ---- protocol --------------------------------------------------------

TEST(FarmProtocol, FramesRoundTripThroughPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    JobSpec spec;
    spec.scene = "BUNNY";
    spec.config = "vtq";
    spec.resolution = 64;
    ASSERT_TRUE(writeFrame(fds[1], FarmMsg::Job,
                           encodeJob(7, spec, true)));
    JobOutcome out;
    out.stats = syntheticStats(3);
    out.fingerprint = 0xabcdef;
    out.cacheHit = true;
    out.wallMs = 42;
    ASSERT_TRUE(writeFrame(fds[1], FarmMsg::Result,
                           encodeResult(7, out)));
    ASSERT_TRUE(writeFrame(fds[1], FarmMsg::Error,
                           encodeError(9, "boom")));
    ASSERT_TRUE(writeFrame(fds[1], FarmMsg::Heartbeat,
                           encodeHeartbeat(7)));
    ::close(fds[1]);

    FrameReader reader;
    FarmMsg type;
    std::string payload;
    auto read_frame = [&] {
        while (!reader.next(type, payload))
            if (reader.pump(fds[0]) < 0)
                FAIL() << "unexpected EOF";
    };

    read_frame();
    ASSERT_EQ(type, FarmMsg::Job);
    uint64_t idx;
    JobSpec spec2;
    bool resume = false;
    decodeJob(payload, idx, spec2, resume);
    EXPECT_EQ(idx, 7u);
    EXPECT_TRUE(resume);
    EXPECT_EQ(spec2.fingerprint(), spec.fingerprint());

    read_frame();
    ASSERT_EQ(type, FarmMsg::Result);
    JobOutcome out2;
    ASSERT_TRUE(decodeResult(payload, idx, out2));
    EXPECT_EQ(idx, 7u);
    EXPECT_TRUE(out2.cacheHit);
    EXPECT_EQ(out2.wallMs, 42u);
    EXPECT_EQ(RunStatsIo::fingerprint(out2.stats),
              RunStatsIo::fingerprint(out.stats));

    read_frame();
    ASSERT_EQ(type, FarmMsg::Error);
    std::string msg;
    decodeError(payload, idx, msg);
    EXPECT_EQ(idx, 9u);
    EXPECT_EQ(msg, "boom");

    read_frame();
    ASSERT_EQ(type, FarmMsg::Heartbeat);
    EXPECT_TRUE(decodeHeartbeat(payload, idx));
    EXPECT_EQ(idx, 7u);

    // Writer closed: EOF, not a truncated frame.
    EXPECT_FALSE(reader.next(type, payload));
    EXPECT_LT(reader.pump(fds[0]), 0);
    ::close(fds[0]);
}

TEST(FarmProtocol, TornHeaderIsNotAFrame)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // 10 bytes of a 16-byte header: what a SIGKILL mid-write leaves.
    std::string partial("\x46\x54\x52\x54\x01\x00\x00\x00\x05\x00", 10);
    ASSERT_EQ(::write(fds[1], partial.data(), partial.size()),
              ssize_t(partial.size()));
    ::close(fds[1]);
    FrameReader reader;
    FarmMsg type;
    std::string payload;
    EXPECT_GT(reader.pump(fds[0]), 0);
    EXPECT_FALSE(reader.next(type, payload)); // incomplete, not corrupt
    EXPECT_LT(reader.pump(fds[0]), 0);        // EOF
    ::close(fds[0]);
}

TEST(FarmProtocol, CorruptMagicThrows)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string junk(32, 'Z');
    ASSERT_EQ(::write(fds[1], junk.data(), junk.size()),
              ssize_t(junk.size()));
    ::close(fds[1]);
    FrameReader reader;
    FarmMsg type;
    std::string payload;
    EXPECT_GT(reader.pump(fds[0]), 0);
    EXPECT_THROW(reader.next(type, payload), EnvError);
    ::close(fds[0]);
}

// ---- run-cache aliasing & multi-process safety -----------------------

/** JobSpec::fingerprint() must equal the key runScene() computes for
 *  the same knobs — farm jobs and hand-run benches share cache
 *  entries. A bench warms the cache; the job must see a hit. */
TEST(FarmRunCache, JobSpecAliasesBenchEntries)
{
    TempDir dir("alias");
    EnvGuard cache("TRT_CACHE", dir.path().c_str());
    resetHarnessTiming();

    JobSpec spec;
    spec.scene = "BUNNY";
    spec.scale = 0.03f;
    spec.resolution = 16;
    spec.config = "vtq";

    EXPECT_FALSE(cachedRunExists(spec.fingerprint(), spec.scene));

    // The bench path: explicit GpuConfig through runScene.
    HarnessOptions opt;
    opt.job.scale = spec.scale;
    opt.simThreads = 1;
    RunStats bench = runScene(spec.scene, spec.gpuConfig(), opt);

    // Same knobs as a declarative job: must be a cache hit with
    // bit-identical stats.
    EXPECT_TRUE(cachedRunExists(spec.fingerprint(), spec.scene));
    JobOutcome job = runJob(spec, {});
    EXPECT_TRUE(job.cacheHit);
    EXPECT_EQ(RunStatsIo::fingerprint(job.stats),
              RunStatsIo::fingerprint(bench));
}

/** Concurrent stores of the same fingerprint from forked processes
 *  must never produce a torn blob (atomic temp+rename). */
TEST(FarmRunCache, ConcurrentStoresStayValid)
{
    TempDir dir("mpstore");
    EnvGuard cache("TRT_CACHE", dir.path().c_str());
    RunStats st = syntheticStats(42);
    constexpr uint64_t kFp = 0x1234abcd5678ef00ull;

    std::vector<pid_t> kids;
    for (int i = 0; i < 4; i++) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            for (int rep = 0; rep < 25; rep++)
                storeCachedRun(kFp, "SYNTH", st);
            ::_exit(0);
        }
        kids.push_back(pid);
    }
    for (int rep = 0; rep < 25; rep++)
        storeCachedRun(kFp, "SYNTH", st);
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    RunStats loaded;
    ASSERT_TRUE(loadCachedRun(kFp, "SYNTH", loaded));
    EXPECT_EQ(RunStatsIo::fingerprint(loaded),
              RunStatsIo::fingerprint(st));
    // No leftover temp files.
    size_t stray = 0;
    for (const auto &de : std::filesystem::directory_iterator(
             std::filesystem::path(dir.path()) / "runs"))
        stray += de.path().extension() != ".bin";
    EXPECT_EQ(stray, 0u);
}

// ---- end-to-end crash/retry sweep ------------------------------------

constexpr const char *kSweepManifest = R"({
  "name": "e2e",
  "defaults": {"res": 16, "scale": 0.03},
  "scenes": ["BUNNY", "CRNVL"],
  "configs": ["fifo", "vtq"]
})";

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** A multi-worker sweep with one injected SIGKILL mid-job must retry,
 *  resume from the crash snapshot, and land RunStats bit-identical to
 *  running every job serially — the ISSUE's acceptance criterion. */
TEST(FarmEndToEnd, CrashedSweepMatchesSerialBitIdentically)
{
    Manifest m = Manifest::parse(kSweepManifest);
    ASSERT_EQ(m.jobs.size(), 4u);

    TempDir serial_dir("serial");
    TempDir farm_dir("farm");
    std::string serial_csv, farm_csv;
    std::vector<uint64_t> serial_fps, farm_fps;

    {
        EnvGuard cache("TRT_CACHE", serial_dir.path().c_str());
        FarmOptions opt;
        opt.serial = true;
        opt.outDir = serial_dir.sub("out");
        opt.simThreads = 1;
        FarmResult res = runFarm(m, opt);
        EXPECT_EQ(res.simulated, 4u);
        EXPECT_EQ(res.failed, 0u);
        EXPECT_EQ(res.workerCrashes, 0u);
        for (const JobRecord &r : res.jobs)
            serial_fps.push_back(RunStatsIo::fingerprint(r.stats));
        serial_csv = readFile(opt.outDir + "/e2e.csv");
    }
    {
        EnvGuard cache("TRT_CACHE", farm_dir.path().c_str());
        EnvGuard snap("TRT_SNAPSHOT_DIR",
                      farm_dir.sub("snaps").c_str());
        FarmOptions opt;
        opt.workers = 2;
        opt.retries = 2;
        opt.outDir = farm_dir.sub("out");
        opt.simThreads = 1;
        // One worker SIGKILLs itself mid-simulation (snapshot already
        // on disk); cycle 2000 is mid-run for every job at this size.
        opt.injectCrashSentinel = farm_dir.sub("crash.sentinel");
        opt.injectCrashAtCycle = 2000;
        FarmResult res = runFarm(m, opt);
        EXPECT_EQ(res.simulated, 4u);
        EXPECT_EQ(res.failed, 0u);
        EXPECT_GE(res.workerCrashes, 1u);
        EXPECT_GE(res.retries, 1u);
        EXPECT_TRUE(
            std::filesystem::exists(farm_dir.sub("crash.sentinel")));
        for (const JobRecord &r : res.jobs)
            farm_fps.push_back(RunStatsIo::fingerprint(r.stats));
        farm_csv = readFile(opt.outDir + "/e2e.csv");

        // JSONL streamed one line per job.
        std::istringstream jsonl(readFile(opt.outDir + "/e2e.jsonl"));
        std::string line;
        size_t lines = 0;
        while (std::getline(jsonl, line))
            lines += !line.empty();
        EXPECT_EQ(lines, 4u);
    }

    EXPECT_EQ(serial_fps, farm_fps);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, farm_csv);
}

/** Re-running a sweep over a warm cache must skip every job,
 *  observably (cached count), without touching a worker. */
TEST(FarmEndToEnd, WarmCacheSkipsEveryJob)
{
    Manifest m = Manifest::parse(R"({
      "name": "warm",
      "defaults": {"res": 16, "scale": 0.03},
      "scenes": ["BUNNY"],
      "configs": ["fifo", "vtq"]
    })");

    TempDir dir("warm");
    EnvGuard cache("TRT_CACHE", dir.path().c_str());
    FarmOptions opt;
    opt.serial = true;
    opt.outDir = dir.sub("out");
    opt.simThreads = 1;
    FarmResult first = runFarm(m, opt);
    EXPECT_EQ(first.simulated, 2u);
    EXPECT_EQ(first.cached, 0u);

    FarmResult second = runFarm(m, opt);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.cached, 2u);
    EXPECT_EQ(second.failed, 0u);
    for (size_t i = 0; i < first.jobs.size(); i++)
        EXPECT_EQ(RunStatsIo::fingerprint(second.jobs[i].stats),
                  RunStatsIo::fingerprint(first.jobs[i].stats));
}

} // namespace
} // namespace trt
