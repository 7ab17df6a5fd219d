/**
 * @file
 * Telemetry-layer tests (DESIGN.md §12): the counter registry is the
 * single source of truth for serialization and sampled-counter
 * enumeration; telemetry off is bit-invariant (no RunStats change, no
 * files); telemetry on produces byte-identical traces across
 * TRT_SIM_THREADS and SIMD modes and across BVH widths' own runs; a
 * snapshot-resumed run's trace equals the uninterrupted run's.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bvh/bvh.hh"
#include "core/arch.hh"
#include "geom/simd.hh"
#include "gpu/run_stats_io.hh"
#include "gpu/sampled.hh"
#include "harness/harness.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/counter_registry.hh"
#include "telemetry/telemetry.hh"

namespace trt
{
namespace
{

namespace fs = std::filesystem;

fs::path
telemDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("trt_telem_" + name);
    fs::remove_all(p);
    return p;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    EXPECT_TRUE(is) << "missing " << p;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

GpuConfig
sized(GpuConfig cfg)
{
    cfg.imageWidth = cfg.imageHeight = 64;
    cfg.maxCtasPerSm = 2; // Force ray-virtualization traffic.
    return cfg;
}

GpuConfig
telemetrized(GpuConfig cfg, const fs::path &dir)
{
    cfg.telem.enabled = true;
    cfg.telem.trace = true;
    cfg.telem.everyCycles = 512;
    cfg.telem.outDir = dir.string();
    cfg.telem.outBase = "t";
    return cfg;
}

// ---- counter registry ----------------------------------------------

TEST(CounterRegistry, EveryCounterRoundTripsThroughRunStatsIo)
{
    // Stamp every registered counter with a distinct value...
    RunStats st;
    uint64_t next = 1;
    forEachRunCounter(st, [&](const CounterInfo &ci, auto &v) {
        EXPECT_FALSE(ci.name.empty());
        v = std::decay_t<decltype(v)>(next++);
    });
    ASSERT_GT(next, 40u) << "registry suspiciously small";

    // ...then prove save/load moves all of them, none twice.
    std::ostringstream os(std::ios::binary);
    RunStatsIo::save(os, st);
    std::istringstream is(os.str(), std::ios::binary);
    RunStats back;
    ASSERT_TRUE(RunStatsIo::load(is, back));
    uint64_t expect = 1;
    forEachRunCounter(back, [&](const CounterInfo &ci, auto &v) {
        EXPECT_EQ(uint64_t(v), expect++) << ci.name;
    });
    EXPECT_EQ(RunStatsIo::fingerprint(st), RunStatsIo::fingerprint(back));
}

TEST(CounterRegistry, NamesAreUniqueAndUnitted)
{
    RunStats st;
    std::vector<std::string> names;
    forEachRunCounter(st, [&](const CounterInfo &ci, auto &) {
        EXPECT_NE(ci.unit, nullptr) << ci.name;
        names.push_back(ci.name);
    });
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end())
        << "duplicate counter name registered";
}

TEST(CounterRegistry, WorkCountersMatchSampledEnumeration)
{
    // The sampler extrapolates exactly the Work-kind uint64 counters;
    // its public name list must be the registry's Work subset, in
    // order — this is what replaced the hand-maintained list.
    RunStats st;
    std::vector<std::string> work;
    forEachRunCounter(st, [&](const CounterInfo &ci, auto &v) {
        if (ci.kind == CounterKind::Work &&
            sizeof(v) == sizeof(uint64_t))
            work.push_back(ci.name);
    });
    EXPECT_EQ(work, sampleCounterNames());
}

TEST(CounterRegistry, HighWatersMergeByMaxNotSum)
{
    RtStats a, b;
    a.countTableHighWater = 7;
    b.countTableHighWater = 5;
    a.nodeVisits = 10;
    b.nodeVisits = 32;
    a.accumulate(b);
    EXPECT_EQ(a.countTableHighWater, 7u);
    EXPECT_EQ(a.nodeVisits, 42u);
}

// ---- off-by-default invariance -------------------------------------

TEST(Telemetry, OffByDefaultChangesNothingAndWritesNothing)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f);
    RunStats off = simulate(cfg, b.scene, b.bvh);

    fs::path dir = telemDir("invariance");
    RunStats on = simulate(telemetrized(cfg, dir), b.scene, b.bvh);

    // Observability only: bit-identical RunStats with telemetry on.
    EXPECT_EQ(RunStatsIo::fingerprint(off), RunStatsIo::fingerprint(on));
    EXPECT_TRUE(fs::exists(dir / "t.tsbin"));
    EXPECT_TRUE(fs::exists(dir / "t.trace.json"));

    // And with telemetry off, no output directory appears at all.
    fs::path ghost = telemDir("ghost");
    GpuConfig plain = cfg;
    plain.telem.outDir = ghost.string();
    simulate(plain, b.scene, b.bvh);
    EXPECT_FALSE(fs::exists(ghost));
}

TEST(Telemetry, ConfigFingerprintExcludesTelemetry)
{
    GpuConfig a = sized(GpuConfig::virtualizedTreeletQueues());
    GpuConfig b = telemetrized(a, telemDir("fp"));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// ---- trace determinism matrix --------------------------------------

/** Run CRNVL under @p cfg with the given thread count and SIMD mode,
 *  returning {tsbin bytes, trace.json bytes}. */
std::pair<std::string, std::string>
traceBytes(GpuConfig cfg, const fs::path &dir, uint32_t threads,
           bool simd, uint32_t bvh_width)
{
    bool simd_before = simdEnabled();
    setSimdEnabled(simd);
    BvhConfig bc;
    bc.width = bvh_width;
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f, bc);
    cfg = telemetrized(cfg, dir);
    cfg.simThreads = threads;
    simulate(cfg, b.scene, b.bvh);
    setSimdEnabled(simd_before);
    return {slurp(dir / "t.tsbin"), slurp(dir / "t.trace.json")};
}

class TelemetryWidth : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(TelemetryWidth, TraceBytesIdenticalAcrossThreadsAndSimd)
{
    uint32_t width = GetParam();
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());

    auto ref = traceBytes(cfg, telemDir("ref"), 1, simdEnabled(), width);
    EXPECT_FALSE(ref.first.empty());

    auto threaded =
        traceBytes(cfg, telemDir("thr"), 4, simdEnabled(), width);
    EXPECT_EQ(ref.first, threaded.first) << "tsbin across threads";
    EXPECT_EQ(ref.second, threaded.second) << "json across threads";

    if (simdCompiledIn()) {
        auto scalar = traceBytes(cfg, telemDir("sca"), 4, false, width);
        EXPECT_EQ(ref.first, scalar.first) << "tsbin across SIMD";
        EXPECT_EQ(ref.second, scalar.second) << "json across SIMD";
    }
}

INSTANTIATE_TEST_SUITE_P(AcrossBvhWidths, TelemetryWidth,
                         ::testing::Values(4u, 8u));

// ---- snapshot/resume continuity ------------------------------------

TEST(Telemetry, ResumedTraceEqualsUninterruptedTrace)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f);

    fs::path whole_dir = telemDir("whole");
    RunStats whole =
        simulate(telemetrized(cfg, whole_dir), b.scene, b.bvh);
    std::string whole_bin = slurp(whole_dir / "t.tsbin");
    std::string whole_json = slurp(whole_dir / "t.trace.json");

    // Halt mid-run: no files may exist yet (no partial traces)...
    fs::path part_dir = telemDir("part");
    fs::path snap_dir = telemDir("snaps");
    fs::create_directories(snap_dir);
    SnapshotPolicy halt;
    halt.dir = snap_dir.string();
    halt.worldFp = 0x7e1e;
    halt.haltAtCycle = whole.cycles / 2;
    GpuConfig tcfg = telemetrized(cfg, part_dir);
    EXPECT_THROW(
        simulateWithSnapshots(tcfg, b.scene, b.bvh, halt, false),
        SimulationHalted);
    EXPECT_FALSE(fs::exists(part_dir / "t.tsbin"));

    // ...and the resumed run must write the full byte-identical trace:
    // restored streams + its own, no gap and no duplicate at the seam.
    SnapshotPolicy resume;
    resume.dir = snap_dir.string();
    resume.worldFp = 0x7e1e;
    GpuConfig rcfg = tcfg;
    rcfg.simThreads = 4; // Resume under a different fan-out, too.
    RunStats resumed =
        simulateWithSnapshots(rcfg, b.scene, b.bvh, resume, true);
    EXPECT_EQ(RunStatsIo::fingerprint(whole),
              RunStatsIo::fingerprint(resumed));
    EXPECT_EQ(whole_bin, slurp(part_dir / "t.tsbin"));
    EXPECT_EQ(whole_json, slurp(part_dir / "t.trace.json"));
}

/** The GPU series ends with one sample at the run's last cycle,
 *  whatever the sampling period, so Fig. 11's last window covers the
 *  run's tail. */
TEST(Telemetry, GpuSeriesEndsAtLastCycle)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f);
    fs::path dir = telemDir("tail");
    GpuConfig tcfg = telemetrized(cfg, dir);
    RunStats st = simulate(tcfg, b.scene, b.bvh);
    // A period dividing the run would place the last sample there
    // anyway and prove nothing.
    ASSERT_NE(st.cycles % tcfg.telem.everyCycles, 0u);

    std::vector<TelemGpuSample> g =
        Telemetry::readBinary((dir / "t.tsbin").string()).gpuSamples();
    ASSERT_GE(g.size(), 2u);
    EXPECT_EQ(g.back().cycle, st.cycles);
    EXPECT_LT(g[g.size() - 2].cycle, st.cycles);
}

// ---- telemetry state in snapshots ----------------------------------

TEST(Telemetry, SaveStateRefusesUndrainedChannels)
{
    TelemetryConfig tc;
    tc.enabled = true;
    Telemetry t(tc, 2);
    t.channel(0).samplingOn = true;
    t.channel(0).every = 64;
    t.channel(0).startSample(64);
    Serializer s;
    EXPECT_THROW(t.saveState(s), SnapshotError);
    t.commit();
    EXPECT_NO_THROW(t.saveState(s));
}

TEST(Telemetry, StateRoundTripsThroughSnapshot)
{
    TelemetryConfig tc;
    tc.enabled = true;
    tc.trace = true;
    tc.everyCycles = 64;
    Telemetry t(tc, 2);
    for (uint32_t sm = 0; sm < 2; sm++) {
        t.channel(sm).samplingOn = true;
        t.channel(sm).eventsOn = true;
        t.channel(sm).every = 64;
    }
    TelemSample &s0 = t.channel(1).startSample(64);
    s0.raysHeld = 5;
    s0.nodeVisits = 99;
    t.channel(0).event(70, TelemEventKind::TreeletSwitch, 3, 0);
    TelemGpuSample g;
    g.cycle = 64;
    g.dramReadBytes = 4096;
    t.pushGpuSample(g);
    t.commit();

    Serializer ser;
    t.saveState(ser);
    Telemetry back(tc, 2);
    Deserializer d(ser.bytes());
    back.loadState(d);

    ASSERT_EQ(back.samples().size(), 1u);
    EXPECT_EQ(back.samples()[0].sm, 1u);
    EXPECT_EQ(back.samples()[0].nodeVisits, 99u);
    ASSERT_EQ(back.gpuSamples().size(), 1u);
    EXPECT_EQ(back.gpuSamples()[0].dramReadBytes, 4096u);
    ASSERT_EQ(back.events().size(), 1u);
    EXPECT_EQ(back.events()[0].kind, TelemEventKind::TreeletSwitch);
    // Sampling cursors restored: the next due cycles are preserved.
    EXPECT_EQ(back.channel(1).nextSampleAt, t.channel(1).nextSampleAt);
}

TEST(Telemetry, ReadBinaryReturnsWrittenStreams)
{
    fs::path dir = telemDir("read_binary");
    TelemetryConfig tc;
    tc.enabled = true;
    tc.trace = true;
    tc.everyCycles = 64;
    tc.outDir = dir.string();
    tc.outBase = "rb";
    Telemetry t(tc, 2);
    t.channel(1).startSample(64).nodeVisits = 7;
    t.channel(0).event(70, TelemEventKind::QueueDrained, 3, 4);
    TelemGpuSample g;
    g.cycle = 64;
    g.bvhL1Accesses = 10;
    g.bvhL1Misses = 4;
    t.pushGpuSample(g);
    t.commit();
    t.writeFiles();

    Telemetry back = Telemetry::readBinary(t.binPath());
    EXPECT_EQ(back.config().everyCycles, 64u);
    EXPECT_TRUE(back.config().trace);
    EXPECT_EQ(back.numSms(), 2u);
    ASSERT_EQ(back.samples().size(), 1u);
    EXPECT_EQ(back.samples()[0].sm, 1u);
    EXPECT_EQ(back.samples()[0].nodeVisits, 7u);
    ASSERT_EQ(back.gpuSamples().size(), 1u);
    EXPECT_EQ(back.gpuSamples()[0].bvhL1Misses, 4u);
    ASSERT_EQ(back.events().size(), 1u);
    EXPECT_EQ(back.events()[0].kind, TelemEventKind::QueueDrained);
    EXPECT_EQ(back.events()[0].a1, 4u);

    EXPECT_THROW(Telemetry::readBinary((dir / "absent.tsbin").string()),
                 std::runtime_error);
    // One byte short: the decoder runs out of input.
    std::string bytes = slurp(t.binPath());
    std::ofstream((dir / "short.tsbin").string(), std::ios::binary)
        << bytes.substr(0, bytes.size() - 1);
    EXPECT_THROW(Telemetry::readBinary((dir / "short.tsbin").string()),
                 SnapshotError);
}

/** Cumulative gpu samples, the first at cycle 0, whose window i has
 *  @p num[i] misses out of @p den[i] BVH L1 accesses. */
std::vector<TelemGpuSample>
cumulative(const std::vector<uint64_t> &num,
           const std::vector<uint64_t> &den)
{
    std::vector<TelemGpuSample> out(1);
    TelemGpuSample g;
    for (size_t i = 0; i < num.size(); i++) {
        g.cycle += 10;
        g.bvhL1Misses += num[i];
        g.bvhL1Accesses += den[i];
        out.push_back(g);
    }
    return out;
}

TEST(Telemetry, BvhL1MissSeriesMergesWindows)
{
    // 8 windows with 8 accesses each and misses = window index.
    auto r = bvhL1MissSeries(
        cumulative({0, 1, 2, 3, 4, 5, 6, 7}, {8, 8, 8, 8, 8, 8, 8, 8}), 4);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_DOUBLE_EQ(r[0], 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(r[1], 5.0 / 16.0);
    EXPECT_DOUBLE_EQ(r[2], 9.0 / 16.0);
    EXPECT_DOUBLE_EQ(r[3], 13.0 / 16.0);
}

TEST(Telemetry, BvhL1MissSeriesEdgeCases)
{
    EXPECT_TRUE(bvhL1MissSeries({}, 4).empty()); // no samples
    TelemGpuSample g;
    g.bvhL1Accesses = 4;
    g.bvhL1Misses = 1;
    auto single = bvhL1MissSeries({g}, 1); // one sample, one window
    ASSERT_EQ(single.size(), 1u);
    EXPECT_DOUBLE_EQ(single[0], 0.25);
    auto one = cumulative({1}, {2});
    EXPECT_TRUE(bvhL1MissSeries(one, 0).empty());
    auto r = bvhL1MissSeries(one, 3); // more buckets than windows
    ASSERT_EQ(r.size(), 3u);
    EXPECT_DOUBLE_EQ(r[0], 0.5);
    EXPECT_DOUBLE_EQ(r[2], 0.5);
    // A window without accesses reads 0.
    r = bvhL1MissSeries(cumulative({1, 0}, {4, 0}), 2);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_DOUBLE_EQ(r[0], 0.25);
    EXPECT_DOUBLE_EQ(r[1], 0.0);
}

} // anonymous namespace
} // namespace trt
