/**
 * @file
 * Checkpoint/restore subsystem tests (DESIGN.md §7): serializer
 * round-trips and schema-drift detection, snapshot-file validation
 * (CRC, truncation, fingerprint), and the hard acceptance bar —
 * resuming a halted run must reproduce the uninterrupted run's
 * RunStats bit-for-bit at any TRT_SIM_THREADS and either SIMD mode.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "core/arch.hh"
#include "geom/simd.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "snapshot/snapshot.hh"

namespace trt
{
namespace
{

namespace fs = std::filesystem;

/** Fresh per-test snapshot directory under the gtest temp root. */
fs::path
snapDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("trt_snap_" + name);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

// ---- serializer ----------------------------------------------------

TEST(Serializer, RoundTripsPrimitivesAndChunks)
{
    Serializer s;
    s.beginChunk("OUTR");
    s.u8(0xAB);
    s.b(true);
    s.u32(0xDEADBEEFu);
    s.u64(0x0123456789ABCDEFull);
    s.f32(1.5f);
    s.str("hello");
    s.vecPod(std::vector<uint64_t>{1, 2, 3});
    s.beginChunk("INNR");
    s.u32(42);
    s.endChunk();
    s.endChunk();

    Deserializer d(s.bytes());
    d.beginChunk("OUTR");
    EXPECT_EQ(d.u8(), 0xAB);
    EXPECT_TRUE(d.b());
    EXPECT_EQ(d.u32(), 0xDEADBEEFu);
    EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(d.f32(), 1.5f);
    EXPECT_EQ(d.str(), "hello");
    EXPECT_EQ(d.vecPod<uint64_t>(), (std::vector<uint64_t>{1, 2, 3}));
    d.beginChunk("INNR");
    EXPECT_EQ(d.u32(), 42u);
    d.endChunk();
    d.endChunk();
    EXPECT_TRUE(d.atEnd());
}

TEST(Serializer, ChunkTagMismatchThrows)
{
    Serializer s;
    s.beginChunk("AAAA");
    s.endChunk();
    Deserializer d(s.bytes());
    EXPECT_THROW(d.beginChunk("BBBB"), SnapshotError);
}

TEST(Serializer, SchemaDriftFailsAtTheOwningChunk)
{
    // One side wrote two fields, the other reads one: endChunk must
    // flag the unconsumed bytes instead of silently skewing the rest.
    Serializer s;
    s.beginChunk("DRFT");
    s.u32(1);
    s.u32(2);
    s.endChunk();
    Deserializer d(s.bytes());
    d.beginChunk("DRFT");
    EXPECT_EQ(d.u32(), 1u);
    EXPECT_THROW(d.endChunk(), SnapshotError);
}

TEST(Serializer, TruncationThrows)
{
    Serializer s;
    s.u64(1000); // vector length far beyond the stream
    Deserializer d(s.bytes());
    EXPECT_THROW(d.vecPod<uint64_t>(), SnapshotError);

    Deserializer d2(s.bytes().data(), 3);
    EXPECT_THROW(d2.u64(), SnapshotError);
}

TEST(Serializer, BoolRangeChecked)
{
    Serializer s;
    s.u8(2);
    Deserializer d(s.bytes());
    EXPECT_THROW(d.b(), SnapshotError);
}

TEST(Serializer, Crc32MatchesKnownVector)
{
    // zlib's crc32("123456789") reference value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

// ---- snapshot files ------------------------------------------------

std::vector<uint8_t>
somePayload()
{
    Serializer s;
    s.beginChunk("TEST");
    for (uint32_t i = 0; i < 256; i++)
        s.u32(i * 2654435761u);
    s.endChunk();
    return s.take();
}

TEST(SnapshotFile, WriteReadRoundTrips)
{
    fs::path dir = snapDir("roundtrip");
    std::vector<uint8_t> payload = somePayload();
    fs::path p = writeSnapshotFile(dir.string(), 0xFEEDull, 123, payload);
    EXPECT_EQ(p.filename().string(), snapshotFileName(0xFEEDull, 123));
    EXPECT_EQ(readSnapshotPayload(p, 0xFEEDull), payload);
}

TEST(SnapshotFile, RejectsCorruptPayload)
{
    fs::path dir = snapDir("corrupt");
    fs::path p =
        writeSnapshotFile(dir.string(), 0xFEEDull, 5, somePayload());
    {
        std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(40 + 17); // a byte inside the payload
        char c = 0x7F;
        f.write(&c, 1);
    }
    EXPECT_THROW(readSnapshotPayload(p, 0xFEEDull), SnapshotError);
}

TEST(SnapshotFile, RejectsTruncation)
{
    fs::path dir = snapDir("trunc");
    fs::path p =
        writeSnapshotFile(dir.string(), 0xFEEDull, 5, somePayload());
    fs::resize_file(p, fs::file_size(p) / 2);
    EXPECT_THROW(readSnapshotPayload(p, 0xFEEDull), SnapshotError);
}

TEST(SnapshotFile, RejectsStaleFingerprint)
{
    fs::path dir = snapDir("stale");
    fs::path p =
        writeSnapshotFile(dir.string(), 0xFEEDull, 5, somePayload());
    EXPECT_THROW(readSnapshotPayload(p, 0xBEEFull), SnapshotError);
}

TEST(SnapshotFile, FindNewestPicksHighestCycleAndSkipsCorrupt)
{
    fs::path dir = snapDir("newest");
    writeSnapshotFile(dir.string(), 0xFEEDull, 100, somePayload());
    writeSnapshotFile(dir.string(), 0xFEEDull, 300, somePayload());
    writeSnapshotFile(dir.string(), 0xFEEDull, 200, somePayload());
    // A different world's snapshot must never be considered.
    writeSnapshotFile(dir.string(), 0xBEEFull, 900, somePayload());

    auto best = findNewestValidSnapshot(dir.string(), 0xFEEDull);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->filename().string(), snapshotFileName(0xFEEDull, 300));

    // Corrupt the newest: the next-best valid one must win.
    fs::resize_file(*best, 10);
    best = findNewestValidSnapshot(dir.string(), 0xFEEDull);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->filename().string(), snapshotFileName(0xFEEDull, 200));

    EXPECT_FALSE(
        findNewestValidSnapshot(dir.string(), 0x1111ull).has_value());
}

TEST(SnapshotFile, RemoveSnapshotsForIsFingerprintScoped)
{
    fs::path dir = snapDir("remove");
    writeSnapshotFile(dir.string(), 0xFEEDull, 1, somePayload());
    writeSnapshotFile(dir.string(), 0xFEEDull, 2, somePayload());
    writeSnapshotFile(dir.string(), 0xBEEFull, 3, somePayload());
    EXPECT_EQ(removeSnapshotsFor(dir.string(), 0xFEEDull), 2u);
    EXPECT_FALSE(
        findNewestValidSnapshot(dir.string(), 0xFEEDull).has_value());
    EXPECT_TRUE(
        findNewestValidSnapshot(dir.string(), 0xBEEFull).has_value());
}

// ---- crash/resume determinism --------------------------------------

GpuConfig
sized(GpuConfig cfg)
{
    cfg.imageWidth = cfg.imageHeight = 64;
    // Force ray virtualization traffic, as in determinism_test.
    cfg.maxCtasPerSm = 2;
    return cfg;
}

void
expectIdentical(const RunStats &a, const RunStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.framebuffer, b.framebuffer) << what;
    EXPECT_EQ(a.raysTraced, b.raysTraced) << what;
    EXPECT_EQ(a.aluLaneInstrs, b.aluLaneInstrs) << what;
    EXPECT_EQ(a.ctaSaves, b.ctaSaves) << what;
    EXPECT_EQ(a.ctaRestores, b.ctaRestores) << what;
    EXPECT_EQ(RunStatsIo::fingerprint(a), RunStatsIo::fingerprint(b))
        << what;
}

/** Run to haltAtCycle (writing a snapshot), then resume with
 *  @p resume_threads workers and return the completed stats. */
RunStats
haltAndResume(const std::string &scene, GpuConfig cfg, uint64_t halt_cycle,
              const fs::path &dir, uint32_t resume_threads, uint64_t fp)
{
    const SceneBundle &b = getSceneBundle(scene, 0.25f);
    SnapshotPolicy halt;
    halt.dir = dir.string();
    halt.worldFp = fp;
    halt.haltAtCycle = halt_cycle;
    bool halted = false;
    try {
        simulateWithSnapshots(cfg, b.scene, b.bvh, halt, false);
    } catch (const SimulationHalted &e) {
        halted = true;
        EXPECT_GE(e.cycle, halt_cycle);
        EXPECT_TRUE(fs::exists(e.snapshotPath));
    }
    EXPECT_TRUE(halted) << scene << ": run finished before halt cycle "
                        << halt_cycle;

    SnapshotPolicy resume;
    resume.dir = dir.string();
    resume.worldFp = fp;
    GpuConfig rcfg = cfg;
    rcfg.simThreads = resume_threads;
    return simulateWithSnapshots(rcfg, b.scene, b.bvh, resume, true);
}

class SnapshotScene : public ::testing::TestWithParam<const char *>
{
};

/** The acceptance bar: crash at mid-run, resume, and the stats must be
 *  bit-identical to the uninterrupted run — including when the resume
 *  uses a different worker-thread count than the capture. */
TEST_P(SnapshotScene, ResumeBitIdenticalAcrossThreadCounts)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = getSceneBundle(GetParam(), 0.25f);
    RunStats ref = simulate(cfg, b.scene, b.bvh);
    uint64_t halt = ref.cycles / 2;
    ASSERT_GT(halt, 0u);

    for (uint32_t threads : {1u, 4u}) {
        fs::path dir = snapDir(std::string("resume_") + GetParam() + "_t" +
                               std::to_string(threads));
        RunStats res =
            haltAndResume(GetParam(), cfg, halt, dir, threads, 0xF00Dull);
        expectIdentical(ref, res,
                        std::string("resume/") + GetParam() + " @" +
                            std::to_string(threads) + " threads");
    }
}

/** Restores the process-wide SIMD toggle on scope exit. */
struct SimdGuard
{
    ~SimdGuard() { setSimdEnabled(true); }
};

/** Capture with SIMD intersection kernels on, resume with them off
 *  (and vice versa): the snapshot stores traversal state, not kernel
 *  choice, and the kernels are bit-identical (DESIGN.md §6). */
TEST_P(SnapshotScene, ResumeBitIdenticalAcrossSimdToggle)
{
    if (!simdCompiledIn())
        GTEST_SKIP() << "scalar-only build (TRT_SIMD=OFF)";
    SimdGuard guard;
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = getSceneBundle(GetParam(), 0.25f);
    setSimdEnabled(true);
    RunStats ref = simulate(cfg, b.scene, b.bvh);
    uint64_t halt = ref.cycles / 2;
    ASSERT_GT(halt, 0u);

    for (bool resume_simd : {true, false}) {
        fs::path dir = snapDir(std::string("simd_") + GetParam() +
                               (resume_simd ? "_on" : "_off"));
        const SceneBundle &bd = getSceneBundle(GetParam(), 0.25f);
        SnapshotPolicy halt_pol;
        halt_pol.dir = dir.string();
        halt_pol.worldFp = 0xF00Dull;
        halt_pol.haltAtCycle = halt;
        setSimdEnabled(!resume_simd); // capture under the *other* mode
        bool halted = false;
        try {
            simulateWithSnapshots(cfg, bd.scene, bd.bvh, halt_pol, false);
        } catch (const SimulationHalted &) {
            halted = true;
        }
        ASSERT_TRUE(halted);
        setSimdEnabled(resume_simd);
        SnapshotPolicy resume_pol;
        resume_pol.dir = dir.string();
        resume_pol.worldFp = 0xF00Dull;
        GpuConfig rcfg = cfg;
        rcfg.simThreads = 4;
        RunStats res =
            simulateWithSnapshots(rcfg, bd.scene, bd.bvh, resume_pol, true);
        expectIdentical(ref, res,
                        std::string("simd-flip/") + GetParam() +
                            (resume_simd ? " off->on" : " on->off"));
    }
}

INSTANTIATE_TEST_SUITE_P(AcrossScenes, SnapshotScene,
                         ::testing::Values("CRNVL", "BUNNY", "SPNZA"));

/** The compressed 8-wide backend serializes wider traversal frames
 *  (stack entries address 8-slot nodes): crash/resume over the
 *  width-8 tree must stay bit-identical, including resume at a
 *  different worker-thread count. */
TEST(Snapshot, Wide8ResumeBitIdentical)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    BvhConfig bc;
    bc.width = 8;
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f, bc);
    RunStats ref = simulate(cfg, b.scene, b.bvh);
    uint64_t halt = ref.cycles / 2;
    ASSERT_GT(halt, 0u);

    for (uint32_t threads : {1u, 4u}) {
        fs::path dir =
            snapDir("wide8_t" + std::to_string(threads));
        SnapshotPolicy halt_pol;
        halt_pol.dir = dir.string();
        halt_pol.worldFp = 0x8F00Dull;
        halt_pol.haltAtCycle = halt;
        EXPECT_THROW(
            simulateWithSnapshots(cfg, b.scene, b.bvh, halt_pol, false),
            SimulationHalted);
        SnapshotPolicy resume;
        resume.dir = dir.string();
        resume.worldFp = 0x8F00Dull;
        GpuConfig rcfg = cfg;
        rcfg.simThreads = threads;
        RunStats res =
            simulateWithSnapshots(rcfg, b.scene, b.bvh, resume, true);
        expectIdentical(ref, res,
                        "wide8 resume @" + std::to_string(threads));
    }
}

TEST(Snapshot, PeriodicCaptureDoesNotPerturbTheRun)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f);
    RunStats ref = simulate(cfg, b.scene, b.bvh);

    fs::path dir = snapDir("periodic");
    SnapshotPolicy pol;
    pol.dir = dir.string();
    pol.worldFp = 0xABCDull;
    pol.everyCycles = std::max<uint64_t>(ref.cycles / 5, 1);
    RunStats res = simulateWithSnapshots(cfg, b.scene, b.bvh, pol, false);
    expectIdentical(ref, res, "periodic capture");
    EXPECT_TRUE(
        findNewestValidSnapshot(dir.string(), 0xABCDull).has_value());
}

TEST(Snapshot, CorruptSnapshotFallsBackToColdRun)
{
    GpuConfig cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cfg.simThreads = 1;
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f);
    RunStats ref = simulate(cfg, b.scene, b.bvh);

    fs::path dir = snapDir("fallback");
    SnapshotPolicy halt;
    halt.dir = dir.string();
    halt.worldFp = 0xD00Dull;
    halt.haltAtCycle = ref.cycles / 2;
    std::string snap_path;
    try {
        simulateWithSnapshots(cfg, b.scene, b.bvh, halt, false);
        FAIL() << "expected SimulationHalted";
    } catch (const SimulationHalted &e) {
        snap_path = e.snapshotPath;
    }
    // Corrupt every snapshot in the dir so resume has nothing valid.
    for (const auto &ent : fs::directory_iterator(dir))
        fs::resize_file(ent.path(), 20);

    SnapshotPolicy resume;
    resume.dir = dir.string();
    resume.worldFp = 0xD00Dull;
    RunStats res = simulateWithSnapshots(cfg, b.scene, b.bvh, resume, true);
    expectIdentical(ref, res, "cold fallback after corruption");
}

TEST(Snapshot, MismatchedGpuConfigFallsBackToColdRun)
{
    // Same (caller-chosen) world fingerprint, different simulated GPU:
    // the payload-level GpuConfig fingerprint check must catch it and
    // the driver must recover with a cold run of the *new* config.
    GpuConfig cap_cfg = sized(GpuConfig::virtualizedTreeletQueues());
    cap_cfg.simThreads = 1;
    const SceneBundle &b = getSceneBundle("CRNVL", 0.25f);
    RunStats cap_ref = simulate(cap_cfg, b.scene, b.bvh);

    fs::path dir = snapDir("cfg_mismatch");
    SnapshotPolicy halt;
    halt.dir = dir.string();
    halt.worldFp = 0xCAFEull;
    halt.haltAtCycle = cap_ref.cycles / 2;
    EXPECT_THROW(simulateWithSnapshots(cap_cfg, b.scene, b.bvh, halt, false),
                 SimulationHalted);

    GpuConfig other_cfg = sized(GpuConfig::virtualizedTreeletQueues());
    other_cfg.simThreads = 1;
    other_cfg.maxCtasPerSm = 4; // different machine
    RunStats other_ref = simulate(other_cfg, b.scene, b.bvh);

    SnapshotPolicy resume;
    resume.dir = dir.string();
    resume.worldFp = 0xCAFEull;
    RunStats res =
        simulateWithSnapshots(other_cfg, b.scene, b.bvh, resume, true);
    expectIdentical(other_ref, res, "cold fallback after config change");
}

TEST(Snapshot, PolicyFromEnvParsesKnobs)
{
    setenv("TRT_SNAPSHOT_EVERY", "5000", 1);
    setenv("TRT_SNAPSHOT_HALT_AT", "123", 1);
    setenv("TRT_SNAPSHOT_DIR", "/tmp/some_dir", 1);
    setenv("TRT_SNAPSHOT_KEEP", "1", 1);
    SnapshotPolicy p = SnapshotPolicy::fromEnv(0x42ull);
    EXPECT_EQ(p.everyCycles, 5000u);
    EXPECT_EQ(p.haltAtCycle, 123u);
    EXPECT_EQ(p.dir, "/tmp/some_dir");
    EXPECT_TRUE(p.keep);
    EXPECT_EQ(p.worldFp, 0x42ull);
    EXPECT_TRUE(p.captureEnabled());
    unsetenv("TRT_SNAPSHOT_EVERY");
    unsetenv("TRT_SNAPSHOT_HALT_AT");
    unsetenv("TRT_SNAPSHOT_DIR");
    unsetenv("TRT_SNAPSHOT_KEEP");
    SnapshotPolicy off = SnapshotPolicy::fromEnv(0);
    EXPECT_FALSE(off.captureEnabled());
}

} // anonymous namespace
} // namespace trt
