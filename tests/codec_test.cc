/**
 * @file
 * The shared binary codec (DESIGN.md §7) across every format it
 * carries: RunStats blobs, BvhIo, bundle files, snapshot files,
 * telemetry .tsbin files and the TRTF farm frames and payloads, plus
 * the two text inputs (JobSpec text and sweep manifests).
 *
 * Byte pins hard-code FNV-1a hashes of the formats tests/golden_test.cc
 * does not cover (BvhIo at widths 4 and 8, a bundle file, a telemetry
 * .tsbin and a snapshot file of a small run); a codec change must
 * leave them unchanged, or existing caches stop loading.
 *
 * The mutation fuzz takes a valid input of each format and feeds its
 * decoder seeded byte flips, truncations, 0xFF over every length
 * prefix and a 2^32-entry prefix. Each must be rejected the way the
 * format documents (false, SnapshotError or EnvError) — never by a
 * crash, another exception, a sanitizer report or an allocation the
 * remaining input cannot fill. A flip may land in a value no format
 * can check (a counter, a coordinate), so flipped inputs may also
 * decode; truncations and bad prefixes never may.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "bvh/io.hh"
#include "core/arch.hh"
#include "farm/manifest.hh"
#include "farm/protocol.hh"
#include "geom/hash.hh"
#include "gpu/gpu.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "scene/registry.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/counter_registry.hh"
#include "telemetry/telemetry.hh"
#include "util/env.hh"

namespace trt
{
namespace
{

namespace fs = std::filesystem;

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

uint64_t
fnv(const std::string &bytes)
{
    Fnv1a h;
    h.bytes(bytes.data(), bytes.size());
    return h.value();
}

fs::path
tempDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("trt_codec_" + name);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const fs::path &p, const std::string &bytes)
{
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
}

uint64_t
getU64(const std::string &b, size_t off)
{
    uint64_t v;
    std::memcpy(&v, b.data() + off, 8);
    return v;
}

void
putU64(std::string &b, size_t off, uint64_t v)
{
    std::memcpy(b.data() + off, &v, 8);
}

void
putU32(std::string &b, size_t off, uint32_t v)
{
    std::memcpy(b.data() + off, &v, 4);
}

const SceneBundle &
bundle(const std::string &name, uint32_t width)
{
    BvhConfig bc;
    bc.width = int(width);
    return getSceneBundle(name, 0.25f, bc);
}

/** The same bundle built afresh: files in an existing bundle cache may
 *  come from builds that left the node padding uninitialized. */
SceneBundle
freshBundle(const std::string &name, uint32_t width,
            uint32_t buildThreads = 0)
{
    BvhConfig bc;
    bc.width = int(width);
    bc.buildThreads = buildThreads;
    SceneBundle b;
    b.name = name;
    b.scene = buildScene(name, 0.25f);
    b.bvh = Bvh::build(b.scene.triangles, bc);
    b.bvhStats = b.bvh.stats();
    return b;
}

GpuConfig
smallVtq()
{
    GpuConfig cfg = GpuConfig::virtualizedTreeletQueues();
    cfg.imageWidth = cfg.imageHeight = 64;
    cfg.maxCtasPerSm = 2;
    cfg.simThreads = 1;
    return cfg;
}

std::string
statsBytes(const RunStats &st)
{
    std::ostringstream os(std::ios::binary);
    RunStatsIo::save(os, st);
    return os.str();
}

std::string
bvhBytes(const Bvh &bvh)
{
    std::ostringstream os(std::ios::binary);
    BvhIo::save(os, bvh);
    return os.str();
}

/** A RunStats with every vector non-empty and a few counters set. */
RunStats
syntheticStats()
{
    RunStats st;
    st.cycles = 4321;
    st.raysTraced = 99;
    st.rt.nodeVisits = 1234;
    st.framebuffer.assign(12, Vec3{0.25f, 0.5f, 0.75f});
    st.primaryHits.assign(5, HitRecord{});
    st.sampled.enabled = true;
    st.sampled.intervals = 3;
    st.sampled.counterCi95 = {1.0, 2.0};
    return st;
}

/** The snapshot a small VTQ run writes halfway (halted there). */
const fs::path &
smallSnapshot()
{
    static const fs::path path = [] {
        const SceneBundle &b = bundle("CRNVL", 4);
        SnapshotPolicy halt;
        halt.dir = tempDir("snapshot").string();
        halt.worldFp = 0xC0DEC;
        halt.haltAtCycle = 20000;
        try {
            simulateWithSnapshots(smallVtq(), b.scene, b.bvh, halt, false);
        } catch (const SimulationHalted &e) {
            return fs::path(e.snapshotPath);
        }
        ADD_FAILURE() << "run finished before the halt cycle";
        return fs::path();
    }();
    return path;
}

/** The .tsbin a small traced VTQ run writes. */
const fs::path &
smallTsbin()
{
    static const fs::path path = [] {
        fs::path dir = tempDir("tsbin");
        GpuConfig cfg = smallVtq();
        cfg.telem.enabled = true;
        cfg.telem.trace = true;
        cfg.telem.everyCycles = 512;
        cfg.telem.outDir = dir.string();
        cfg.telem.outBase = "t";
        const SceneBundle &b = bundle("CRNVL", 4);
        simulate(cfg, b.scene, b.bvh);
        return dir / "t.tsbin";
    }();
    return path;
}

// ---- format layouts -----------------------------------------------

/**
 * Offsets of the u64 length prefixes in @p blob, walking @p schema
 * from @p off: a positive entry is a length-prefixed vector of that
 * element size, a negative one a fixed field of that many bytes.
 * @p end receives the offset after the last field.
 */
std::vector<size_t>
prefixOffsets(const std::string &blob, size_t off,
              const std::vector<long> &schema, size_t *end = nullptr)
{
    std::vector<size_t> at;
    for (long e : schema) {
        if (e < 0) {
            off += size_t(-e);
            continue;
        }
        at.push_back(off);
        off += 8 + size_t(getU64(blob, off)) * size_t(e);
    }
    if (end)
        *end = off;
    return at;
}

/** RunStatsIo v5 field sequence after the 8-byte magic/version. */
std::vector<long>
runStatsSchema(const RunStats &st)
{
    long counters = 0;
    forEachRunCounter(st, [&](const CounterInfo &, const auto &v) {
        counters += long(sizeof(v));
    });
    const SampleSummary &s = st.sampled;
    long sampled = long(1 + sizeof(s.intervals) + sizeof(s.measuredCycles) +
                        sizeof(s.measuredRounds) + sizeof(s.totalRays) +
                        sizeof(s.ffRays) + sizeof(s.cyclesCi95));
    return {-long(sizeof(st.cycles)),
            long(sizeof(Vec3)),
            -counters,
            long(sizeof(HitRecord)),
            -sampled,
            long(sizeof(double))};
}

/** BvhIo v2 field sequence after the 16-byte header. */
const std::vector<long> kBvhSchema = {
    long(sizeof(WideNode)), long(sizeof(Triangle)), 4, -long(sizeof(Aabb)),
    4, 4, 4, 8, 4, 8, 8, -8};

/** Bundle file fields after the 8-byte magic/version: name,
 *  background, camera, materials, triangles; a BvhIo stream follows. */
const std::vector<long> kBundleSchema = {
    1, -long(sizeof(Vec3)), -long(sizeof(Camera::State)),
    long(sizeof(Material)), long(sizeof(Triangle))};

/** Offset of the BvhIo stream inside bundle file @p b. */
size_t
bundleBvhAt(const std::string &b)
{
    size_t end = 0;
    prefixOffsets(b, 8, kBundleSchema, &end);
    return end;
}

/** Telemetry .tsbin v1 fields: the 21-byte header, then the sample,
 *  gpu-sample and event streams at their encoded record sizes. */
const std::vector<long> kTsbinSchema = {-21, 80, 56, 29};

// ---- byte pins ------------------------------------------------------
//
// Hashes recorded before the formats moved onto the shared codec; the
// RunStats blob and snapshot pins were recorded again for RunStatsIo v5
// and snapshot v7, which dropped the stored miss rate and series. BVH
// and bundle files hash raw: WideChild and Material carry explicit
// zeroed padding, so the same scene writes the same bytes in every
// build.

TEST(CodecBytes, BvhIoPinned)
{
    for (uint32_t width : {4u, 8u}) {
        std::string bytes = bvhBytes(freshBundle("CRNVL", width).bvh);
        EXPECT_EQ(hex(fnv(bytes)),
                  width == 4 ? "0x2da1b17bc2d46356" : "0xd66996cce2e3a64d")
            << "width " << width;
        std::istringstream is(bytes, std::ios::binary);
        Bvh back;
        ASSERT_TRUE(BvhIo::load(is, back));
        EXPECT_TRUE(bvhBytes(back) == bytes) << "width " << width;
    }
}

TEST(CodecBytes, BvhIoSameAtAnyBuildThreads)
{
    EXPECT_TRUE(bvhBytes(freshBundle("CRNVL", 4, 1).bvh) ==
                bvhBytes(freshBundle("CRNVL", 4, 3).bvh));
}

TEST(CodecBytes, BundleFilePinned)
{
    fs::path dir = tempDir("pin_bundle");
    saveBundleFile(dir / "a.bin", freshBundle("CRNVL", 4));
    std::string bytes = slurp(dir / "a.bin");
    EXPECT_EQ(hex(fnv(bytes)), "0x23006cec13c4cb3f");
    SceneBundle back;
    ASSERT_TRUE(loadBundleFile(dir / "a.bin", back));
    saveBundleFile(dir / "b.bin", back);
    EXPECT_TRUE(slurp(dir / "b.bin") == bytes);
}

TEST(CodecBytes, TelemetryBinaryPinned)
{
    EXPECT_EQ(hex(fnv(slurp(smallTsbin()))), "0x9d76c25abac35f05");
}

TEST(CodecBytes, SnapshotFilePinned)
{
    EXPECT_EQ(hex(fnv(slurp(smallSnapshot()))), "0xc125068f28a61bd7");
}

TEST(CodecBytes, RunStatsBlobPinned)
{
    EXPECT_EQ(hex(fnv(statsBytes(syntheticStats()))),
              "0xe419a26434ae04c9");
}

// ---- mutation fuzz --------------------------------------------------

enum class Verdict
{
    Accepted,
    Rejected,
};

using Decoder = std::function<Verdict(const std::string &)>;

/**
 * Run every mutation class over @p valid. @p prefixes are the offsets
 * of its length prefixes; @p strictBelow is the length below which any
 * truncation must be rejected (the whole artifact for formats that
 * know their own length).
 */
void
fuzz(const std::string &what, const std::string &valid,
     const Decoder &decode, const std::vector<size_t> &prefixes,
     size_t strictBelow, uint64_t seed, int flips = 64)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(decode(valid), Verdict::Accepted) << "valid input rejected";

    std::mt19937_64 rng(seed);
    for (int i = 0; i < flips; i++) {
        std::string b = valid;
        int n = 1 + int(rng() % 3);
        for (int k = 0; k < n; k++)
            b[rng() % b.size()] ^= char(1 + rng() % 255);
        decode(b); // Either verdict; any other outcome fails the test.
    }

    std::vector<size_t> lens;
    for (size_t len = 0; len < std::min<size_t>(valid.size(), 48); len++)
        lens.push_back(len);
    for (size_t k = 1; k <= std::min<size_t>(valid.size(), 48); k++)
        lens.push_back(valid.size() - k);
    for (int i = 0; i < 32; i++)
        lens.push_back(rng() % valid.size());
    for (size_t len : lens) {
        Verdict v = decode(valid.substr(0, len));
        if (len < strictBelow) {
            EXPECT_EQ(v, Verdict::Rejected) << "truncated to " << len;
        }
    }

    for (size_t off : prefixes) {
        std::string b = valid;
        putU64(b, off, ~0ull);
        EXPECT_EQ(decode(b), Verdict::Rejected)
            << "0xFF length prefix at " << off;
    }
}

/** A 2^32-entry length prefix at @p off must be rejected before any
 *  allocation (the input holds nowhere near that many entries). */
void
expectOversizedRejected(const std::string &what, const std::string &valid,
                        const Decoder &decode, size_t off)
{
    std::string b = valid;
    putU64(b, off, 1ull << 32);
    EXPECT_EQ(decode(b), Verdict::Rejected) << what << ": prefix at " << off;
}

Verdict
decodeStats(const std::string &b)
{
    std::istringstream is(b, std::ios::binary);
    RunStats st;
    return RunStatsIo::load(is, st) ? Verdict::Accepted : Verdict::Rejected;
}

Verdict
decodeBvh(const std::string &b)
{
    std::istringstream is(b, std::ios::binary);
    Bvh bvh;
    return BvhIo::load(is, bvh) ? Verdict::Accepted : Verdict::Rejected;
}

TEST(CodecFuzz, RunStatsBlob)
{
    RunStats st = syntheticStats();
    std::string valid = statsBytes(st);
    size_t end = 0;
    auto prefixes = prefixOffsets(valid, 8, runStatsSchema(st), &end);
    ASSERT_EQ(end, valid.size());
    fuzz("RunStats", valid, decodeStats, prefixes, valid.size(), 1);
    expectOversizedRejected("RunStats", valid, decodeStats, prefixes[0]);
}

class CodecFuzzBvh : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CodecFuzzBvh, BvhIo)
{
    const Bvh &bvh = bundle("CRNVL", GetParam()).bvh;
    std::string valid = bvhBytes(bvh);
    size_t end = 0;
    auto prefixes = prefixOffsets(valid, 16, kBvhSchema, &end);
    ASSERT_EQ(end, valid.size());
    std::string what = "BvhIo w" + std::to_string(GetParam());
    fuzz(what, valid, decodeBvh, prefixes, valid.size(), 10 + GetParam());
    expectOversizedRejected(what, valid, decodeBvh, prefixes[0]);

    // Trees traversal could not walk: the root's first child pointing
    // back at the root (a cycle), or a leaf past the last triangle.
    size_t child = prefixes[0] + 8;
    std::string b = valid;
    b[child + offsetof(WideChild, kind)] = char(WideChild::Internal);
    putU32(b, child + offsetof(WideChild, index), 0);
    EXPECT_EQ(decodeBvh(b), Verdict::Rejected) << "cycle";
    b = valid;
    b[child + offsetof(WideChild, kind)] = char(WideChild::Leaf);
    putU32(b, child + offsetof(WideChild, index),
           uint32_t(bvh.triangles().size()));
    putU32(b, child + offsetof(WideChild, count), 1);
    EXPECT_EQ(decodeBvh(b), Verdict::Rejected) << "leaf range";
}

INSTANTIATE_TEST_SUITE_P(Widths, CodecFuzzBvh, ::testing::Values(4u, 8u));

TEST(CodecFuzz, BundleFile)
{
    const SceneBundle &src = bundle("CRNVL", 4);
    fs::path dir = tempDir("fuzz_bundle");
    fs::path p = dir / "b.bin";
    saveBundleFile(p, src);
    std::string valid = slurp(p);

    Decoder decode = [&](const std::string &b) {
        spit(p, b);
        SceneBundle back;
        return loadBundleFile(p, back) ? Verdict::Accepted
                                       : Verdict::Rejected;
    };
    size_t bvh_at = bundleBvhAt(valid);
    auto prefixes = prefixOffsets(valid, 8, kBundleSchema);
    size_t end = 0;
    auto bvh_prefixes = prefixOffsets(valid, bvh_at + 16, kBvhSchema, &end);
    ASSERT_EQ(end, valid.size());
    prefixes.insert(prefixes.end(), bvh_prefixes.begin(),
                    bvh_prefixes.end());
    fuzz("bundle", valid, decode, prefixes, valid.size(), 20);
    expectOversizedRejected("bundle", valid, decode, prefixes[1]);

    // A triangle naming a material the bundle does not have.
    std::string b = valid;
    size_t tri0 = prefixes[2] + 8;
    putU32(b, tri0 + offsetof(Triangle, material),
           uint32_t(src.scene.materials.size()));
    EXPECT_EQ(decode(b), Verdict::Rejected) << "material index";
}

TEST(CodecFuzz, TelemetryBinary)
{
    std::string valid = slurp(smallTsbin());
    fs::path p = tempDir("fuzz_tsbin") / "t.tsbin";
    Decoder decode = [&](const std::string &b) {
        spit(p, b);
        try {
            Telemetry::readBinary(p.string());
            return Verdict::Accepted;
        } catch (const SnapshotError &) {
            return Verdict::Rejected;
        }
    };
    size_t end = 0;
    auto prefixes = prefixOffsets(valid, 0, kTsbinSchema, &end);
    ASSERT_EQ(end, valid.size());
    fuzz(".tsbin", valid, decode, prefixes, valid.size(), 25);
    for (size_t at : prefixes)
        expectOversizedRejected(".tsbin", valid, decode, at);
}

/** Rewrite a snapshot file's payload and header CRCs to match its
 *  (possibly mutated) bytes, as a writer with a bug would. */
std::string
recrc(std::string b)
{
    if (b.size() < 40)
        return b;
    uint64_t n = getU64(b, 24);
    if (n <= b.size() - 40)
        putU32(b, 32, crc32(b.data() + 40, size_t(n)));
    putU32(b, 36, crc32(b.data(), 36));
    return b;
}

TEST(CodecFuzz, SnapshotFile)
{
    const fs::path &src = smallSnapshot();
    ASSERT_FALSE(src.empty());
    std::string valid = slurp(src);
    fs::path p = tempDir("fuzz_snap") / src.filename();
    const SceneBundle &sb = bundle("CRNVL", 4);

    Decoder read_only = [&](const std::string &b) {
        spit(p, b);
        try {
            readSnapshotPayload(p, 0xC0DEC);
            return Verdict::Accepted;
        } catch (const SnapshotError &) {
            return Verdict::Rejected;
        }
    };
    Decoder restore = [&](const std::string &b) {
        spit(p, recrc(b));
        try {
            std::vector<uint8_t> payload = readSnapshotPayload(p, 0xC0DEC);
            Deserializer d(payload);
            Gpu gpu(smallVtq(), sb.scene, sb.bvh);
            gpu.loadState(d);
            return Verdict::Accepted;
        } catch (const SnapshotError &) {
            return Verdict::Rejected;
        }
    };

    // Without a recomputed CRC every payload flip is caught.
    std::mt19937_64 rng(30);
    for (int i = 0; i < 16; i++) {
        std::string b = valid;
        b[40 + rng() % (valid.size() - 40)] ^= char(1 + rng() % 255);
        EXPECT_EQ(read_only(b), Verdict::Rejected) << "payload flip " << i;
    }
    fuzz("snapshot (CRC checked)", valid, read_only, {24}, valid.size(),
         31, 16);
    // With it, the payload decoders themselves must hold.
    fuzz("snapshot (CRC recomputed)", valid, restore, {24}, valid.size(),
         32, 48);

    // A payload length the file cannot hold, under a valid header CRC.
    std::string b = valid;
    putU64(b, 24, 1ull << 33);
    EXPECT_EQ(read_only(recrc(b)), Verdict::Rejected) << "oversized payload";
}

// ---- farm protocol --------------------------------------------------

JobSpec
smallJob()
{
    JobSpec spec;
    spec.scene = "BUNNY";
    spec.config = "vtq";
    spec.resolution = 64;
    return spec;
}

JobOutcome
smallOutcome()
{
    JobOutcome out;
    out.stats = syntheticStats();
    out.fingerprint = 0xabcdef;
    out.wallMs = 42;
    out.cacheHit = true;
    return out;
}

Verdict
decodeJobPayload(const std::string &b)
{
    try {
        uint64_t idx;
        JobSpec spec;
        bool resume;
        decodeJob(b, idx, spec, resume);
        return Verdict::Accepted;
    } catch (const EnvError &) {
        return Verdict::Rejected;
    }
}

Verdict
decodeResultPayload(const std::string &b)
{
    uint64_t idx;
    JobOutcome out;
    return decodeResult(b, idx, out) ? Verdict::Accepted : Verdict::Rejected;
}

/** Every frame in @p bytes, decoded by type the way the scheduler and
 *  worker do; Rejected unless all @p frames complete and decode. */
Verdict
decodeFrames(const std::string &bytes, size_t frames, const fs::path &p)
{
    spit(p, bytes);
    int fd = ::open(p.c_str(), O_RDONLY);
    FrameReader reader;
    while (reader.pump(fd) >= 0) {
    }
    ::close(fd);

    size_t n = 0;
    FarmMsg type;
    std::string payload;
    try {
        while (reader.next(type, payload)) {
            n++;
            uint64_t idx;
            std::string msg;
            bool ok = true;
            switch (type) {
              case FarmMsg::Job:
                ok = decodeJobPayload(payload) == Verdict::Accepted;
                break;
              case FarmMsg::Result:
                ok = decodeResultPayload(payload) == Verdict::Accepted;
                break;
              case FarmMsg::Error:
                decodeError(payload, idx, msg);
                break;
              case FarmMsg::Heartbeat:
                ok = decodeHeartbeat(payload, idx);
                break;
              case FarmMsg::Shutdown:
                ok = payload.empty();
                break;
              default:
                ok = false;
            }
            if (!ok)
                return Verdict::Rejected;
        }
    } catch (const EnvError &) {
        return Verdict::Rejected;
    }
    return n == frames ? Verdict::Accepted : Verdict::Rejected;
}

TEST(CodecFuzz, FarmFrameStream)
{
    fs::path dir = tempDir("fuzz_frames");
    fs::path p = dir / "frames.bin";
    {
        int fd = ::open(p.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(writeFrame(fd, FarmMsg::Job, encodeJob(7, smallJob(), true)));
        ASSERT_TRUE(writeFrame(fd, FarmMsg::Heartbeat, encodeHeartbeat(7)));
        ASSERT_TRUE(
            writeFrame(fd, FarmMsg::Result, encodeResult(7, smallOutcome())));
        ASSERT_TRUE(writeFrame(fd, FarmMsg::Error, encodeError(9, "boom")));
        ASSERT_TRUE(writeFrame(fd, FarmMsg::Shutdown, ""));
        ::close(fd);
    }
    std::string valid = slurp(p);
    std::vector<size_t> lengths;
    for (size_t off = 0; off < valid.size(); off += 16 + getU64(valid, off + 8))
        lengths.push_back(off + 8);
    ASSERT_EQ(lengths.size(), 5u);

    fs::path scratch = dir / "mutated.bin";
    Decoder decode = [&](const std::string &b) {
        return decodeFrames(b, lengths.size(), scratch);
    };
    fuzz("TRTF stream", valid, decode, lengths, valid.size(), 40, 128);
}

TEST(CodecFuzz, FarmJobPayload)
{
    std::string valid = encodeJob(7, smallJob(), true);
    // The JobSpec text has no length of its own: a cut at a line end
    // is a shorter valid spec, so only the 16-byte head is strict.
    fuzz("Job payload", valid, decodeJobPayload, {}, 16, 50);
}

TEST(CodecFuzz, FarmResultPayload)
{
    JobOutcome out = smallOutcome();
    std::string valid = encodeResult(7, out);
    auto prefixes = prefixOffsets(valid, 32 + 8, runStatsSchema(out.stats));
    fuzz("Result payload", valid, decodeResultPayload, prefixes,
         valid.size(), 60);
    expectOversizedRejected("Result payload", valid, decodeResultPayload,
                            prefixes[0]);
}

TEST(CodecFuzz, FarmSmallPayloads)
{
    uint64_t idx;
    std::string msg;
    for (size_t len = 0; len < 8; len++) {
        EXPECT_FALSE(decodeHeartbeat(std::string(len, '\x01'), idx));
        EXPECT_THROW(decodeError(std::string(len, '\x01'), idx, msg),
                     EnvError);
    }
}

// ---- text inputs ----------------------------------------------------

TEST(CodecFuzz, JobSpecText)
{
    Decoder decode = [](const std::string &b) {
        try {
            JobSpec::deserialize(b);
            return Verdict::Accepted;
        } catch (const EnvError &) {
            return Verdict::Rejected;
        }
    };
    // Every key but the scene is optional, so only a cut before the
    // first scene character must be rejected.
    fuzz("JobSpec text", smallJob().serialize(), decode, {},
         std::string("scene=").size() + 1, 70, 256);
}

TEST(CodecFuzz, SweepManifest)
{
    std::string valid = slurp(fs::path(TRT_MANIFEST_DIR) / "ci_smoke.json");
    ASSERT_FALSE(valid.empty());
    Decoder decode = [](const std::string &b) {
        try {
            Manifest::parse(b);
            return Verdict::Accepted;
        } catch (const EnvError &) {
            return Verdict::Rejected;
        }
    };
    // Any cut before the closing brace leaves the document unfinished.
    fuzz("ci_smoke.json", valid, decode, {}, valid.rfind('}') + 1, 80, 256);
}

} // namespace
} // namespace trt
