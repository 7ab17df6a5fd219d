/**
 * @file
 * Dispatch-policy layer tests (DESIGN.md §9): every policy must be a
 * pure *scheduling* strategy — it may change when rays run, in which
 * warp, and where traversal starts, but never what a ray hits. The
 * suite pins that contract: frames identical across all policies,
 * bit-identical RunStats across thread counts and SIMD modes per
 * policy, snapshot round-trips of reorder-bin and prediction-table
 * state, traverser-level misprediction fallback, and the
 * bounds-checked mode-indexed stat accessors.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>

#include "bvh/traverser.hh"
#include "core/arch.hh"
#include "geom/rng.hh"
#include "geom/simd.hh"
#include "gpu/dispatch_policy.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "snapshot/snapshot.hh"

namespace trt
{
namespace
{

namespace fs = std::filesystem;

const SceneBundle &
bundle(const std::string &name)
{
    return getSceneBundle(name, 0.25f);
}

GpuConfig
sized(GpuConfig cfg)
{
    cfg.imageWidth = cfg.imageHeight = 64;
    cfg.maxCtasPerSm = 2;
    return cfg;
}

RunStats
runWithThreads(const std::string &scene, GpuConfig cfg, uint32_t threads)
{
    cfg.simThreads = threads;
    const SceneBundle &b = bundle(scene);
    return simulate(cfg, b.scene, b.bvh);
}

void
expectIdentical(const RunStats &a, const RunStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.framebuffer, b.framebuffer) << what;
    EXPECT_EQ(a.rt.raysCompleted, b.rt.raysCompleted) << what;
    EXPECT_EQ(a.rt.isectTests, b.rt.isectTests) << what;
    EXPECT_EQ(a.rt.reorderBatches, b.rt.reorderBatches) << what;
    EXPECT_EQ(a.rt.predictLookups, b.rt.predictLookups) << what;
    EXPECT_EQ(a.rt.predictHits, b.rt.predictHits) << what;
    EXPECT_EQ(a.rt.predictMisses, b.rt.predictMisses) << what;
    EXPECT_EQ(RunStatsIo::fingerprint(a), RunStatsIo::fingerprint(b))
        << what;
}

/** A policy plus its table-scope flavor: `predict` keeps one table per
 *  RT unit, `predict_shared` shares one per SM (TRT_PREDICT_SHARED). */
struct PolicyVariant
{
    const char *label;
    DispatchPolicyKind kind;
    bool sharedPredict;
};

/** gtest prints parameters into the test IDs ctest lists; the label
 *  keeps them stable (the default is a byte dump of the pointer). */
void
PrintTo(const PolicyVariant &v, std::ostream *os)
{
    *os << v.label;
}

constexpr PolicyVariant kAllVariants[] = {
    {"fifo", DispatchPolicyKind::Fifo, false},
    {"prefetch", DispatchPolicyKind::Prefetch, false},
    {"vtq", DispatchPolicyKind::Vtq, false},
    {"reorder", DispatchPolicyKind::Reorder, false},
    {"predict", DispatchPolicyKind::Predict, false},
    {"predict_shared", DispatchPolicyKind::Predict, true},
};

GpuConfig
forVariant(const PolicyVariant &v)
{
    GpuConfig cfg = sized(GpuConfig::forPolicy(v.kind));
    cfg.predictShared = v.sharedPredict;
    return cfg;
}

/** Restores the process-wide SIMD toggle on scope exit. */
struct SimdGuard
{
    ~SimdGuard() { setSimdEnabled(true); }
};

// ---- scheduling never changes the image ----------------------------

/** The load-bearing invariant of the whole layer: reordering rays and
 *  entering traversal at a predicted leaf block must render the exact
 *  frame the FIFO baseline renders. */
TEST(PolicyFrames, IdenticalAcrossAllPolicies)
{
    for (const char *scene : {"CRNVL", "BUNNY"}) {
        RunStats ref = runWithThreads(
            scene, sized(GpuConfig::forPolicy(DispatchPolicyKind::Fifo)),
            1);
        for (const PolicyVariant &v : kAllVariants) {
            if (v.kind == DispatchPolicyKind::Fifo)
                continue;
            RunStats st = runWithThreads(scene, forVariant(v), 1);
            EXPECT_EQ(ref.framebuffer, st.framebuffer)
                << scene << " " << v.label;
            EXPECT_EQ(ref.rt.raysCompleted, st.rt.raysCompleted)
                << scene << " " << v.label;
            ASSERT_EQ(ref.primaryHits.size(), st.primaryHits.size())
                << scene << " " << v.label;
            for (size_t p = 0; p < ref.primaryHits.size(); p++) {
                ASSERT_EQ(ref.primaryHits[p].t, st.primaryHits[p].t)
                    << scene << " " << v.label << " pixel " << p;
                ASSERT_EQ(ref.primaryHits[p].triIndex,
                          st.primaryHits[p].triIndex)
                    << scene << " " << v.label << " pixel " << p;
            }
        }
    }
}

/** The policies must actually do something: predict issues lookups,
 *  reorder forms cross-group batches. Guards against a refactor that
 *  silently wires every kind to the FIFO base class. */
TEST(PolicyFrames, PoliciesAreLive)
{
    RunStats pred = runWithThreads(
        "CRNVL", sized(GpuConfig::forPolicy(DispatchPolicyKind::Predict)),
        1);
    EXPECT_GT(pred.rt.predictLookups, 0u);
    EXPECT_GT(pred.rt.predictInserts, 0u);
    // Every resolved speculation is either a hit or a miss; lookups
    // that found no table entry resolve as neither.
    EXPECT_LE(pred.rt.predictHits + pred.rt.predictMisses,
              pred.rt.predictLookups);
    EXPECT_GT(pred.rt.predictHits, 0u)
        << "a 64x64 primary-ray frame has enough coherence that the "
           "predictor must land at least one correct speculation";

    RunStats reo = runWithThreads(
        "CRNVL", sized(GpuConfig::forPolicy(DispatchPolicyKind::Reorder)),
        1);
    EXPECT_GT(reo.rt.reorderBatches, 0u);

    // The shared table trains through per-SM queues; it must still
    // issue lookups and land hits once flushed updates become visible.
    GpuConfig shared =
        sized(GpuConfig::forPolicy(DispatchPolicyKind::Predict));
    shared.predictShared = true;
    RunStats sh = runWithThreads("CRNVL", shared, 1);
    EXPECT_GT(sh.rt.predictLookups, 0u);
    EXPECT_GT(sh.rt.predictInserts, 0u);
    EXPECT_GT(sh.rt.predictHits, 0u);
}

// ---- determinism matrix: policy x threads x SIMD -------------------

class PolicyDeterminism : public ::testing::TestWithParam<PolicyVariant>
{
};

TEST_P(PolicyDeterminism, BitIdenticalAcrossThreadCounts)
{
    GpuConfig cfg = forVariant(GetParam());
    RunStats serial = runWithThreads("CRNVL", cfg, 1);
    for (uint32_t t : {2u, 4u}) {
        expectIdentical(serial, runWithThreads("CRNVL", cfg, t),
                        std::string(GetParam().label) + "/CRNVL 1 vs " +
                            std::to_string(t));
    }
}

TEST_P(PolicyDeterminism, SimdToggleBitIdentical)
{
    if (!simdCompiledIn())
        GTEST_SKIP() << "scalar-only build (TRT_SIMD=OFF)";
    SimdGuard guard;
    GpuConfig cfg = forVariant(GetParam());
    setSimdEnabled(true);
    RunStats simd_on = runWithThreads("CRNVL", cfg, 1);
    setSimdEnabled(false);
    expectIdentical(simd_on, runWithThreads("CRNVL", cfg, 4),
                    std::string(GetParam().label) +
                        "/CRNVL simd-on@1 vs simd-off@4");
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyDeterminism,
                         ::testing::ValuesIn(kAllVariants),
                         [](const auto &info) {
                             return std::string(info.param.label);
                         });

// ---- snapshot round-trip of policy state ---------------------------

fs::path
snapDir(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("trt_snap_" + name);
    fs::remove_all(p);
    fs::create_directories(p);
    return p;
}

RunStats
haltAndResume(const std::string &scene, GpuConfig cfg, uint64_t halt_cycle,
              const fs::path &dir, uint32_t resume_threads, uint64_t fp)
{
    const SceneBundle &b = bundle(scene);
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

class PolicySnapshot : public ::testing::TestWithParam<PolicyVariant>
{
};

/** Crash mid-run and resume: the serialized reorder bins / prediction
 *  table (private per-unit or SM-shared) must restore exactly, or the
 *  resumed schedule (and thus every timing counter) skews. Resuming at
 *  a different thread count also exercises the state's
 *  thread-invariance. */
TEST_P(PolicySnapshot, ResumeBitIdentical)
{
    GpuConfig cfg = forVariant(GetParam());
    cfg.simThreads = 1;
    const SceneBundle &b = bundle("CRNVL");
    RunStats ref = simulate(cfg, b.scene, b.bvh);
    uint64_t halt = ref.cycles / 2;
    ASSERT_GT(halt, 0u);

    for (uint32_t threads : {1u, 4u}) {
        fs::path dir = snapDir(std::string("policy_") +
                               GetParam().label + "_t" +
                               std::to_string(threads));
        RunStats res =
            haltAndResume("CRNVL", cfg, halt, dir, threads, 0xD15Cull);
        expectIdentical(ref, res, std::string(GetParam().label) +
                                      " resume @" +
                                      std::to_string(threads));
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySnapshot,
                         ::testing::ValuesIn(kAllVariants),
                         [](const auto &info) {
                             return std::string(info.param.label);
                         });

// ---- traverser-level misprediction fallback ------------------------

struct TraverserFixture
{
    Scene scene;
    Bvh bvh;

    TraverserFixture()
    {
        scene = buildScene("CRNVL", 0.05f);
        BvhConfig cfg;
        cfg.treeletMaxBytes = 1024;
        bvh = Bvh::build(scene.triangles, cfg);
    }
};

Ray
randomRay(Pcg32 &rng, const Aabb &b)
{
    Vec3 e = b.extent();
    Vec3 o{b.lo.x + e.x * rng.nextFloat(), b.lo.y + e.y * rng.nextFloat(),
           b.lo.z + e.z * rng.nextFloat()};
    return Ray(o, normalize(Vec3{rng.nextFloat() - 0.5f,
                                 rng.nextFloat() - 0.5f,
                                 rng.nextFloat() - 0.5f}));
}

void
expectSameHit(const HitRecord &a, const HitRecord &b, int ray_idx)
{
    ASSERT_EQ(a.hit(), b.hit()) << "ray " << ray_idx;
    if (a.hit()) {
        EXPECT_EQ(a.t, b.t) << "ray " << ray_idx;
        EXPECT_EQ(a.triIndex, b.triIndex) << "ray " << ray_idx;
    }
}

/** Priming with an *arbitrary* (usually wrong) leaf block must still
 *  produce the unprimed hit bit-for-bit: the root fallback after a
 *  speculative entry IS the normal traversal, merely tightened by the
 *  speculative t bound. */
TEST(Misprediction, WrongBlockFallsBackToExactHit)
{
    TraverserFixture f;
    Pcg32 rng(1234);
    uint32_t num_tris = uint32_t(f.bvh.triangles().size());
    ASSERT_GT(num_tris, 8u);
    RayTraverser plain, primed;
    for (int i = 0; i < 300; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        plain.reset(&f.bvh, r);
        finishTraversal(plain);

        // A pseudo-random block — unrelated to the ray's real path.
        uint32_t first = rng.nextBounded(num_tris - 4);
        primed.reset(&f.bvh, r);
        primed.primeSpeculation(first, 4);
        finishTraversal(primed);

        expectSameHit(plain.hit(), primed.hit(), i);
        EXPECT_NE(primed.specOutcome(),
                  RayTraverser::SpecOutcome::None)
            << "ray " << i;
    }
}

/** Priming with the block that truly contains the closest hit must be
 *  reported Correct and still reproduce the exact hit record. */
TEST(Misprediction, CorrectBlockReportedCorrect)
{
    TraverserFixture f;
    Pcg32 rng(77);
    RayTraverser plain, primed;
    int correct_checked = 0;
    for (int i = 0; i < 300 && correct_checked < 50; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        plain.reset(&f.bvh, r);
        finishTraversal(plain);
        if (!plain.hit().hit() || plain.hitBlockCount() == 0)
            continue;

        primed.reset(&f.bvh, r);
        primed.primeSpeculation(plain.hitBlockFirst(),
                                plain.hitBlockCount());
        finishTraversal(primed);

        expectSameHit(plain.hit(), primed.hit(), i);
        EXPECT_EQ(primed.specOutcome(),
                  RayTraverser::SpecOutcome::Correct)
            << "ray " << i;
        correct_checked++;
    }
    EXPECT_GE(correct_checked, 10)
        << "scene too sparse to exercise correct predictions";
}

TEST(Misprediction, UnprimedOutcomeIsNone)
{
    TraverserFixture f;
    Ray r = f.scene.camera.generateRay(10, 10, 64, 64);
    RayTraverser t(&f.bvh, r);
    finishTraversal(t);
    EXPECT_EQ(t.specOutcome(), RayTraverser::SpecOutcome::None);
    EXPECT_FALSE(t.specPrimed());
}

// ---- policy unit behavior ------------------------------------------

/** Reorder binning is a pure function of ray geometry: same ray, same
 *  bin; nearby origins with the same direction octant share bins at
 *  coarse grids. */
TEST(ReorderBins, KeyIsDeterministicAndOctantAware)
{
    TraverserFixture f;
    GpuConfig cfg = GpuConfig::forPolicy(DispatchPolicyKind::Reorder);
    RtStats stats;
    ReorderPolicy pol(cfg, f.bvh, stats);

    Ray a(Vec3{0.1f, 0.2f, 0.3f}, normalize(Vec3{1, 1, 1}));
    EXPECT_EQ(pol.binKey(a), pol.binKey(a));

    Ray flipped(a.orig, normalize(Vec3{-1, 1, 1}));
    EXPECT_NE(pol.binKey(a) & 7u, pol.binKey(flipped) & 7u)
        << "direction octant must be part of the key";
}

/** The prediction table trains on completed traversals and then
 *  speculates the trained block for a matching ray hash. */
TEST(PredictTable, TrainsAndSpeculates)
{
    TraverserFixture f;
    GpuConfig cfg = GpuConfig::forPolicy(DispatchPolicyKind::Predict);
    RtStats stats;
    PredictPolicy pol(cfg, f.bvh, stats);

    // Find a ray that hits, complete it, train the table.
    Pcg32 rng(5);
    RayTraverser t;
    Ray trained;
    bool found = false;
    for (int i = 0; i < 200 && !found; i++) {
        Ray r = randomRay(rng, f.bvh.rootBounds());
        t.reset(&f.bvh, r);
        finishTraversal(t);
        if (t.hit().hit() && t.hitBlockCount() > 0) {
            trained = r;
            found = true;
        }
    }
    ASSERT_TRUE(found);

    EXPECT_FALSE(pol.speculate(trained).valid) << "cold table";
    pol.onRayComplete(t);
    DispatchPolicy::Speculation spec = pol.speculate(trained);
    ASSERT_TRUE(spec.valid);
    EXPECT_EQ(spec.firstTri, t.hitBlockFirst());
    EXPECT_EQ(spec.count, t.hitBlockCount());
    EXPECT_EQ(stats.predictLookups, 2u);
}

// ---- mode-indexed stat accessors (satellite: bounds checking) ------

TEST(TraversalModes, NamesAndIndicesCoverEveryEnumerator)
{
    for (size_t i = 0; i < kNumTraversalModes; i++) {
        TraversalMode m = TraversalMode(i);
        EXPECT_EQ(modeIndex(m), i);
        EXPECT_STRNE(traversalModeName(m), "unknown");
    }
}

TEST(TraversalModes, OutOfRangeIndexThrows)
{
    EXPECT_THROW(modeIndex(TraversalMode::NumModes), std::out_of_range);
    EXPECT_THROW(modeIndex(TraversalMode(200)), std::out_of_range);
}

} // anonymous namespace
} // namespace trt
