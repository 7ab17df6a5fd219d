/**
 * @file
 * Microbenchmarks (google-benchmark): throughput sanity for the
 * substrate kernels — intersection tests, BVH construction, functional
 * traversal, treelet-order traversal and the cache model. These do not
 * correspond to a paper figure; they document the host-side cost of the
 * simulator's building blocks.
 */

#include <cstdlib>
#include <filesystem>

#include <benchmark/benchmark.h>

#include "bvh/bvh.hh"
#include "bvh/traverser.hh"
#include "core/arch.hh"
#include "geom/rng.hh"
#include "geom/simd.hh"
#include "gpu/rt_unit.hh"
#include "harness/run_cache.hh"
#include "memsys/cache.hh"
#include "memsys/memsys.hh"
#include "scene/registry.hh"

namespace
{

using namespace trt;

const Scene &
benchScene()
{
    static Scene s = buildScene("BUNNY", 0.25f);
    return s;
}

const Bvh &
benchBvh()
{
    static Bvh b = Bvh::build(benchScene().triangles);
    return b;
}

Ray
randomRay(Pcg32 &rng, const Aabb &bounds)
{
    Vec3 e = bounds.extent();
    Vec3 o{bounds.lo.x + e.x * rng.nextFloat(),
           bounds.lo.y + e.y * rng.nextFloat(),
           bounds.lo.z + e.z * rng.nextFloat()};
    Vec3 d = normalize(Vec3{rng.nextFloat() - 0.5f, rng.nextFloat() - 0.5f,
                            rng.nextFloat() - 0.5f});
    return Ray(o, d);
}

void
BM_TriangleIntersect(benchmark::State &state)
{
    Triangle tri{{-1, -1, 0}, {1, -1, 0}, {0, 1, 0}, 0};
    Ray r({0.1f, 0.0f, -2}, {0, 0, 1});
    float t, u, v;
    for (auto _ : state) {
        benchmark::DoNotOptimize(intersectTriangle(r, tri, t, u, v));
    }
}
BENCHMARK(BM_TriangleIntersect);

void
BM_AabbIntersect(benchmark::State &state)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    Ray r({0, 0, -5}, {0.1f, 0.05f, 1});
    RayInv inv(r);
    float t;
    for (auto _ : state) {
        benchmark::DoNotOptimize(intersectAabb(r, inv, box, t));
    }
}
BENCHMARK(BM_AabbIntersect);

/**
 * Builder throughput, serial vs parallel, two scene sizes.
 * Args: (0 = BUNNY small / 1 = PARTY large, build threads).
 */
void
BM_BvhBuild(benchmark::State &state)
{
    static Scene small = buildScene("BUNNY", 0.25f);
    static Scene large = buildScene("PARTY", 0.25f);
    const Scene &s = state.range(0) ? large : small;
    BvhConfig cfg;
    cfg.buildThreads = uint32_t(state.range(1));
    for (auto _ : state) {
        Bvh b = Bvh::build(s.triangles, cfg);
        benchmark::DoNotOptimize(b.totalBytes());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(s.triangles.size()));
    state.SetLabel(s.name + (state.range(1) == 1 ? " serial"
                                                 : " parallel"));
}
BENCHMARK(BM_BvhBuild)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 8});

void
BM_ClosestHit(benchmark::State &state)
{
    const Bvh &bvh = benchBvh();
    Pcg32 rng(1);
    Aabb bounds = bvh.rootBounds();
    for (auto _ : state) {
        Ray r = randomRay(rng, bounds);
        benchmark::DoNotOptimize(bvh.intersectClosest(r));
    }
}
BENCHMARK(BM_ClosestHit);

void
BM_TreeletOrderTraversal(benchmark::State &state)
{
    const Bvh &bvh = benchBvh();
    Pcg32 rng(2);
    Aabb bounds = bvh.rootBounds();
    for (auto _ : state) {
        RayTraverser t(&bvh, randomRay(rng, bounds));
        while (!t.done()) {
            if (t.atBoundary()) {
                t.enterNextTreelet();
                continue;
            }
            t.complete();
        }
        benchmark::DoNotOptimize(t.hit());
    }
}
BENCHMARK(BM_TreeletOrderTraversal);

/**
 * Run-cache hit and miss cost: what a memoized bench pays to load a
 * cached RunStats (hit) or to discover one is absent (miss), versus
 * re-simulating. Uses a private cache root under the temp directory.
 */
class RunCacheBench
{
  public:
    RunCacheBench()
    {
        dir_ = (std::filesystem::temp_directory_path() /
                "trt_micro_run_cache")
                   .string();
        setenv("TRT_CACHE", dir_.c_str(), 1);
        setenv("TRT_RUN_CACHE", "1", 1);
        stats_.cycles = 1;
        // Representative payload: a 256x256 frame.
        stats_.framebuffer.resize(256 * 256, Vec3{0.5f, 0.5f, 0.5f});
        fp_ = runFingerprint(GpuConfig{}, "MICRO", 1.0f);
        storeCachedRun(fp_, "MICRO", stats_);
    }

    ~RunCacheBench()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        unsetenv("TRT_CACHE");
        unsetenv("TRT_RUN_CACHE");
    }

    uint64_t fp_ = 0;
    RunStats stats_;
    std::string dir_;
};

void
BM_RunCacheHit(benchmark::State &state)
{
    RunCacheBench rc;
    RunStats out;
    for (auto _ : state) {
        bool ok = loadCachedRun(rc.fp_, "MICRO", out);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_RunCacheHit)->Unit(benchmark::kMicrosecond);

void
BM_RunCacheMiss(benchmark::State &state)
{
    RunCacheBench rc;
    RunStats out;
    for (auto _ : state) {
        bool ok = loadCachedRun(rc.fp_ ^ 1, "MICRO", out);
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_RunCacheMiss)->Unit(benchmark::kMicrosecond);

void
BM_RunCacheStore(benchmark::State &state)
{
    RunCacheBench rc;
    for (auto _ : state) {
        storeCachedRun(rc.fp_, "MICRO", rc.stats_);
    }
}
BENCHMARK(BM_RunCacheStore)->Unit(benchmark::kMicrosecond);

/**
 * Simulator scaling: one full frame of the proposed architecture at
 * TRT_SIM_THREADS = 1..8 worker threads. Arg is the thread count; the
 * per-arg wall time directly yields the parallel-tick speedup curve
 * (results are bit-identical across args — see test_determinism).
 */
void
BM_SimulatorScaling(benchmark::State &state)
{
    GpuConfig cfg = GpuConfig::virtualizedTreeletQueues();
    cfg.imageWidth = cfg.imageHeight = 128;
    cfg.simThreads = uint32_t(state.range(0));
    const Scene &s = benchScene();
    for (auto _ : state) {
        RunStats st = simulate(cfg, s, benchBvh());
        benchmark::DoNotOptimize(st.cycles);
    }
    state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SimulatorScaling)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

/**
 * The 4-wide slab test, scalar reference vs the dispatching kernel
 * (SIMD when compiled in and enabled). Arg: 0 = scalar, 1 = vector.
 * Both paths produce bit-identical masks and entry distances; the
 * delta here is the pure host-side speedup of the vector backend.
 */
void
BM_Aabb4Kernel(benchmark::State &state)
{
    constexpr int kInputs = 256;
    static std::vector<std::pair<Ray, PackedBounds4>> inputs = [] {
        std::vector<std::pair<Ray, PackedBounds4>> in;
        Pcg32 rng(7);
        for (int i = 0; i < kInputs; i++) {
            Ray r({rng.nextRange(-4, 4), rng.nextRange(-4, 4), -6.0f},
                  normalize(Vec3{rng.nextRange(-0.3f, 0.3f),
                                 rng.nextRange(-0.3f, 0.3f), 1.0f}));
            PackedBounds4 pb;
            for (int k = 0; k < 4; k++) {
                Vec3 lo{rng.nextRange(-5, 4), rng.nextRange(-5, 4),
                        rng.nextRange(-5, 4)};
                pb.set(k, Aabb{lo, lo + Vec3{1, 1, 1}});
            }
            in.emplace_back(r, pb);
        }
        return in;
    }();

    bool want_simd = state.range(0) != 0;
    if (want_simd && !simdCompiledIn()) {
        state.SkipWithError("TRT_SIMD=OFF build");
        return;
    }
    setSimdEnabled(want_simd);
    size_t i = 0;
    float t[4];
    for (auto _ : state) {
        const auto &[r, pb] = inputs[i++ & (kInputs - 1)];
        RayInv inv(r);
        benchmark::DoNotOptimize(intersectAabb4(r, inv, pb, t));
    }
    setSimdEnabled(true);
    state.SetItemsProcessed(int64_t(state.iterations()) * 4);
    state.SetLabel(want_simd ? "simd" : "scalar");
}
BENCHMARK(BM_Aabb4Kernel)->Arg(0)->Arg(1);

/**
 * Cost of the per-tick next-event refresh the GPU main loop pays for
 * every ticked SM (Gpu::refreshRtEvent). With the incremental event
 * heap this is O(1) in the number of resident rays — the label arg
 * (32 / 1024 / 4096 rays) documents exactly that flatness; the old
 * implementation rescanned every warp-buffer entry.
 */
void
BM_RtNextEventRefresh(benchmark::State &state)
{
    uint32_t rays = uint32_t(state.range(0));
    GpuConfig cfg;
    cfg.warpBufferSize = (rays + cfg.warpSize - 1) / cfg.warpSize;
    MemConfig mc;
    mc.numL1s = 1;
    MemorySystem mem(mc);
    BaselineRtUnit unit(cfg, mem, benchBvh(), 0);
    unit.setCompletion([](uint64_t, std::vector<LaneHit> &&) {});

    Pcg32 rng(11);
    Aabb bounds = benchBvh().rootBounds();
    uint64_t token = 1;
    for (uint32_t n = 0; n < rays; n += cfg.warpSize) {
        TraceRequest req;
        req.token = token++;
        for (uint32_t l = 0; l < cfg.warpSize; l++)
            req.lanes.push_back({uint8_t(l), randomRay(rng, bounds)});
        unit.accept(0, std::move(req)); // fifo admits every warp
    }
    // One tick populates the wait states (and the event heap) of every
    // resident ray; the refresh below is what each later cycle pays.
    unit.tick(0);

    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.nextEventCycle());
    }
    state.SetLabel(std::to_string(rays) + " resident rays");
}
BENCHMARK(BM_RtNextEventRefresh)->Arg(32)->Arg(1024)->Arg(4096);

void
BM_CacheFullyAssoc(benchmark::State &state)
{
    Cache c(16 * 1024, 0, 128);
    Pcg32 rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(uint64_t(rng.nextBounded(4096)) * 128));
    }
}
BENCHMARK(BM_CacheFullyAssoc);

void
BM_CacheSetAssoc(benchmark::State &state)
{
    Cache c(128 * 1024, 16, 128);
    Pcg32 rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(uint64_t(rng.nextBounded(65536)) * 128));
    }
}
BENCHMARK(BM_CacheSetAssoc);

void
BM_MemorySystemRead(benchmark::State &state)
{
    MemConfig mc;
    mc.numL1s = 1;
    MemorySystem mem(mc);
    Pcg32 rng(5);
    uint64_t now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.read(now++, 0, uint64_t(rng.nextBounded(1 << 20)) * 128,
                     64, MemClass::BvhNode));
    }
}
BENCHMARK(BM_MemorySystemRead);

} // anonymous namespace

BENCHMARK_MAIN();
