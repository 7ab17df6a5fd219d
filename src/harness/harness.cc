#include "harness/harness.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "bvh/io.hh"
#include "harness/job.hh"
#include "harness/run_cache.hh"
#include "snapshot/serializer.hh"
#include "util/env.hh"

namespace trt
{

namespace
{

/** Bump when scene generators, BVH build or formats change. */
constexpr uint32_t kBundleCacheVersion = 2; //!< v2: wide-BVH io header.
constexpr uint32_t kBundleMagic = 0x54525442u; // 'TRTB'

std::filesystem::path
cachePath(const std::string &name, float scale, const BvhConfig &bvhCfg)
{
    // The builder-parameter fingerprint is part of the key: a change
    // to maxLeafTris, the treelet byte cap, the branching width, etc.
    // must never serve a bundle built under the old parameters.
    std::ostringstream ss;
    ss << name << "_s" << scale << "_b" << std::hex
       << bvhCfg.fingerprint() << std::dec << "_v"
       << kBundleCacheVersion << ".bin";
    return std::filesystem::path(cacheRootDir()) / ss.str();
}

/** Milliseconds elapsed since @p t0. */
uint64_t
msSince(std::chrono::steady_clock::time_point t0)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
}

} // anonymous namespace

bool
loadBundleFile(const std::filesystem::path &path, SceneBundle &b)
{
    std::ifstream is(path, std::ios::binary);
    Deserializer d(is);
    try {
        if (d.u32() != kBundleMagic || d.u32() != kBundleCacheVersion)
            return false;
        b.scene.name = d.str();
        b.scene.background = d.pod<Vec3>();
        b.scene.camera = Camera::fromState(d.pod<Camera::State>());
        b.scene.materials = d.vecPod<Material>();
        b.scene.triangles = d.vecPod<Triangle>();
    } catch (const SnapshotError &) {
        return false;
    }
    for (const Triangle &t : b.scene.triangles)
        if (t.material >= b.scene.materials.size())
            return false;
    // The BVH follows in the same stream, read from where d stopped.
    if (!BvhIo::load(is, b.bvh))
        return false;
    b.name = b.scene.name;
    b.bvhStats = b.bvh.stats();
    return true;
}

void
saveBundleFile(const std::filesystem::path &path, const SceneBundle &b)
{
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return;
    Serializer s(os);
    s.u32(kBundleMagic);
    s.u32(kBundleCacheVersion);
    s.str(b.scene.name);
    s.pod(b.scene.background);
    s.pod(b.scene.camera.state());
    s.vecPod(b.scene.materials);
    s.vecPod(b.scene.triangles);
    BvhIo::save(os, b.bvh);
}

std::string
cacheRootDir()
{
    std::string s = envString("TRT_CACHE", ".trt_cache");
    return s == "0" || s.empty() ? std::string() : s;
}

HarnessOptions
HarnessOptions::fromEnv()
{
    HarnessOptions opt;
    // TRT_FAST lowers the *defaults* only: an explicit TRT_RES or
    // TRT_SCALE still wins, so "TRT_FAST=1 TRT_SCALE=0.5" runs at 64x64
    // with scale 0.5.
    if (envFlag("TRT_FAST", false)) {
        opt.job.resolution = 64;
        opt.job.scale = 0.15f;
    }
    opt.job = JobSpec::fromEnv(opt.job);
    opt.threads = uint32_t(envUInt("TRT_THREADS", 0, 4096));
    opt.simThreads = uint32_t(envUInt("TRT_SIM_THREADS", 0, 4096));
    if (const char *r = envRaw("TRT_RESULTS"))
        opt.resultsDir = r;

    if (const char *s = envRaw("TRT_SCENES")) {
        std::stringstream ss(s);
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty())
                opt.scenes.push_back(item);
    }
    if (opt.scenes.empty())
        opt.scenes = sceneNames();
    opt.resume = envFlag("TRT_RESUME", false);
    opt.telem = TelemetryConfig::fromEnv();
    return opt;
}

HarnessOptions
HarnessOptions::fromArgs(int argc, char **argv)
{
    HarnessOptions opt = fromEnv();
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--telem-out" && i + 1 < argc) {
            // Shorthand for TRT_TELEM=1 TRT_TELEM_TRACE=1
            // TRT_TELEM_OUT=<dir>: the full telemetry output in one
            // flag.
            opt.telem.outDir = argv[++i];
            opt.telem.enabled = true;
            opt.telem.trace = true;
        } else {
            std::fprintf(stderr,
                         "%s: unknown argument '%s'\n"
                         "usage: %s [--resume] [--telem-out <dir>]\n"
                         "(all other options come from TRT_* environment "
                         "variables, see the knob table in README.md)\n",
                         argv[0], arg.c_str(), argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

const SceneBundle &
HarnessOptions::bundle(const std::string &scene) const
{
    return getSceneBundle(scene, job.scale, job.bvhConfig());
}

uint32_t
HarnessOptions::effectiveSimThreads() const
{
    if (simThreads > 0)
        return simThreads;
    uint32_t hw = std::thread::hardware_concurrency();
    uint32_t budget = threads ? threads : (hw ? hw : 4);
    // Scenes run concurrently up to the same budget (parallelForScenes
    // clamps to the scene count); split the remainder across them.
    uint32_t scene_par =
        std::min<uint32_t>(budget, uint32_t(std::max<size_t>(
                                       scenes.size(), 1)));
    return std::max(1u, budget / scene_par);
}

const SceneBundle &
getSceneBundle(const std::string &name, float scale,
               const BvhConfig &bvhCfg)
{
    struct Key
    {
        std::string name;
        float scale;
        uint64_t bvhFp;
        bool
        operator<(const Key &o) const
        {
            if (name != o.name)
                return name < o.name;
            if (scale != o.scale)
                return scale < o.scale;
            return bvhFp < o.bvhFp;
        }
    };
    static std::map<Key, std::unique_ptr<SceneBundle>> cache;
    static std::mutex mtx;
    // Per-bundle build mutexes so two scenes can build concurrently but
    // the same scene is built once.
    static std::map<Key, std::unique_ptr<std::mutex>> building;

    Key key{name, scale, bvhCfg.fingerprint()};
    std::mutex *bmtx;
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = cache.find(key);
        if (it != cache.end() && it->second)
            return *it->second;
        auto bit = building.find(key);
        if (bit == building.end())
            bit = building.emplace(key,
                                   std::make_unique<std::mutex>()).first;
        bmtx = bit->second.get();
    }

    std::lock_guard<std::mutex> build_lock(*bmtx);
    {
        std::lock_guard<std::mutex> lk(mtx);
        auto it = cache.find(key);
        if (it != cache.end() && it->second)
            return *it->second;
    }

    auto bundle = std::make_unique<SceneBundle>();
    bool cached = false;
    if (!cacheRootDir().empty())
        cached = loadBundleFile(cachePath(name, scale, bvhCfg), *bundle);
    if (cached) {
        harnessTiming().bundleCacheHits++;
    } else {
        auto t0 = std::chrono::steady_clock::now();
        bundle->name = name;
        bundle->scene = buildScene(name, scale);
        bundle->bvh = Bvh::build(bundle->scene.triangles, bvhCfg);
        bundle->bvhStats = bundle->bvh.stats();
        harnessTiming().sceneBuildMs += msSince(t0);
        if (!cacheRootDir().empty()) {
            harnessTiming().bundleCacheMisses++;
            saveBundleFile(cachePath(name, scale, bvhCfg), *bundle);
        }
    }

    std::lock_guard<std::mutex> lk(mtx);
    auto [it, inserted] = cache.emplace(key, std::move(bundle));
    (void)inserted;
    return *it->second;
}

RunStats
runScene(const std::string &name, const GpuConfig &cfg,
         const HarnessOptions &opt)
{
    // One execution path for benches, tests and farm workers: the
    // actual run-cache/snapshot/simulate logic lives in executeJob()
    // (harness/job.hh). Scale, BVH build parameters and sampling mode
    // come from opt.job, so the fingerprint matches what a JobSpec
    // with the same knobs computes.
    JobRunnerOptions ropt;
    ropt.simThreads = opt.effectiveSimThreads();
    ropt.resume = opt.resume;
    ropt.telem = opt.telem;
    return executeJob(name, opt.job.scale, cfg, opt.job.bvhConfig(),
                      opt.job.sample, ropt)
        .stats;
}

void
parallelForScenes(const HarnessOptions &opt,
                  const std::function<void(size_t, const std::string &)> &fn)
{
    uint32_t hw = std::thread::hardware_concurrency();
    uint32_t n_threads = opt.threads ? opt.threads : (hw ? hw : 4);
    n_threads = std::min<uint32_t>(n_threads,
                                   uint32_t(opt.scenes.size()));
    if (n_threads <= 1) {
        for (size_t i = 0; i < opt.scenes.size(); i++)
            fn(i, opt.scenes[i]);
        return;
    }

    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    std::mutex err_mtx;
    std::exception_ptr first_error;
    for (uint32_t t = 0; t < n_threads; t++) {
        pool.emplace_back([&]() {
            for (;;) {
                size_t i = next.fetch_add(1);
                if (i >= opt.scenes.size())
                    return;
                try {
                    fn(i, opt.scenes[i]);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(err_mtx);
                    if (!first_error)
                        first_error = std::current_exception();
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<RunStats>
runAllScenes(const HarnessOptions &opt,
             const std::function<GpuConfig(const std::string &)> &cfg_for)
{
    std::vector<RunStats> results(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        results[i] = runScene(name, cfg_for(name), opt);
    });
    return results;
}

void
writeCsv(const HarnessOptions &opt, const Table &table,
         const std::string &filename)
{
    std::error_code ec;
    std::filesystem::create_directories(opt.resultsDir, ec);
    std::ofstream out(std::filesystem::path(opt.resultsDir) / filename);
    if (out)
        table.printCsv(out);
}

void
printBenchHeader(const std::string &title, const HarnessOptions &opt)
{
    std::cout << "==== " << title << " ====\n"
              << "resolution=" << opt.job.resolution << "x"
              << opt.job.resolution << " scene_scale=" << opt.job.scale
              << " scenes=" << opt.scenes.size() << "\n\n";
}

} // namespace trt
