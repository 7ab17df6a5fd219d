/**
 * @file
 * Experiment harness shared by the benchmark binaries: environment
 * knobs, process-wide scene/BVH caching, and parallel execution of
 * scene x configuration sweeps.
 *
 * Every TRT_* environment knob is listed, with its default and bounds,
 * in the knob table of README.md ("Environment knobs"). The knobs that
 * identify a run are rows of the JobSpec knob table (harness/job.hh).
 */

#ifndef TRT_HARNESS_HARNESS_HH
#define TRT_HARNESS_HARNESS_HH

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bvh/bvh.hh"
#include "core/arch.hh"
#include "gpu/gpu.hh"
#include "harness/job.hh"
#include "scene/registry.hh"
#include "stats/stats.hh"
#include "stats/table.hh"

namespace trt
{

/** Scene + BVH built once per (name, scale) and shared across runs. */
struct SceneBundle
{
    std::string name;
    Scene scene;
    Bvh bvh;
    BvhStats bvhStats;
};

/** Harness-level options (mostly from the environment). */
struct HarnessOptions
{
    /** The run knobs (JobSpec::fromEnv); job.scene is unused. An empty
     *  job.config (TRT_POLICY unset) keeps each config's own policy. */
    JobSpec job = [] {
        JobSpec j;
        j.config.clear();
        return j;
    }();
    std::vector<std::string> scenes; //!< Defaults to all of Table 2.
    uint32_t threads = 0;            //!< 0 = hardware concurrency.
    /** Per-simulation SM tick threads (TRT_SIM_THREADS); 0 = derive
     *  from the thread budget, see effectiveSimThreads(). */
    uint32_t simThreads = 0;
    std::string resultsDir = "results";
    /** Resume interrupted simulations from the newest valid snapshot
     *  (--resume / TRT_RESUME; see DESIGN.md §7). */
    bool resume = false;
    /** Telemetry knobs (TRT_TELEM* / --telem-out). runScene derives a
     *  per-scene file base name and bypasses run-cache loads when on. */
    TelemetryConfig telem;

    /** Read TRT_* environment variables. */
    static HarnessOptions fromEnv();

    /** fromEnv() plus command-line flags (--resume,
     *  --telem-out <dir>). Unknown arguments are a hard error; exits
     *  with a usage message. */
    static HarnessOptions fromArgs(int argc, char **argv);

    /** job.overlay(): resolution, the TRT_POLICY override and the
     *  policy parameters applied to a bench's config. */
    GpuConfig apply(GpuConfig cfg) const { return job.overlay(cfg); }

    /** The bundle runScene() simulates @p scene on: job.scale and
     *  job.bvhConfig(). */
    const SceneBundle &bundle(const std::string &scene) const;

    /**
     * SM tick threads each simulation should use: the explicit
     * TRT_SIM_THREADS when set, otherwise the TRT_THREADS budget
     * divided by the scenes that run concurrently — so scene-level and
     * within-run parallelism compose without oversubscribing the host.
     */
    uint32_t effectiveSimThreads() const;
};

/** Root directory of the on-disk caches (TRT_CACHE, default
 *  ".trt_cache"); empty string when caching is disabled. */
std::string cacheRootDir();

/**
 * Get (building and caching on first use) the bundle for @p name at
 * @p scale, with the BVH built under @p bvhCfg (its fingerprint keys
 * both the in-process and on-disk caches, so different widths coexist;
 * HarnessOptions::bundle() passes the run knobs' width).
 * Thread-safe; the returned reference lives for the process.
 */
const SceneBundle &getSceneBundle(const std::string &name, float scale,
                                  const BvhConfig &bvhCfg = {});

/** The bundle cache's file: magic, version, scene (name, background,
 *  camera, materials, triangles), then a BvhIo stream. Load returns
 *  false on a missing, stale or malformed file; save is best effort. */
bool loadBundleFile(const std::filesystem::path &path, SceneBundle &b);
void saveBundleFile(const std::filesystem::path &path,
                    const SceneBundle &b);

/**
 * Simulate one scene under @p cfg (resolution from cfg) at
 * opt.job's scale, BVH width and sampling mode. Consults the
 * persistent run cache first (run_cache.hh); a hit skips simulation
 * entirely and is counted in harnessTiming().
 */
RunStats runScene(const std::string &name, const GpuConfig &cfg,
                  const HarnessOptions &opt);

/**
 * Run @p fn for every scene in @p opt.scenes, up to opt.threads at a
 * time. Results are returned in scene order. Exceptions propagate.
 */
std::vector<RunStats> runAllScenes(
    const HarnessOptions &opt,
    const std::function<GpuConfig(const std::string &)> &cfg_for);

/** Per-scene runner variant returning arbitrary results. */
void parallelForScenes(const HarnessOptions &opt,
                       const std::function<void(size_t idx,
                                                const std::string &)> &fn);

/** Write @p table as CSV into opt.resultsDir / @p filename. */
void writeCsv(const HarnessOptions &opt, const Table &table,
              const std::string &filename);

/** Print a standard bench header with the effective options. */
void printBenchHeader(const std::string &title, const HarnessOptions &opt);

/**
 * The body of every bench main: run @p body and turn a malformed knob
 * (EnvError) into one "<prog>: <message>" line on stderr and exit
 * status 2, as trt_farm does. Other exceptions propagate.
 */
int runMain(int argc, char **argv, int (*body)(int, char **));

} // namespace trt

#endif // TRT_HARNESS_HARNESS_HH
