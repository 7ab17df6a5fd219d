/**
 * @file
 * Experiment harness shared by the benchmark binaries: environment
 * knobs, process-wide scene/BVH caching, and parallel execution of
 * scene x configuration sweeps.
 *
 * Environment variables:
 *   TRT_RES            image resolution (square), default 256 (paper).
 *   TRT_SCALE          scene triangle-budget multiplier, default 1.0.
 *   TRT_SCENES         comma-separated subset of scene names.
 *   TRT_FAST           =1: default resolution 64, scale 0.15 (smoke
 *                      runs). Precedence: TRT_FAST only supplies
 *                      *defaults* — an explicit TRT_RES or TRT_SCALE
 *                      always wins, so "TRT_FAST=1 TRT_SCALE=0.5"
 *                      runs 64x64 at scale 0.5.
 *   TRT_THREADS        max parallel scene simulations (default: hw).
 *   TRT_RESULTS        directory for CSV dumps, default "results".
 *   TRT_CACHE          cache root, default ".trt_cache"; =0 disables
 *                      all on-disk caching (bundles and run results).
 *   TRT_BUILD_THREADS  BVH build threads (default: hw). Any value
 *                      yields a bit-identical BVH; this is purely a
 *                      wall-clock knob.
 *   TRT_RUN_CACHE      =0: bypass the persistent RunStats memoization
 *                      under <TRT_CACHE>/runs/ (see run_cache.hh).
 *   TRT_RUN_CACHE_MAX_MB  size cap for <TRT_CACHE>/runs/, default 512;
 *                      oldest blobs (by mtime, LRU) are pruned after
 *                      each store. <=0 disables pruning.
 *   TRT_SIM_THREADS    worker threads per simulation (SM tick fan-out
 *                      via the two-phase memory interface). Any value
 *                      yields bit-identical RunStats; purely a
 *                      wall-clock knob. Default: unset — the harness
 *                      divides the TRT_THREADS budget across the
 *                      scenes running in parallel (see
 *                      HarnessOptions::effectiveSimThreads).
 *   TRT_SNAPSHOT_EVERY periodic checkpoint interval in simulated
 *                      cycles (0/unset disables; DESIGN.md §7).
 *   TRT_SNAPSHOT_DIR   snapshot directory, default ".trt_snapshots".
 *   TRT_SNAPSHOT_HALT_AT  write a snapshot at the first cycle boundary
 *                      >= this cycle, then abort the run (raises
 *                      SimulationHalted; test/CI crash stand-in).
 *   TRT_SNAPSHOT_KEEP  =1: keep snapshots after a completed run
 *                      (default: the harness deletes them).
 *   TRT_RESUME         =1: resume from the newest valid snapshot
 *                      (same as --resume).
 *   TRT_SAMPLE         =1: sampled simulation (DESIGN.md §8) — detailed
 *                      measured intervals separated by functional
 *                      fast-forward + discarded warm-up; RunStats is
 *                      extrapolated with confidence intervals in
 *                      RunStats::sampled. Sampled and full results
 *                      never share run-cache entries.
 *   TRT_SAMPLE_MEASURE measured-interval length in retired CTAs
 *                      (default 32; must be > 0). Fixed-work intervals
 *                      keep the sampling fraction uniform across the
 *                      frame (see gpu/sampled.hh); longer intervals
 *                      shrink extrapolation error at wall-clock cost.
 *   TRT_SAMPLE_WARMUP  hard cap on the discarded detailed warm-up
 *                      after each fast-forward leg (default 100000
 *                      cycles; 0 skips warm-up). Warm-up normally
 *                      exits earlier: when the RT backlog rebuilds to
 *                      its pre-drain level, or at the final wave.
 *   TRT_SAMPLE_INTERVALS  target measured-interval count (default 8;
 *                      must be > 0): each fast-forward leg skips
 *                      ~totalCtas/target finished CTAs, spreading the
 *                      intervals uniformly across the frame's work.
 *                      Scenes with fewer CTAs than one schedule
 *                      (MEASURE x INTERVALS) run all-detailed (exact).
 *   TRT_SAMPLE_FF_RAYS fixed fast-forward quantum in rays; overrides
 *                      the CTA-stratum leg sizing when set.
 *   TRT_SAMPLE_DEBUG   =1: per-interval rate/strata trace and an
 *                      extrapolation summary on stderr.
 *   TRT_POLICY         dispatch policy (DESIGN.md §9): baseline|fifo
 *                      (seed behavior), prefetch (Chou et al. treelet
 *                      prefetcher), vtq (treelet queues; implies ray
 *                      virtualization and the reserved L2, which every
 *                      other policy drops), reorder (Morton-binned ray
 *                      reordering), predict (hash-based path
 *                      prediction). Unset keeps each bench config's
 *                      own policy.
 *   TRT_REORDER_BITS   reorder policy: Morton bits per axis of the
 *                      origin binning grid (default 6).
 *   TRT_PREDICT_BITS   predict policy: log2 prediction-table entries
 *                      per RT unit (default 12).
 *   TRT_PREDICT_SHARED =1: predict policy shares one prediction table
 *                      across all SMs' RT units instead of one table
 *                      per unit (GpuConfig::predictShared). Frames and
 *                      stats stay bit-identical across TRT_SIM_THREADS.
 *   TRT_BVH_WIDTH      BVH branching factor: 4 (default, 64-byte
 *                      nodes) or 8 (compressed 80-byte nodes with
 *                      quantized child bounds — half the bytes per
 *                      child). Keyed into the bundle and run caches;
 *                      frames are bit-identical across widths.
 *   TRT_TELEM          =1: per-SM time-series telemetry (DESIGN.md
 *                      §12) — periodic occupancy / queue-depth / cache
 *                      samples written to <dir>/<scene...>.tsbin.
 *                      Purely observational: RunStats stays
 *                      bit-identical and the knob is excluded from the
 *                      config fingerprint (run-cache *loads* are
 *                      bypassed so the simulation actually runs).
 *   TRT_TELEM_TRACE    =1: event tracing — Chrome trace-event JSON
 *                      (<scene...>.trace.json, open in Perfetto or
 *                      chrome://tracing), one track per SM plus a gpu
 *                      track. Implies TRT_TELEM=1, so the counter
 *                      series always accompanies the events.
 *   TRT_TELEM_EVERY    sampling period in simulated cycles (default
 *                      4096; must be > 0).
 *   TRT_TELEM_OUT      telemetry output directory, default
 *                      "telemetry" (same as --telem-out, which also
 *                      turns both TRT_TELEM and TRT_TELEM_TRACE on).
 *   TRT_FARM_WORKERS   trt_farm (DESIGN.md §13): worker subprocess
 *                      pool size, default 2. Aggregated results are
 *                      bit-identical at any pool size (and --serial).
 *   TRT_FARM_RETRIES   trt_farm: max re-dispatches per job after a
 *                      worker crash or timeout (default 2). Retries
 *                      resume from the crashed attempt's snapshot
 *                      when one exists.
 *   TRT_FARM_TIMEOUT_S trt_farm: per-attempt timeout in seconds
 *                      (default 600; heartbeats keep long simulations
 *                      alive). A worker silent past it is SIGKILLed
 *                      and the job retried.
 *   TRT_FARM_INJECT_CRASH  trt_farm fault injection (tests/CI): path
 *                      of an O_EXCL sentinel; exactly one fresh
 *                      worker attempt claims it, snapshots at
 *                      TRT_FARM_INJECT_CRASH_AT cycles (default
 *                      20000), and SIGKILLs itself to exercise the
 *                      real retry-with-resume path.
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
    uint32_t resolution = 256;
    float sceneScale = 1.0f;
    std::vector<std::string> scenes; //!< Defaults to all of Table 2.
    uint32_t threads = 0;            //!< 0 = hardware concurrency.
    /** Per-simulation SM tick threads (TRT_SIM_THREADS); 0 = derive
     *  from the thread budget, see effectiveSimThreads(). */
    uint32_t simThreads = 0;
    std::string resultsDir = "results";
    /** Resume interrupted simulations from the newest valid snapshot
     *  (--resume / TRT_RESUME; see DESIGN.md §7). */
    bool resume = false;
    /** Dispatch-policy override (TRT_POLICY); empty = keep each
     *  config's own policy. */
    std::string policyName;
    uint32_t reorderBinBits = 0;   //!< TRT_REORDER_BITS; 0 = default.
    uint32_t predictTableBits = 0; //!< TRT_PREDICT_BITS; 0 = default.
    bool predictShared = false;    //!< TRT_PREDICT_SHARED.
    /** Telemetry knobs (TRT_TELEM* / --telem-out). runScene derives a
     *  per-scene file base name and bypasses run-cache loads when on. */
    TelemetryConfig telem;

    /** Read TRT_* environment variables. */
    static HarnessOptions fromEnv();

    /** fromEnv() plus command-line flags (--resume,
     *  --telem-out <dir>). Unknown arguments are a hard error; exits
     *  with a usage message. */
    static HarnessOptions fromArgs(int argc, char **argv);

    /** Apply resolution to a GpuConfig. */
    GpuConfig apply(GpuConfig cfg) const;

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
 * both the in-process and on-disk caches, so different widths coexist).
 * Thread-safe; the returned reference lives for the process.
 */
const SceneBundle &getSceneBundle(const std::string &name, float scale,
                                  const BvhConfig &bvhCfg);

/** Same, with the environment's BVH parameters (TRT_BVH_WIDTH). */
const SceneBundle &getSceneBundle(const std::string &name, float scale);

/** The bundle cache's file: magic, version, scene (name, background,
 *  camera, materials, triangles), then a BvhIo stream. Load returns
 *  false on a missing, stale or malformed file; save is best effort. */
bool loadBundleFile(const std::filesystem::path &path, SceneBundle &b);
void saveBundleFile(const std::filesystem::path &path,
                    const SceneBundle &b);

/**
 * Simulate one scene under @p cfg (resolution from cfg). Consults the
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

} // namespace trt

#endif // TRT_HARNESS_HARNESS_HH
