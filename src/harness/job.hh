/**
 * @file
 * Declarative job descriptions and the single execution path behind
 * them (the JobSpec / JobRunner split, DESIGN.md §13).
 *
 * A JobSpec is everything that *identifies* one simulation — scene,
 * scale, resolution, named configuration, BVH width, policy knobs,
 * sampling parameters — with three properties the farm is built on:
 *
 *   - serializable: round-trips through a line-based key=value text
 *     form (the farm's worker protocol payload). One knob table
 *     (jobKnobs()) declares each field's key, TRT_* name, parser and
 *     formatter, so the text form, manifests and the environment
 *     accept exactly the same values;
 *   - fingerprintable: JobSpec::fingerprint() is *the run-cache key*
 *     (run_cache.hh). A job whose fingerprint matches a cached blob is
 *     already computed, whatever binary computed it;
 *   - materializable: gpuConfig()/bvhConfig() expand the spec into the
 *     exact GpuConfig/BvhConfig the bench mains would build for the
 *     same knob settings, so farm jobs and hand-run benches alias.
 *
 * executeJob()/runJob() are the one execution path shared by the
 * bench harness (runScene), tests, and farm workers: run-cache lookup,
 * scene-bundle build, snapshot capture/resume, sampled or full
 * simulation, run-cache store.
 */

#ifndef TRT_HARNESS_JOB_HH
#define TRT_HARNESS_JOB_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bvh/bvh.hh"
#include "gpu/gpu.hh"

namespace trt
{

/** Declarative description of one simulation run. Every field is a
 *  row of the knob table (jobKnobs()). */
struct JobSpec
{
    std::string scene;            //!< Scene name (scene/registry.hh).
    float scale = 1.0f;           //!< Triangle-budget multiplier.
    uint32_t resolution = 256;    //!< Square frame resolution.
    /** Named configuration: baseline|fifo (seed GpuConfig), prefetch
     *  (Chou et al. treelet prefetcher), vtq (the paper's proposal),
     *  reorder, predict (DESIGN.md §9 policies). Empty: overlay()
     *  keeps the base config's policy (the harness's unset
     *  TRT_POLICY); gpuConfig() then starts from the seed config. */
    std::string config = "baseline";
    uint32_t bvhWidth = kBvhWidth; //!< 4 or 8.
    uint32_t maxBounces = 0;      //!< 0 = GpuConfig default (3).
    uint32_t reorderBinBits = 0;  //!< reorder only; 0 = default.
    uint32_t predictTableBits = 0; //!< predict only; 0 = default.
    bool predictShared = false;   //!< predict only.
    /** Sampled simulation (DESIGN.md §8); .enabled=false = full run. */
    SampleConfig sample;

    /** Apply these knobs to @p cfg: resolution, the named policy's
     *  canonical selector fields (Vtq pulls in ray virtualization and
     *  the reserved L2, every other policy drops them) and the nonzero
     *  policy parameters. Throws EnvError when validate() does. */
    GpuConfig overlay(GpuConfig cfg) const;

    /** Materialize the GpuConfig a bench would build for these knobs:
     *  overlay() on the seed config. */
    GpuConfig gpuConfig() const;

    /** Materialize the BVH build parameters (validated). */
    BvhConfig bvhConfig() const;

    /** The run-cache key of this job: runFingerprint() over the
     *  materialized configs (identical to what runScene computes for
     *  the same knobs, regression-tested). */
    uint64_t fingerprint() const;

    /** Compact human-readable id, e.g. "BUNNY/vtq/r256/x1/w4". */
    std::string label() const;

    /** Set one knob from text by its key, with the same parsing and
     *  checks on every path. Unknown keys and malformed or rejected
     *  values throw EnvError naming "<origin>.<key>". */
    void set(const std::string &key, const std::string &text,
             const std::string &origin = "job");

    /** The knob table's checks (BVH width 4|8, sample_measure > 0,
     *  sample_intervals > 0, a known config name) over every field;
     *  EnvError names "job.<key>" and the value. */
    void validate() const;

    /** Line-based key=value text form (the wire format). */
    std::string serialize() const;

    /** Strict parse of serialize() output: set() for every line, and
     *  "scene" is required. @p origin names the source in errors. */
    static JobSpec deserialize(const std::string &text,
                               const std::string &origin = "job");

    /** @p defaults (JobSpec{} for the built-in ones) with every knob
     *  that has a TRT_* name and is set (non-empty) in the environment
     *  applied; errors name the variable. */
    static JobSpec fromEnv(JobSpec defaults);
};

/** One row of the knob table: the only declaration of a run knob's
 *  text key, environment name, parser (with its bounds), check and
 *  formatter. */
struct JobKnob
{
    const char *key; //!< JobSpec text key (serialize(), manifests).
    const char *env; //!< TRT_* environment name; nullptr = none.
    /** Parse @p text into the field; EnvError names @p what. */
    std::function<void(JobSpec &, const std::string &what,
                       const std::string &text)>
        parse;
    /** The field's text form. */
    std::function<std::string(const JobSpec &)> format;
    /** Check beyond the parser's syntax and range; empty = none. */
    std::function<bool(const JobSpec &)> valid = {};
    const char *expected = nullptr; //!< What valid() accepts, for errors.
};

/** The knob table, in serialize() order. */
const std::vector<JobKnob> &jobKnobs();

/** Execution knobs that never change the result, only how it is
 *  computed (all deliberately outside JobSpec::fingerprint()). */
struct JobRunnerOptions
{
    /** SM tick worker threads; 0 = GpuConfig/env default. */
    uint32_t simThreads = 0;
    /** Resume from the newest valid snapshot of this job's
     *  fingerprint (the farm sets this on retries). */
    bool resume = false;
    /** Nonzero: snapshot at the first cycle boundary >= this and
     *  throw SimulationHalted (crash injection for tests/CI). */
    uint64_t haltAtCycle = 0;
    /** Telemetry (DESIGN.md §12); bypasses run-cache loads when on. */
    TelemetryConfig telem;
};

/** What one executed job produced. */
struct JobOutcome
{
    RunStats stats;
    uint64_t fingerprint = 0; //!< The run-cache key that was used.
    bool cacheHit = false;    //!< Served from the run cache.
    uint64_t wallMs = 0;      //!< Simulation wall clock (0 on a hit).
};

/**
 * The single execution path: run-cache lookup, bundle build, snapshot
 * capture/resume, full or sampled simulation, run-cache store.
 * runScene() (harness.hh) and runJob() are thin wrappers.
 */
JobOutcome executeJob(const std::string &scene, float scale,
                      const GpuConfig &cfg, const BvhConfig &bvhCfg,
                      const SampleConfig &sample,
                      const JobRunnerOptions &opt = {});

/** Materialize @p spec and execute it. */
JobOutcome runJob(const JobSpec &spec, const JobRunnerOptions &opt = {});

} // namespace trt

#endif // TRT_HARNESS_JOB_HH
