/**
 * @file
 * Deterministic telemetry layer (DESIGN.md §12): per-SM time-series
 * sampling and event tracing for the cycle-level simulator.
 *
 * Determinism contract: during the parallel SM tick phase each unit
 * writes only its own TelemChannel (samples and events staged in plain
 * vectors, no shared state). At the serial cycle-commit boundary the
 * Gpu drains every channel in SM order — so the merged streams are in
 * (commit window, sm, intra-SM order), bit-identical at any
 * TRT_SIM_THREADS. All record timestamps are simulated cycles; no
 * wall-clock value ever enters a trace.
 *
 * Outputs (written once, at end of run):
 *   <out>/<base>.tsbin       versioned binary time series (v1; CSV via
 *                            scripts/telem_report.py)
 *   <out>/<base>.trace.json  Chrome trace-event JSON (Perfetto /
 *                            chrome://tracing), one track per SM plus
 *                            a "gpu" track for memory-system counters,
 *                            snapshot captures and sampled-simulation
 *                            phases.
 */

#ifndef TRT_TELEMETRY_TELEMETRY_HH
#define TRT_TELEMETRY_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "snapshot/serializer.hh"

namespace trt
{

/** Telemetry knobs (TRT_TELEM*). Wall-clock/observability only: never
 *  part of GpuConfig::fingerprint(), never a RunStats input. */
struct TelemetryConfig
{
    /** Time-series sampling (TRT_TELEM=1). */
    bool enabled = false;
    /** Event tracing (TRT_TELEM_TRACE=1; implies on()). */
    bool trace = false;
    /** Sampling period in simulated cycles (TRT_TELEM_EVERY). */
    uint64_t everyCycles = 4096;
    /** Output directory (TRT_TELEM_OUT, default "telemetry"). */
    std::string outDir = "telemetry";
    /** Per-run file base name; the harness derives it from the scene,
     *  dispatch policy and config fingerprint. Empty -> "telem". */
    std::string outBase;

    bool on() const { return enabled || trace; }

    /** Read TRT_TELEM / TRT_TELEM_TRACE / TRT_TELEM_EVERY /
     *  TRT_TELEM_OUT. */
    static TelemetryConfig fromEnv();
};

/** Traced event kinds (the a0/a1 payload meaning per kind). */
enum class TelemEventKind : uint8_t
{
    WarpFormed = 0,      //!< a0 = TraversalMode, a1 = rays in the warp.
    TreeletSwitch,       //!< a0 = new treelet id (VTQ L1 reload).
    QueueDrained,        //!< a0 = treelet id whose queue emptied.
    QueueOverflow,       //!< a0 = rays in flight (admission refused).
    SpeculationVerdict,  //!< a0 = 1 correct / 0 wrong prediction.
    PrefetchIssue,       //!< a0 = treelet id, a1 = lines fetched.
    TreeletPhaseEntered, //!< First treelet-stationary warp of this SM.
    SnapshotCapture,     //!< gpu track; a0 = snapshot cycle.
    PhaseBegin,          //!< gpu track; a0 = TelemPhase (B/E pairs are
                         //!< synthesized by the JSON exporter).
    NumKinds
};

const char *telemEventKindName(TelemEventKind k);

/** Sampled-simulation phase markers (DESIGN.md §8). */
enum class TelemPhase : uint8_t
{
    Detailed = 0, //!< Full-detail simulation (incl. all-detailed runs).
    Measure,      //!< Measured interval.
    FastForward,  //!< Functional fast-forward leg.
    Warmup,       //!< Discarded detailed warm-up.
    NumPhases
};

const char *telemPhaseName(TelemPhase p);

/** One periodic per-SM snapshot. Counter fields are cumulative (the
 *  CSV converter differentiates); depth fields are instantaneous. */
struct TelemSample
{
    uint64_t cycle = 0;
    uint32_t sm = 0;
    uint32_t raysHeld = 0;   //!< Rays queued, parked or stepping.
    uint32_t queuedRays = 0; //!< VTQ: rays parked in treelet queues.
    uint32_t queueCount = 0; //!< VTQ: live treelet queues.
    /** VTQ: the four deepest queue depths, descending. */
    std::array<uint32_t, 4> queueDepth{};
    uint64_t treeletSwitches = 0;
    uint64_t predictLookups = 0;
    uint64_t predictHits = 0;
    uint64_t nodeVisits = 0;
    uint64_t raysCompleted = 0;
};

/** One periodic GPU-level (memory-system) snapshot, captured at the
 *  serial commit boundary. Cumulative counters. */
struct TelemGpuSample
{
    uint64_t cycle = 0;
    uint64_t bvhL1Accesses = 0; //!< BVH node + triangle classes.
    uint64_t bvhL1Misses = 0;
    uint64_t bvhL2Accesses = 0;
    uint64_t bvhL2Misses = 0;
    uint64_t dramReadBytes = 0; //!< All classes.
    uint64_t dramWriteBytes = 0;
};

/** One traced event. */
struct TelemEvent
{
    uint64_t cycle = 0;
    uint32_t sm = 0;
    TelemEventKind kind = TelemEventKind::WarpFormed;
    uint64_t a0 = 0;
    uint64_t a1 = 0;
};

/**
 * Per-SM staging buffer. During the parallel tick phase it is written
 * exclusively by its SM (the Gpu's serial sections may also append —
 * they run with no tick in flight); the Gpu drains it at the serial
 * commit boundary.
 */
class TelemChannel
{
  public:
    uint32_t sm = 0;
    bool samplingOn = false;
    bool eventsOn = false;
    uint64_t every = 0;
    uint64_t nextSampleAt = 0;

    bool
    sampleDue(uint64_t now) const
    {
        return samplingOn && now >= nextSampleAt;
    }

    /** Append a zeroed sample stamped (cycle, sm) and advance
     *  nextSampleAt past @p now; the caller fills the payload. */
    TelemSample &
    startSample(uint64_t now)
    {
        nextSampleAt = (now / every + 1) * every;
        samples.emplace_back();
        samples.back().cycle = now;
        samples.back().sm = sm;
        return samples.back();
    }

    void
    event(uint64_t cycle, TelemEventKind kind, uint64_t a0 = 0,
          uint64_t a1 = 0)
    {
        if (!eventsOn)
            return;
        events.push_back({cycle, sm, kind, a0, a1});
    }

    std::vector<TelemSample> samples;
    std::vector<TelemEvent> events;
};

/**
 * The telemetry sink owned by a Gpu: numSms per-SM channels plus one
 * GPU-level channel (memory system, snapshots, sampled phases), merged
 * into flat in-memory streams at each commit and written to disk once
 * at end of run. saveState/loadState carry the full telemetry state
 * through snapshot/resume, so a resumed run's trace is byte-identical
 * to an uninterrupted one.
 */
class Telemetry
{
  public:
    Telemetry(const TelemetryConfig &cfg, uint32_t num_sms);

    const TelemetryConfig &config() const { return cfg_; }
    uint32_t numSms() const { return numSms_; }

    /** Channel for SM @p sm (< numSms). */
    TelemChannel &
    channel(uint32_t sm)
    {
        return channels_[sm];
    }

    /** The GPU-level track (rendered as tid numSms / "gpu"). */
    TelemChannel &gpuChannel() { return channels_[numSms_]; }

    bool
    gpuSampleDue(uint64_t now) const
    {
        return cfg_.enabled && now >= nextGpuSampleAt_;
    }

    /** True until a GPU-level sample at @p now exists: the run's last
     *  cycle always gets one, whatever the sampling period. */
    bool
    gpuTailDue(uint64_t now) const
    {
        return cfg_.enabled &&
               (gpuSamples_.empty() || gpuSamples_.back().cycle < now);
    }

    /** Append a GPU-level sample (serial context only). */
    void
    pushGpuSample(const TelemGpuSample &s)
    {
        nextGpuSampleAt_ = (s.cycle / cfg_.everyCycles + 1) *
                           cfg_.everyCycles;
        gpuSamples_.push_back(s);
    }

    /**
     * Serial commit boundary: drain every channel in SM order (gpu
     * track last) into the merged streams. The only legal merge point;
     * calling it anywhere else would interleave with the tick fan-out.
     */
    void commit();

    const std::vector<TelemSample> &samples() const { return samples_; }
    const std::vector<TelemGpuSample> &
    gpuSamples() const
    {
        return gpuSamples_;
    }
    const std::vector<TelemEvent> &events() const { return events_; }

    std::string binPath() const;
    std::string jsonPath() const;

    /** Write <base>.tsbin and (trace mode) <base>.trace.json under
     *  cfg_.outDir, creating the directory. Call once, after the final
     *  commit. */
    void writeFiles() const;

    /** Read a .tsbin file back: its period, SM count, trace flag and
     *  the three streams. Throws SnapshotError on malformed bytes and
     *  std::runtime_error when the file cannot be opened. */
    static Telemetry readBinary(const std::string &path);

    /** Hang diagnostics: the last @p per_sm samples of every SM (plus
     *  the gpu track), most recent last. */
    void recentDump(std::ostream &os, size_t per_sm = 4) const;

    /** Snapshot hooks (TELM chunk). Only callable at the serial commit
     *  boundary, after commit() — staged channel data would be lost. */
    void saveState(Serializer &s) const;
    void loadState(Deserializer &d);

  private:
    /** The sample, gpu-sample and event streams: the body of both the
     *  .tsbin file and the TELM snapshot chunk. */
    void saveStreams(Serializer &s) const;
    void loadStreams(Deserializer &d);
    void writeBinary(const std::string &path) const;
    void writeJson(const std::string &path) const;

    TelemetryConfig cfg_;
    uint32_t numSms_;
    std::vector<TelemChannel> channels_; //!< numSms_ + 1 (gpu last).
    uint64_t nextGpuSampleAt_ = 0;

    // Merged, commit-ordered streams.
    std::vector<TelemSample> samples_;
    std::vector<TelemGpuSample> gpuSamples_;
    std::vector<TelemEvent> events_;
};

/**
 * Fig. 11's curve: the BVH L1 miss ratio of each window between
 * consecutive gpu samples (the first window starts at cycle 0; a
 * single sample is one window), with neighbouring windows merged into
 * exactly @p buckets points so the figure has a fixed number of rows
 * whatever the run length. A bucket without accesses reads 0. Empty
 * when there are no samples.
 */
std::vector<double>
bvhL1MissSeries(const std::vector<TelemGpuSample> &samples, size_t buckets);

} // namespace trt

#endif // TRT_TELEMETRY_TELEMETRY_HH
