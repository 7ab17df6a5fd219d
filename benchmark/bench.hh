/**
 * @file
 * Infrastructure of the repository benchmark (trt_bench): spans
 * that time calls into each simulator layer from outside, the metric
 * and failure bookkeeping of one workload run, and the checks shared by
 * the workloads. README.md in this directory defines every workload and
 * metric.
 */

#ifndef TRT_BENCHMARK_BENCH_HH
#define TRT_BENCHMARK_BENCH_HH

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bvh/bvh.hh"
#include "gpu/gpu.hh"
#include "scene/scene.hh"

namespace trt::bench
{

/** Seconds on the steady clock. */
double nowS();

/** @p s as a JSON string literal, quotes included. */
std::string jsonQuote(const std::string &s);

/** One recorded span, written out as a Chrome trace "X" event. */
struct SpanRecord
{
    std::string name;
    std::string job; //!< workload/scene/config/width, or the workload.
    double start = 0;
    double end = 0;
    int parent = -1; //!< Index of the enclosing span; -1 at the root.
};

/**
 * In-memory span recorder (--trace). Spans nest strictly: trt_bench is
 * single-threaded around every timed call, so an open-span stack gives
 * each span its parent.
 */
class Tracer
{
  public:
    void enable() { on_ = true; }
    bool enabled() const { return on_; }

    int open(const std::string &name, const std::string &job, double t);
    void close(int idx, double t);

    /** Seconds spent inside open()/close(): the cost tracing adds. */
    double overheadS() const { return overheadS_; }

    /** Write the spans as Chrome trace JSON (open in Perfetto). */
    void writeChromeTrace(const std::filesystem::path &path) const;

  private:
    bool on_ = false;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    double overheadS_ = 0;
};

Tracer &tracer();

/**
 * Times one call into a layer. The duration is always measured (the
 * metrics need it); the span is recorded only when tracing is on.
 */
class Span
{
  public:
    explicit Span(const std::string &name, const std::string &job = "");
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); returns its duration in seconds. */
    double stop();

  private:
    double t0_;
    double elapsed_ = 0;
    int idx_ = -1;
    bool open_ = true;
};

/** Run @p fn inside a span; returns its duration in seconds. */
template <typename F>
double
timed(const std::string &name, const std::string &job, F &&fn)
{
    Span s(name, job);
    fn();
    return s.stop();
}

/** Metrics, attempted/failed jobs and fingerprints of one run. */
class Result
{
  public:
    void set(const std::string &name, double value, const std::string &unit);

    /** Register job @p job as attempted (idempotent). */
    void attempt(const std::string &job) { attempted_.insert(job); }

    /** Mark @p job failed and log @p why to stderr. */
    void fail(const std::string &job, const std::string &why);

    /** fail(job, why) unless @p ok; returns ok. */
    bool expect(bool ok, const std::string &job, const std::string &why);

    /** Record the RunStats fingerprint of @p job for stats_digest. */
    void fingerprint(const std::string &job, uint64_t fp)
    { fps_[job] = fp; }

    /** FNV-1a over every (job, fingerprint) in job order. */
    uint64_t statsDigest() const;

    const std::map<std::string, std::pair<double, std::string>> &
    metrics() const
    { return metrics_; }
    size_t attempted() const { return attempted_.size(); }
    size_t failed() const { return failed_.size(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::set<std::string> attempted_, failed_;
    std::vector<std::string> failures_;
    std::map<std::string, uint64_t> fps_;
};

/** What every workload receives. */
struct Context
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool smoke = false;
    std::filesystem::path tmp; //!< Scratch dir, removed after the run.
    Result res;
};

// ---- statistics ---------------------------------------------------------

double median(std::vector<double> v);
/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> v, double p);

// ---- inputs -------------------------------------------------------------

/** A scene and its BVH, built in the benchmark's set-up phase. */
struct Prepared
{
    std::string name;
    Scene scene;
    Bvh bvh;
};

/**
 * Build every scene of @p names at @p scale, and a BVH of each width in
 * @p widths with @p buildThreads, five times (the medians go into
 * setup_s, scene.build_s and bvh.build_s); returns the last build, one
 * entry per (scene, width).
 */
std::vector<Prepared> setUp(Context &ctx,
                            const std::vector<std::string> &names,
                            float scale, const std::vector<int> &widths,
                            uint32_t buildThreads);

// ---- jobs ---------------------------------------------------------------

/** One simulation job and what it produced. */
struct Job
{
    const Prepared *in = nullptr;
    std::string config; //!< fifo | prefetch | vtq | reorder | predict
    GpuConfig cfg;
    std::string id;     //!< workload/scene/config/wN[/mode]
    RunStats stats;
    std::vector<double> secs; //!< Host time of every repetition.
    bool ok = false;

    double seconds() const { return median(secs); }
};

/**
 * The order jobs run in: identity for seed 1, otherwise a permutation
 * drawn from @p seed. The order does not change any simulated result.
 */
std::vector<size_t> seededOrder(uint64_t seed, size_t n);

/** Named configuration at @p res with @p simThreads SM tick threads. */
GpuConfig jobConfig(const std::string &config, uint32_t res,
                    uint32_t simThreads);

/** One Job per (scene, config), ids tagged with @p mode when given. */
std::vector<Job> makeJobs(const Context &ctx,
                          const std::vector<Prepared> &in,
                          const std::vector<std::string> &configs,
                          uint32_t res, uint32_t simThreads,
                          const std::string &mode = "");

/**
 * Run @p jobs in order, then keep cycling through them until @p seconds
 * have passed. A repetition must reproduce the first run's RunStats
 * fingerprint. @p sample selects sampled simulation.
 */
void runJobs(Context &ctx, std::vector<Job> &jobs, double seconds,
             const SampleConfig *sample = nullptr);

/** Sum of the jobs' median host times. */
double totalSeconds(const std::vector<Job> &jobs);

// ---- metrics ------------------------------------------------------------

/** wall_s, sim_krays_per_s and sim_mcycles_per_s of the measured
 *  phase: its host time and the rays and cycles it simulated. */
void setThroughput(Context &ctx, double wallS,
                   const std::vector<const Job *> &jobs);

/**
 * peak_rss_mb: the largest resident set of the process or of any farm
 * worker it reaped so far. Workloads take it right after the measured
 * phase; the checks that follow hold extra copies of every BVH and
 * RunStats and would set it otherwise.
 */
void setPeakRss(Context &ctx);

/** gpu.simulate_s.{cfg} and gpu.ns_per_cycle.{cfg}. */
void setSimulateTimes(Context &ctx, const std::vector<Job> &jobs);

/** Modelled-hardware counters (rt.*, mem.*, gpu.cta_state_mb.vtq) and
 *  the {vtq,prefetch,reorder,predict}_speedup geomeans over scenes. */
void setModelMetrics(Context &ctx, const std::vector<const Job *> &jobs);

// ---- checks -------------------------------------------------------------

/** Pixels whose value differs (any channel, exact compare). */
uint64_t mismatchPx(const std::vector<Vec3> &a, const std::vector<Vec3> &b);

/**
 * Every job of a scene must render the same frame; that frame is
 * compared against renderReference (ref_mismatch_px, shader.reference_s).
 */
void checkFrames(Context &ctx, const std::vector<Prepared> &in,
                 const std::vector<const Job *> &jobs);

/**
 * Every RunStats survives storeCachedRun -> loadCachedRun and every BVH
 * survives BvhIo save -> load byte for byte (harness.*, bvh.io_ms).
 */
void checkRoundTrips(Context &ctx, const std::vector<Prepared> &in,
                     const std::vector<const Job *> &jobs);

std::vector<const Job *> ptrs(const std::vector<Job> &jobs);

// ---- workloads (workloads.cc) -------------------------------------------

void fig10Detailed(Context &ctx);
void sampledHires(Context &ctx);
void largeMt(Context &ctx);
void farmSweep(Context &ctx);

} // namespace trt::bench

#endif // TRT_BENCHMARK_BENCH_HH
