#include "harness/job.hh"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <type_traits>

#include "core/arch.hh"
#include "harness/harness.hh"
#include "harness/run_cache.hh"
#include "util/env.hh"

namespace trt
{

namespace
{

uint64_t
msSince(std::chrono::steady_clock::time_point t0)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
}

std::string
formatFloat(float v)
{
    char buf[32];
    // 9 significant digits round-trip any float through text exactly.
    std::snprintf(buf, sizeof(buf), "%.9g", double(v));
    return buf;
}

// Row builders. @p field is a generic accessor returning a reference
// to the knob's JobSpec member.

template <typename Field>
JobKnob
uintKnob(const char *key, const char *env, uint64_t max, Field field,
         bool (*ok)(uint64_t) = nullptr, const char *expected = nullptr)
{
    JobKnob k{key, env,
              [=](JobSpec &s, const std::string &what,
                  const std::string &text) {
                  using T = std::remove_reference_t<decltype(field(s))>;
                  field(s) = T(parseUIntText(what, text, max));
              },
              [=](const JobSpec &s) { return std::to_string(field(s)); },
              {}, expected};
    if (ok)
        k.valid = [=](const JobSpec &s) { return ok(field(s)); };
    return k;
}

template <typename Field>
JobKnob
flagKnob(const char *key, const char *env, Field field)
{
    return {key, env,
            [=](JobSpec &s, const std::string &what,
                const std::string &text) {
                field(s) = parseFlagText(what, text);
            },
            [=](const JobSpec &s) {
                return std::string(field(s) ? "1" : "0");
            }};
}

bool
positive(uint64_t v)
{
    return v > 0;
}

/** The one validation step: throw EnvError naming @p what unless
 *  @p k's field passes the row's check. */
void
checkKnob(const JobSpec &spec, const JobKnob &k, const std::string &what)
{
    if (k.valid && !k.valid(spec))
        throw EnvError(what + "=\"" + k.format(spec) + "\": expected " +
                       k.expected);
}

} // anonymous namespace

const std::vector<JobKnob> &
jobKnobs()
{
    static const std::vector<JobKnob> table = {
        {"scene", nullptr,
         [](JobSpec &s, const std::string &, const std::string &text) {
             s.scene = text;
         },
         [](const JobSpec &s) { return s.scene; }},
        {"scale", "TRT_SCALE",
         [](JobSpec &s, const std::string &what, const std::string &text) {
             s.scale = float(parseDoubleText(what, text));
         },
         [](const JobSpec &s) { return formatFloat(s.scale); }},
        uintKnob(
            "res", "TRT_RES", 1 << 16,
            [](auto &s) -> auto & { return s.resolution; }, positive,
            "> 0"),
        {"config", "TRT_POLICY",
         [](JobSpec &s, const std::string &, const std::string &text) {
             s.config = text;
         },
         [](const JobSpec &s) { return s.config; },
         [](const JobSpec &s) {
             DispatchPolicyKind kind;
             return s.config.empty() || parseDispatchPolicy(s.config, kind);
         },
         "baseline|fifo|prefetch|vtq|reorder|predict"},
        uintKnob(
            "bvh_width", "TRT_BVH_WIDTH", kMaxBvhWidth,
            [](auto &s) -> auto & { return s.bvhWidth; },
            [](uint64_t w) { return w == 4 || w == 8; }, "4 or 8"),
        uintKnob("bounces", nullptr, 1 << 10,
                 [](auto &s) -> auto & { return s.maxBounces; }),
        uintKnob("reorder_bits", "TRT_REORDER_BITS", 16,
                 [](auto &s) -> auto & { return s.reorderBinBits; }),
        uintKnob("predict_bits", "TRT_PREDICT_BITS", 24,
                 [](auto &s) -> auto & { return s.predictTableBits; }),
        flagKnob("predict_shared", "TRT_PREDICT_SHARED",
                 [](auto &s) -> auto & { return s.predictShared; }),
        flagKnob("sample", "TRT_SAMPLE",
                 [](auto &s) -> auto & { return s.sample.enabled; }),
        uintKnob(
            "sample_measure", "TRT_SAMPLE_MEASURE", 1u << 20,
            [](auto &s) -> auto & { return s.sample.measureCtas; },
            positive, "> 0"),
        uintKnob("sample_warmup", "TRT_SAMPLE_WARMUP", 1ull << 40,
                 [](auto &s) -> auto & { return s.sample.warmupCycles; }),
        uintKnob(
            "sample_intervals", "TRT_SAMPLE_INTERVALS", 1u << 20,
            [](auto &s) -> auto & { return s.sample.targetIntervals; },
            positive, "> 0"),
        uintKnob("sample_ff_rays", "TRT_SAMPLE_FF_RAYS", 1ull << 40,
                 [](auto &s) -> auto & { return s.sample.ffRays; }),
    };
    return table;
}

// ---- JobSpec ---------------------------------------------------------

GpuConfig
JobSpec::overlay(GpuConfig cfg) const
{
    validate();
    cfg.imageWidth = resolution;
    cfg.imageHeight = resolution;
    DispatchPolicyKind kind;
    if (parseDispatchPolicy(config, kind)) {
        GpuConfig canon = GpuConfig::forPolicy(kind);
        cfg.policy = canon.policy;
        cfg.rayVirtualization = canon.rayVirtualization;
        cfg.mem.l2ReservedBytes = canon.mem.l2ReservedBytes;
    }
    if (maxBounces > 0)
        cfg.maxBounces = maxBounces;
    if (reorderBinBits > 0)
        cfg.reorderBinBits = reorderBinBits;
    if (predictTableBits > 0)
        cfg.predictTableBits = predictTableBits;
    if (predictShared)
        cfg.predictShared = true;
    return cfg;
}

GpuConfig
JobSpec::gpuConfig() const
{
    return overlay(GpuConfig{});
}

BvhConfig
JobSpec::bvhConfig() const
{
    validate();
    BvhConfig b;
    b.width = int(bvhWidth);
    return b;
}

uint64_t
JobSpec::fingerprint() const
{
    return runFingerprint(gpuConfig(), scene, scale, bvhConfig(),
                          sample.enabled ? sample.fingerprint() : 0);
}

std::string
JobSpec::label() const
{
    std::ostringstream ss;
    ss << scene << "/" << config << "/r" << resolution << "/x"
       << formatFloat(scale) << "/w" << bvhWidth;
    if (sample.enabled)
        ss << "/sampled";
    return ss.str();
}

void
JobSpec::set(const std::string &key, const std::string &text,
             const std::string &origin)
{
    for (const JobKnob &k : jobKnobs()) {
        if (key == k.key) {
            std::string what = origin + "." + key;
            k.parse(*this, what, text);
            checkKnob(*this, k, what);
            return;
        }
    }
    throw EnvError(origin + ": unknown key \"" + key + "\"");
}

void
JobSpec::validate() const
{
    for (const JobKnob &k : jobKnobs())
        checkKnob(*this, k, std::string("job.") + k.key);
}

std::string
JobSpec::serialize() const
{
    std::string out;
    for (const JobKnob &k : jobKnobs())
        out += std::string(k.key) + "=" + k.format(*this) + "\n";
    return out;
}

JobSpec
JobSpec::deserialize(const std::string &text, const std::string &origin)
{
    JobSpec spec;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw EnvError(origin + ": malformed line \"" + line +
                           "\" (expected key=value)");
        spec.set(line.substr(0, eq), line.substr(eq + 1), origin);
    }
    if (spec.scene.empty())
        throw EnvError(origin + ": missing required key \"scene\"");
    return spec;
}

JobSpec
JobSpec::fromEnv(JobSpec spec)
{
    for (const JobKnob &k : jobKnobs()) {
        if (k.env && envSet(k.env)) {
            k.parse(spec, k.env, envRaw(k.env));
            checkKnob(spec, k, k.env);
        }
    }
    return spec;
}

// ---- execution -------------------------------------------------------

JobOutcome
executeJob(const std::string &scene, float scale, const GpuConfig &cfg,
           const BvhConfig &bvhCfg, const SampleConfig &sample,
           const JobRunnerOptions &opt)
{
    JobOutcome out;
    // Consult the run cache before touching the scene bundle: a warm
    // cache skips scene generation and the BVH build as well. Sampled
    // runs fold their SampleConfig into the fingerprint so full and
    // sampled (or differently-sampled) results never alias.
    uint64_t fp =
        runFingerprint(cfg, scene, scale, bvhCfg,
                       sample.enabled ? sample.fingerprint() : 0);
    out.fingerprint = fp;
    // Telemetry wants the simulation to actually run (a cache hit
    // would produce no trace), so loads are bypassed; stores still
    // happen below — the result is valid for non-telemetry runs too.
    if (!opt.telem.on() && loadCachedRun(fp, scene, out.stats)) {
        out.cacheHit = true;
        return out;
    }

    const SceneBundle &b = getSceneBundle(scene, scale, bvhCfg);
    auto t0 = std::chrono::steady_clock::now();
    // Wall-clock-only knobs, applied after the fingerprint above so
    // cached results remain valid across thread counts and telemetry
    // settings.
    GpuConfig run_cfg = cfg;
    if (run_cfg.simThreads == 0)
        run_cfg.simThreads = opt.simThreads;
    if (opt.telem.on()) {
        run_cfg.telem = opt.telem;
        if (run_cfg.telem.outBase.empty()) {
            // Scene + policy + short fingerprint: keeps concurrent
            // scenes and configurations from clobbering each other's
            // traces in one output directory.
            char fp_hex[9];
            std::snprintf(fp_hex, sizeof(fp_hex), "%08x",
                          unsigned(fp & 0xffffffffu));
            run_cfg.telem.outBase = scene + "_" +
                                    dispatchPolicyName(run_cfg.policy) +
                                    "_" + fp_hex;
        }
    }
    SnapshotPolicy snap = SnapshotPolicy::fromEnv(fp);
    if (opt.haltAtCycle != 0)
        snap.haltAtCycle = opt.haltAtCycle;
    RunStats &st = out.stats;
    if (sample.enabled) {
        st = simulateSampled(run_cfg, b.scene, b.bvh, sample, snap,
                             opt.resume);
        if ((snap.captureEnabled() || opt.resume) && !snap.keep)
            removeSnapshotsFor(snap.dir, fp);
    } else if (snap.captureEnabled() || opt.resume) {
        st = simulateWithSnapshots(run_cfg, b.scene, b.bvh, snap,
                                   opt.resume);
        // The run completed: its snapshots are spent (resuming them
        // would replay work already banked in the run cache).
        if (!snap.keep)
            removeSnapshotsFor(snap.dir, fp);
    } else {
        st = simulate(run_cfg, b.scene, b.bvh);
    }
    uint64_t ms = msSince(t0);
    out.wallMs = ms;
    harnessTiming().simulateMs += ms;
    harnessTiming().simulatedCycles += st.cycles;
    harnessTiming().simulatedRays += st.raysTraced;
    storeCachedRun(fp, scene, st);
    return out;
}

JobOutcome
runJob(const JobSpec &spec, const JobRunnerOptions &opt)
{
    return executeJob(spec.scene, spec.scale, spec.gpuConfig(),
                      spec.bvhConfig(), spec.sample, opt);
}

} // namespace trt
