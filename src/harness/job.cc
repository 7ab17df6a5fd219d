#include "harness/job.hh"

#include <chrono>
#include <cstdio>
#include <sstream>

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

} // anonymous namespace

// ---- JobSpec ---------------------------------------------------------

GpuConfig
JobSpec::gpuConfig() const
{
    DispatchPolicyKind kind;
    if (!parseDispatchPolicy(config, kind))
        throw EnvError("job config: unknown '" + config +
                       "' (baseline|fifo|prefetch|vtq|reorder|predict)");
    GpuConfig cfg = GpuConfig::forPolicy(kind);
    cfg.imageWidth = resolution;
    cfg.imageHeight = resolution;
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

BvhConfig
JobSpec::bvhConfig() const
{
    if (bvhWidth != 4 && bvhWidth != 8)
        throw EnvError("job bvh_width=\"" + std::to_string(bvhWidth) +
                       "\": expected 4 or 8");
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

std::string
JobSpec::serialize() const
{
    std::ostringstream ss;
    ss << "scene=" << scene << "\n"
       << "scale=" << formatFloat(scale) << "\n"
       << "res=" << resolution << "\n"
       << "config=" << config << "\n"
       << "bvh_width=" << bvhWidth << "\n"
       << "bounces=" << maxBounces << "\n"
       << "reorder_bits=" << reorderBinBits << "\n"
       << "predict_bits=" << predictTableBits << "\n"
       << "predict_shared=" << (predictShared ? 1 : 0) << "\n"
       << "sample=" << (sample.enabled ? 1 : 0) << "\n"
       << "sample_measure=" << sample.measureCtas << "\n"
       << "sample_warmup=" << sample.warmupCycles << "\n"
       << "sample_intervals=" << sample.targetIntervals << "\n"
       << "sample_ff_rays=" << sample.ffRays << "\n";
    return ss.str();
}

JobSpec
JobSpec::deserialize(const std::string &text, const std::string &origin)
{
    JobSpec spec;
    std::istringstream is(text);
    std::string line;
    bool have_scene = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw EnvError(origin + ": malformed line \"" + line +
                           "\" (expected key=value)");
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        std::string what = origin + "." + key;
        if (key == "scene") {
            spec.scene = val;
            have_scene = !val.empty();
        } else if (key == "scale") {
            spec.scale = float(parseDoubleText(what, val));
        } else if (key == "res") {
            spec.resolution = uint32_t(parseUIntText(what, val, 1 << 16));
        } else if (key == "config") {
            spec.config = val;
        } else if (key == "bvh_width") {
            spec.bvhWidth = uint32_t(parseUIntText(what, val, 8));
        } else if (key == "bounces") {
            spec.maxBounces = uint32_t(parseUIntText(what, val, 1 << 10));
        } else if (key == "reorder_bits") {
            spec.reorderBinBits = uint32_t(parseUIntText(what, val, 16));
        } else if (key == "predict_bits") {
            spec.predictTableBits =
                uint32_t(parseUIntText(what, val, 24));
        } else if (key == "predict_shared") {
            spec.predictShared = parseFlagText(what, val);
        } else if (key == "sample") {
            spec.sample.enabled = parseFlagText(what, val);
        } else if (key == "sample_measure") {
            spec.sample.measureCtas =
                uint32_t(parseUIntText(what, val, 1u << 20));
        } else if (key == "sample_warmup") {
            spec.sample.warmupCycles =
                parseUIntText(what, val, 1ull << 40);
        } else if (key == "sample_intervals") {
            spec.sample.targetIntervals =
                uint32_t(parseUIntText(what, val, 1u << 20));
        } else if (key == "sample_ff_rays") {
            spec.sample.ffRays = parseUIntText(what, val, 1ull << 40);
        } else {
            throw EnvError(origin + ": unknown key \"" + key + "\"");
        }
    }
    if (!have_scene)
        throw EnvError(origin + ": missing required key \"scene\"");
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
    if (envFlag("TRT_SIM_RATE", false)) {
        // Machine-parseable per-scene rate line (key=value pairs).
        double s = double(std::max<uint64_t>(ms, 1)) / 1000.0;
        std::fprintf(stderr,
                     "[harness] sim-rate scene=%s policy=%s cycles=%llu "
                     "rays=%llu ms=%llu cyc_per_s=%.0f mrays_per_s=%.3f\n",
                     scene.c_str(), dispatchPolicyName(cfg.policy),
                     (unsigned long long)st.cycles,
                     (unsigned long long)st.raysTraced,
                     (unsigned long long)ms, double(st.cycles) / s,
                     double(st.raysTraced) / s / 1e6);
    }
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
