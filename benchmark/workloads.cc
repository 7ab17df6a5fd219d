/**
 * @file
 * The four benchmark workloads. Each runs set-up, a measured phase and
 * checks; README.md gives why each one exists and which layer metrics
 * it should move. --smoke keeps every code path at tiny sizes.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "bench.hh"
#include "core/arch.hh"
#include "farm/scheduler.hh"
#include "geom/hash.hh"
#include "gpu/run_stats_io.hh"

namespace trt::bench
{

namespace
{

uint64_t
fp(const RunStats &st)
{
    return RunStatsIo::fingerprint(st);
}

/** A vtq job (CRNVL at seed 1) again with telemetry, then with
 *  snapshots every 100 k cycles, halted at cycle 200 k and resumed (one
 *  run, to keep the workload short); none of it counts in wall_s. */
void
observabilityProbe(Context &ctx, const Job &base)
{
    const Scene &scene = base.in->scene;
    const Bvh &bvh = base.in->bvh;
    uint64_t want = fp(base.stats);
    double plain = base.seconds();

    std::string id = base.id + "/telemetry";
    ctx.res.attempt(id);
    try {
        GpuConfig cfg = base.cfg;
        cfg.telem.enabled = true;
        cfg.telem.outDir = (ctx.tmp / "telemetry").string();
        cfg.telem.outBase = "probe";
        RunStats st;
        double t = timed("telemetry.probe", id,
                         [&] { st = simulate(cfg, scene, bvh); });
        ctx.res.expect(fp(st) == want, id, "telemetry changed RunStats");
        ctx.res.set("telemetry.overhead_pct", (t / plain - 1) * 100, "%");
    } catch (const std::exception &e) {
        ctx.res.fail(id, e.what());
    }

    id = base.id + "/snapshots";
    ctx.res.attempt(id);
    try {
        // Tiny smoke frames end before cycle 200 k; scale both points
        // into the frame so the halt always fires.
        uint64_t cycles = std::max<uint64_t>(base.stats.cycles, 4);
        SnapshotPolicy pol;
        pol.dir = (ctx.tmp / "snapshots").string();
        pol.worldFp = Fnv1a().str(base.id).value();
        pol.everyCycles = std::min<uint64_t>(100000, cycles / 4);
        SnapshotPolicy halt = pol;
        halt.haltAtCycle = std::min<uint64_t>(200000, cycles / 2);
        bool halted = false;
        double t = timed("snapshot.halt", id, [&] {
            try {
                simulateWithSnapshots(base.cfg, scene, bvh, halt, false);
            } catch (const SimulationHalted &) {
                halted = true;
            }
        });
        RunStats st;
        t += timed("snapshot.resume", id, [&] {
            st = simulateWithSnapshots(base.cfg, scene, bvh, pol, true);
        });
        ctx.res.expect(halted && fp(st) == want, id,
                       "halted + resumed run differs from the "
                       "uninterrupted one");
        ctx.res.set("snapshot.overhead_pct", (t / plain - 1) * 100, "%");
    } catch (const std::exception &e) {
        ctx.res.fail(id, e.what());
    }
}

} // anonymous namespace

void
fig10Detailed(Context &ctx)
{
    std::vector<std::string> scenes = {"BUNNY", "SPNZA", "CRNVL", "BATH"};
    std::string probe = "CRNVL";
    float scale = 1.0f;
    // Res 128 rather than the paper's 256 keeps a pass over the 12 jobs
    // near 2 s, so each job repeats several times per run and its median
    // host time is steady.
    uint32_t res = 128;
    if (ctx.seed != 1) {
        // Held out: no seed-1 workload uses these scenes. At this scale
        // their BVHs take 18.8 MB against the paper set's 18.4 MB.
        scenes = {"CHSNT", "REF", "LANDS"};
        probe = "REF";
        scale = 0.3f;
    }
    if (ctx.smoke) {
        scenes = {"BUNNY", "CRNVL"};
        probe = "CRNVL";
        scale = 0.05f;
        res = 32;
    }
    std::vector<Prepared> in;
    {
        Span phase("phase.setup", ctx.workload);
        in = setUp(ctx, scenes, scale, {4}, 1);
    }
    std::vector<Job> jobs =
        makeJobs(ctx, in, {"fifo", "prefetch", "vtq"}, res, 1);
    {
        Span phase("phase.measure", ctx.workload);
        runJobs(ctx, jobs, ctx.seconds);
    }
    setPeakRss(ctx);
    Span phase("phase.check", ctx.workload);
    setThroughput(ctx, totalSeconds(jobs), ptrs(jobs));
    setSimulateTimes(ctx, jobs);
    setModelMetrics(ctx, ptrs(jobs));
    checkFrames(ctx, in, ptrs(jobs));
    checkRoundTrips(ctx, in, ptrs(jobs));
    for (const Job &j : jobs)
        if (j.ok && j.in->name == probe && j.config == "vtq")
            observabilityProbe(ctx, j);
}

void
sampledHires(Context &ctx)
{
    std::string scene = "CRNVL";
    float scale = 1.0f;
    uint32_t res = 512;
    if (ctx.seed != 1) {
        // Held out: no seed-1 workload uses LANDS. At this scale it has
        // CRNVL's 112 k triangles and a 6.8 MB BVH against 7.1 MB.
        scene = "LANDS";
        scale = 0.136f;
    }
    if (ctx.smoke) {
        scale *= 0.1f;
        res = 64;
    }
    std::vector<Prepared> in;
    {
        Span phase("phase.setup", ctx.workload);
        in = setUp(ctx, {scene}, scale, {4}, 1);
    }
    SampleConfig sample;
    sample.enabled = true;
    std::vector<Job> sampled =
        makeJobs(ctx, in, {"fifo", "vtq"}, res, 1, "sampled");
    {
        Span phase("phase.measure", ctx.workload);
        runJobs(ctx, sampled, ctx.seconds, &sample);
    }
    setPeakRss(ctx);
    Span phase("phase.check", ctx.workload);
    std::vector<Job> full = makeJobs(ctx, in, {"fifo", "vtq"}, res, 1,
                                     "full");
    runJobs(ctx, full, 0);

    setThroughput(ctx, totalSeconds(sampled), ptrs(sampled));
    setSimulateTimes(ctx, full);
    setModelMetrics(ctx, ptrs(sampled));
    std::map<std::string, double> sampledS, fullS;
    double err = 0, ffRays = 0, rays = 0, intervals = 0;
    size_t n = 0;
    for (size_t i = 0; i < sampled.size(); i++) {
        const Job &s = sampled[i], &f = full[i];
        sampledS[s.config] += s.seconds();
        fullS[f.config] += f.seconds();
        if (!s.ok || !f.ok || f.stats.cycles == 0)
            continue;
        double e = (double(s.stats.cycles) - double(f.stats.cycles)) /
                   double(f.stats.cycles) * 100;
        ctx.res.set("sampled.err_pct." + s.config, e, "%");
        ctx.res.set("sampled.ci95_pct." + s.config,
                    s.stats.sampled.cyclesCi95 /
                        double(std::max<uint64_t>(s.stats.cycles, 1)) * 100,
                    "%");
        err += std::abs(e);
        ffRays += double(s.stats.sampled.ffRays);
        rays += double(s.stats.sampled.totalRays);
        intervals += s.stats.sampled.intervals;
        n++;
    }
    for (const auto &[c, t] : sampledS) {
        ctx.res.set("sampled.simulate_s." + c, t, "s");
        ctx.res.set("sampled.full_s." + c, fullS[c], "s");
    }
    ctx.res.set("sampled.host_speedup",
                totalSeconds(full) / std::max(totalSeconds(sampled), 1e-9),
                "x");
    ctx.res.set("sampled.ff_ray_frac", rays > 0 ? ffRays / rays : 0,
                "ratio");
    ctx.res.set("sampled.intervals", n ? intervals / double(n) : 0,
                "count");
    ctx.res.set("sampled_err_pct", n ? err / double(n) : 0, "%");

    std::vector<const Job *> all = ptrs(sampled);
    for (const Job &j : full)
        all.push_back(&j);
    checkFrames(ctx, in, all);
    checkRoundTrips(ctx, in, all);
}

void
largeMt(Context &ctx)
{
    float scale = ctx.smoke ? 0.02f : 0.5f;
    // Res 64 keeps a pass over both jobs near 4 s at 2 threads.
    uint32_t res = ctx.smoke ? 32 : 64;
    std::vector<Prepared> in;
    {
        Span phase("phase.setup", ctx.workload);
        in = setUp(ctx, {"FRST"}, scale, {8}, 2);
    }
    std::vector<Job> pool = makeJobs(ctx, in, {"fifo", "vtq"}, res, 2);
    {
        Span phase("phase.measure", ctx.workload);
        runJobs(ctx, pool, ctx.seconds);
    }
    setPeakRss(ctx);
    Span phase("phase.check", ctx.workload);
    std::vector<Job> serial =
        makeJobs(ctx, in, {"fifo", "vtq"}, res, 1, "t1");
    runJobs(ctx, serial, 0);
    for (size_t i = 0; i < pool.size(); i++)
        ctx.res.expect(pool[i].ok && serial[i].ok &&
                           fp(pool[i].stats) == fp(serial[i].stats),
                       pool[i].id, "RunStats differ between 1 and 2 SM "
                                   "threads");
    setThroughput(ctx, totalSeconds(pool), ptrs(pool));
    setSimulateTimes(ctx, pool);
    setModelMetrics(ctx, ptrs(pool));
    ctx.res.set("gpu.pool_slowdown",
                totalSeconds(pool) / std::max(totalSeconds(serial), 1e-9),
                "x");
    std::vector<const Job *> all = ptrs(pool);
    for (const Job &j : serial)
        all.push_back(&j);
    checkFrames(ctx, in, all);
    checkRoundTrips(ctx, in, ptrs(pool));
}

void
farmSweep(Context &ctx)
{
    // Short jobs, so fork, protocol and scheduler weigh in, and a cold
    // pass short enough to repeat several times per run.
    std::vector<std::string> scenes = {"BUNNY", "SPNZA", "CRNVL", "BATH"};
    float scale = 0.25f;
    uint32_t res = 64;
    if (ctx.smoke) {
        scenes = {"BUNNY", "CRNVL"};
        scale = 0.05f;
        res = 32;
    }
    const std::vector<std::string> configs = {"fifo", "prefetch", "vtq",
                                              "reorder", "predict"};

    auto list = [](const std::vector<std::string> &v) {
        std::string s;
        for (const std::string &x : v)
            s += (s.empty() ? "\"" : ",\"") + x + "\"";
        return "[" + s + "]";
    };
    Manifest m = Manifest::parse(
        "{\"name\":\"farm_sweep\",\"defaults\":{\"res\":" +
            std::to_string(res) + ",\"scale\":" + std::to_string(scale) +
            "},\"scenes\":" + list(scenes) + ",\"configs\":" +
            list(configs) + ",\"grid\":{\"bvh_width\":[4,8]}}",
        "farm_sweep");
    std::vector<JobSpec> specs;
    for (size_t i : seededOrder(ctx.seed, m.jobs.size()))
        specs.push_back(m.jobs[i]);
    m.jobs = specs;

    FarmOptions fo;
    fo.workers = 2;
    fo.simThreads = 1;
    fo.retries = 1;
    fo.timeoutS = 60;
    fo.progressS = 3600;
    fo.outDir = (ctx.tmp / "farm").string();
    // Workers build their own bundles: one thread each keeps the whole
    // workload at two threads.
    setenv("TRT_BUILD_THREADS", "1", 1);

    FarmResult cold, warm;
    std::vector<double> coldS;
    {
        Span phase("phase.measure", ctx.workload);
        double t0 = nowS();
        do {
            // Every cold pass starts from an empty bundle and run cache.
            std::string dir =
                (ctx.tmp / ("farm-cache-" + std::to_string(coldS.size())))
                    .string();
            setenv("TRT_CACHE", dir.c_str(), 1);
            coldS.push_back(timed("farm.cold", ctx.workload,
                                  [&] { cold = runFarm(m, fo); }));
        } while (nowS() - t0 < ctx.seconds);
    }
    // Before set-up: forked workers inherit the parent's heap, so scenes
    // built in-process would count in every worker's RSS.
    setPeakRss(ctx);
    // The same scenes and BVHs the workers build, for setup_s and the
    // checks.
    std::vector<Prepared> in;
    {
        Span phase("phase.setup", ctx.workload);
        in = setUp(ctx, scenes, scale, {4, 8}, 1);
    }
    Span phase("phase.check", ctx.workload);
    double warmS = timed("farm.warm", ctx.workload,
                         [&] { warm = runFarm(m, fo); });
    setenv("TRT_CACHE", (ctx.tmp / "cache").string().c_str(), 1);

    std::vector<Job> jobs;
    std::vector<double> jobMs;
    double busyS = 0;
    for (size_t i = 0; i < cold.jobs.size(); i++) {
        const JobRecord &r = cold.jobs[i];
        Job j;
        for (const Prepared &p : in)
            if (p.name == r.spec.scene &&
                uint32_t(p.bvh.width()) == r.spec.bvhWidth)
                j.in = &p;
        j.config = r.spec.config;
        j.cfg = jobConfig(r.spec.config, res, 1);
        j.id = ctx.workload + "/" + r.spec.scene + "/" + r.spec.config +
               "/w" + std::to_string(r.spec.bvhWidth);
        j.stats = r.stats;
        j.secs = {double(r.wallMs) / 1e3};
        ctx.res.attempt(j.id);
        j.ok = ctx.res.expect(j.in && !r.failed, j.id,
                              "farm job failed: " + r.error);
        ctx.res.expect(r.attempts <= 1, j.id, "farm job was retried");
        const JobRecord &w = warm.jobs[i];
        ctx.res.expect(w.cacheHit && !w.failed && j.ok &&
                           fp(w.stats) == fp(r.stats),
                       j.id, "warm pass differs from the cold pass");
        if (j.ok)
            ctx.res.fingerprint(j.id, fp(r.stats));
        jobMs.push_back(double(r.wallMs));
        busyS += double(r.wallMs) / 1e3;
        jobs.push_back(std::move(j));
    }
    double wall = median(coldS);
    setThroughput(ctx, wall, ptrs(jobs));
    setSimulateTimes(ctx, jobs);
    setModelMetrics(ctx, ptrs(jobs));
    ctx.res.set("farm.cold_s", wall, "s");
    ctx.res.set("farm.warm_s", warmS, "s");
    ctx.res.set("farm.jobs_per_s", double(jobs.size()) / wall, "jobs/s");
    ctx.res.set("farm.job_ms.p50", percentile(jobMs, 50), "ms");
    // The highest percentile with ten of the 40 jobs above it.
    ctx.res.set("farm.job_ms.p75", percentile(jobMs, 75), "ms");
    ctx.res.set("farm.worker_busy_frac",
                busyS / (double(fo.workers) * coldS.back()), "ratio");
    ctx.res.set("farm.retries", double(cold.retries + warm.retries),
                "count");
    ctx.res.set("farm.failed", double(cold.failed + warm.failed), "count");
    checkFrames(ctx, in, ptrs(jobs));
    checkRoundTrips(ctx, in, ptrs(jobs));
}

} // namespace trt::bench
