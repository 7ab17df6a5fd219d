#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

#include "bvh/io.hh"
#include "core/arch.hh"
#include "geom/hash.hh"
#include "geom/rng.hh"
#include "gpu/run_stats_io.hh"
#include "harness/job.hh"
#include "harness/run_cache.hh"
#include "scene/registry.hh"
#include "stats/stats.hh"

namespace trt::bench
{

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- tracing --------------------------------------------------------------

int
Tracer::open(const std::string &name, const std::string &job, double t)
{
    double c0 = nowS();
    int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, job, t, t, parent});
    stack_.push_back(int(spans_.size()) - 1);
    overheadS_ += nowS() - c0;
    return stack_.back();
}

void
Tracer::close(int idx, double t)
{
    double c0 = nowS();
    spans_[size_t(idx)].end = t;
    // RAII spans close innermost first; tolerate anything else by
    // unwinding to the closed span.
    while (!stack_.empty()) {
        int top = stack_.back();
        stack_.pop_back();
        if (top == idx)
            break;
    }
    overheadS_ += nowS() - c0;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
Tracer::writeChromeTrace(const std::filesystem::path &path) const
{
    std::ofstream os(path);
    double t0 = spans_.empty() ? 0 : spans_.front().start;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); i++) {
        const SpanRecord &s = spans_[i];
        char times[96];
        std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                      (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
        os << (i ? ",\n" : "\n") << "{\"name\":" << jsonQuote(s.name)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"job\":" << jsonQuote(s.job) << "}}";
    }
    os << "\n]}\n";
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

Span::Span(const std::string &name, const std::string &job) : t0_(nowS())
{
    if (tracer().enabled())
        idx_ = tracer().open(name, job, t0_);
}

double
Span::stop()
{
    if (open_) {
        double t1 = nowS();
        elapsed_ = t1 - t0_;
        open_ = false;
        if (idx_ >= 0)
            tracer().close(idx_, t1);
    }
    return elapsed_;
}

// ---- results ------------------------------------------------------------

void
Result::set(const std::string &name, double value, const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Result::fail(const std::string &job, const std::string &why)
{
    attempted_.insert(job);
    failed_.insert(job);
    failures_.push_back(job + ": " + why);
    std::fprintf(stderr, "[bench] FAIL %s: %s\n", job.c_str(), why.c_str());
}

bool
Result::expect(bool ok, const std::string &job, const std::string &why)
{
    if (!ok)
        fail(job, why);
    return ok;
}

uint64_t
Result::statsDigest() const
{
    Fnv1a h;
    for (const auto &[job, fp] : fps_)
        h.str(job).pod(fp);
    return h.value();
}

// ---- statistics ---------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---- inputs -------------------------------------------------------------

std::vector<Prepared>
setUp(Context &ctx, const std::vector<std::string> &names, float scale,
      const std::vector<int> &widths, uint32_t buildThreads)
{
    constexpr int kReps = 5;
    std::vector<double> total, sceneS, bvhS;
    std::vector<Prepared> out;
    for (int rep = 0; rep < kReps; rep++) {
        out.clear();
        double ts = 0, tb = 0;
        for (const std::string &name : names) {
            Scene scene;
            ts += timed("scene.build", ctx.workload + "/" + name,
                        [&] { scene = buildScene(name, scale); });
            for (int width : widths) {
                Prepared p;
                p.name = name;
                p.scene = scene;
                BvhConfig bc;
                bc.width = width;
                bc.buildThreads = buildThreads;
                tb += timed("bvh.build",
                            ctx.workload + "/" + name + "/-/w" +
                                std::to_string(width),
                            [&] { p.bvh = Bvh::build(scene.triangles, bc); });
                out.push_back(std::move(p));
            }
        }
        total.push_back(ts + tb);
        sceneS.push_back(ts);
        bvhS.push_back(tb);
    }
    double mb = 0;
    for (const Prepared &p : out)
        mb += double(p.bvh.totalBytes()) / 1e6;
    ctx.res.set("setup_s", median(total), "s");
    ctx.res.set("scene.build_s", median(sceneS), "s");
    ctx.res.set("bvh.build_s", median(bvhS), "s");
    ctx.res.set("bvh.mb", mb, "MB");
    return out;
}

// ---- jobs ---------------------------------------------------------------

std::vector<size_t>
seededOrder(uint64_t seed, size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++)
        order[i] = i;
    if (seed != 1) {
        Pcg32 rng(seed);
        for (size_t i = n; i > 1; i--)
            std::swap(order[i - 1], order[rng.nextBounded(uint32_t(i))]);
    }
    return order;
}

GpuConfig
jobConfig(const std::string &config, uint32_t res, uint32_t simThreads)
{
    JobSpec spec;
    spec.config = config;
    spec.resolution = res;
    GpuConfig cfg = spec.gpuConfig();
    cfg.simThreads = simThreads;
    return cfg;
}

std::vector<Job>
makeJobs(const Context &ctx, const std::vector<Prepared> &in,
         const std::vector<std::string> &configs, uint32_t res,
         uint32_t simThreads, const std::string &mode)
{
    std::vector<Job> jobs;
    for (const Prepared &p : in) {
        for (const std::string &c : configs) {
            Job j;
            j.in = &p;
            j.config = c;
            j.cfg = jobConfig(c, res, simThreads);
            j.id = ctx.workload + "/" + p.name + "/" + c + "/w" +
                   std::to_string(p.bvh.width()) +
                   (mode.empty() ? "" : "/" + mode);
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

void
runJobs(Context &ctx, std::vector<Job> &jobs, double seconds,
        const SampleConfig *sample)
{
    const char *span = sample ? "gpu.simulate_sampled" : "gpu.simulate";
    std::vector<size_t> order = seededOrder(ctx.seed, jobs.size());
    double t0 = nowS();
    for (size_t i = 0; i < jobs.size() || nowS() - t0 < seconds; i++) {
        Job &j = jobs[order[i % jobs.size()]];
        bool first = i < jobs.size();
        ctx.res.attempt(j.id);
        try {
            RunStats st;
            j.secs.push_back(timed(span, j.id, [&] {
                st = sample ? simulateSampled(j.cfg, j.in->scene, j.in->bvh,
                                              *sample)
                            : simulate(j.cfg, j.in->scene, j.in->bvh);
            }));
            Span fs("gpu.run_stats_io.fingerprint", j.id);
            uint64_t fp = RunStatsIo::fingerprint(st);
            if (first) {
                j.stats = std::move(st);
                j.ok = true;
                ctx.res.fingerprint(j.id, fp);
            } else {
                ctx.res.expect(fp == RunStatsIo::fingerprint(j.stats), j.id,
                               "repeated run changed the RunStats "
                               "fingerprint");
            }
        } catch (const std::exception &e) {
            ctx.res.fail(j.id, e.what());
            if (first)
                j.secs.clear();
        }
    }
}

double
totalSeconds(const std::vector<Job> &jobs)
{
    double s = 0;
    for (const Job &j : jobs)
        s += j.seconds();
    return s;
}

std::vector<const Job *>
ptrs(const std::vector<Job> &jobs)
{
    std::vector<const Job *> v;
    for (const Job &j : jobs)
        v.push_back(&j);
    return v;
}

// ---- metrics ------------------------------------------------------------

void
setThroughput(Context &ctx, double wallS,
              const std::vector<const Job *> &jobs)
{
    uint64_t rays = 0, cycles = 0;
    for (const Job *j : jobs) {
        if (j->ok) {
            rays += j->stats.raysTraced;
            cycles += j->stats.cycles;
        }
    }
    ctx.res.set("wall_s", wallS, "s");
    double w = wallS > 0 ? wallS : 1;
    ctx.res.set("sim_krays_per_s", double(rays) / w / 1e3, "krays/s");
    ctx.res.set("sim_mcycles_per_s", double(cycles) / w / 1e6,
                "Mcycles/s");
}

void
setPeakRss(Context &ctx)
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    ctx.res.set("peak_rss_mb",
                double(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0,
                "MB");
}

void
setSimulateTimes(Context &ctx, const std::vector<Job> &jobs)
{
    std::map<std::string, std::pair<double, uint64_t>> by; // s, cycles
    for (const Job &j : jobs) {
        if (!j.ok)
            continue;
        by[j.config].first += j.seconds();
        by[j.config].second += j.stats.cycles;
    }
    for (const auto &[c, v] : by) {
        ctx.res.set("gpu.simulate_s." + c, v.first, "s");
        ctx.res.set("gpu.ns_per_cycle." + c,
                    v.second ? v.first / double(v.second) * 1e9 : 0,
                    "ns/cycle");
    }
}

namespace
{

double
ratio(uint64_t num, uint64_t den)
{
    return den ? double(num) / double(den) : 0;
}

} // anonymous namespace

void
setModelMetrics(Context &ctx, const std::vector<const Job *> &jobs)
{
    std::map<std::string, RtStats> rt;
    std::map<std::string, MemClassStats> bvh;
    std::map<std::string, uint64_t> dram, rayL2, ctaBytes;
    // (scene, width) -> config -> cycles
    std::map<std::string, std::map<std::string, uint64_t>> cycles;
    for (const Job *j : jobs) {
        if (!j->ok)
            continue;
        const RunStats &s = j->stats;
        rt[j->config].accumulate(s.rt);
        const MemClassStats &b = s.memClass(MemClass::BvhNode);
        MemClassStats &a = bvh[j->config];
        a.l1Accesses += b.l1Accesses;
        a.l1Misses += b.l1Misses;
        a.l2Accesses += b.l2Accesses;
        a.l2Misses += b.l2Misses;
        for (const MemClassStats &m : s.mem)
            dram[j->config] += m.dramReadBytes + m.dramWriteBytes;
        rayL2[j->config] += s.memClass(MemClass::RayData).l2Accesses;
        ctaBytes[j->config] += s.ctaStateBytes;
        cycles[j->in->name + "/w" + std::to_string(j->in->bvh.width())]
              [j->config] = s.cycles;
    }
    for (const auto &[c, r] : rt) {
        ctx.res.set("rt.simt_eff." + c, r.simtEfficiency(), "ratio");
        ctx.res.set("rt.node_visits." + c, double(r.nodeVisits), "count");
        ctx.res.set("mem.bvh.l1_miss_rate." + c,
                    ratio(bvh[c].l1Misses, bvh[c].l1Accesses), "ratio");
        ctx.res.set("mem.bvh.l2_miss_rate." + c,
                    ratio(bvh[c].l2Misses, bvh[c].l2Accesses), "ratio");
        ctx.res.set("mem.dram_mb." + c, double(dram[c]) / 1e6, "MB");
    }
    if (rt.count("vtq")) {
        const RtStats &v = rt["vtq"];
        uint64_t all = 0;
        for (uint64_t m : v.modeCycles)
            all += m;
        ctx.res.set("rt.treelet_warps.vtq", double(v.treeletWarpsFormed),
                    "count");
        ctx.res.set("rt.grouped_warps.vtq", double(v.groupedWarpsFormed),
                    "count");
        ctx.res.set("rt.repack_events.vtq", double(v.repackEvents),
                    "count");
        ctx.res.set("rt.treelet_switches.vtq", double(v.treeletSwitches),
                    "count");
        ctx.res.set("rt.treelet_cycle_share.vtq",
                    ratio(v.modeCycles[modeIndex(
                              TraversalMode::TreeletStationary)],
                          all),
                    "ratio");
        ctx.res.set("mem.ray.l2_accesses.vtq", double(rayL2["vtq"]),
                    "count");
        ctx.res.set("gpu.cta_state_mb.vtq", double(ctaBytes["vtq"]) / 1e6,
                    "MB");
    }
    if (rt.count("prefetch"))
        ctx.res.set("rt.prefetch_use_ratio.prefetch",
                    ratio(rt["prefetch"].prefetchUsedLines,
                          rt["prefetch"].prefetchLines),
                    "ratio");
    if (rt.count("predict"))
        ctx.res.set("rt.predict_hit_ratio.predict",
                    rt["predict"].predictHitRate(), "ratio");
    if (rt.count("reorder"))
        ctx.res.set("rt.reorder_batches.reorder",
                    double(rt["reorder"].reorderBatches), "count");

    for (const char *c : {"vtq", "prefetch", "reorder", "predict"}) {
        std::vector<double> sp;
        for (const auto &[key, byCfg] : cycles) {
            auto f = byCfg.find("fifo"), o = byCfg.find(c);
            if (f != byCfg.end() && o != byCfg.end() && o->second > 0)
                sp.push_back(double(f->second) / double(o->second));
        }
        if (!sp.empty())
            ctx.res.set(std::string(c) + "_speedup", geomean(sp), "x");
    }
}

// ---- checks -------------------------------------------------------------

uint64_t
mismatchPx(const std::vector<Vec3> &a, const std::vector<Vec3> &b)
{
    if (a.size() != b.size())
        return std::max(a.size(), b.size());
    uint64_t n = 0;
    for (size_t i = 0; i < a.size(); i++)
        n += !(a[i].x == b[i].x && a[i].y == b[i].y && a[i].z == b[i].z);
    return n;
}

void
checkFrames(Context &ctx, const std::vector<Prepared> &in,
            const std::vector<const Job *> &jobs)
{
    uint64_t mismatch = 0;
    double refS = 0;
    std::set<std::string> done;
    for (const Prepared &p : in) {
        if (!done.insert(p.name).second)
            continue; // Frames are identical across BVH widths.
        const Job *first = nullptr;
        for (const Job *j : jobs) {
            if (!j->ok || j->in->name != p.name)
                continue;
            if (!first) {
                first = j;
                continue;
            }
            Span s("check.frames", j->id);
            ctx.res.expect(mismatchPx(first->stats.framebuffer,
                                      j->stats.framebuffer) == 0,
                           j->id, "frame differs from " + first->id);
        }
        if (!first)
            continue;
        const GpuConfig &cfg = first->cfg;
        std::vector<Vec3> ref;
        refS += timed("shader.reference", first->id, [&] {
            ref = renderReference(p.scene, p.bvh, cfg.imageWidth,
                                  cfg.imageHeight, cfg.maxBounces,
                                  cfg.contributionCutoff);
        });
        Span s("check.frames", first->id);
        uint64_t px = mismatchPx(ref, first->stats.framebuffer);
        mismatch += px;
        // A few pixels are a known model discrepancy (README, finding
        // 4); more than 0.1 % of the frame is a broken renderer.
        ctx.res.expect(px * 1000 <= ref.size(), first->id,
                       std::to_string(px) +
                           " px differ from renderReference");
    }
    ctx.res.set("ref_mismatch_px", double(mismatch), "px");
    ctx.res.set("shader.reference_s", refS, "s");
}

void
checkRoundTrips(Context &ctx, const std::vector<Prepared> &in,
                const std::vector<const Job *> &jobs)
{
    std::vector<double> storeMs, loadMs;
    double bytes = 0;
    size_t n = 0;
    for (const Job *j : jobs) {
        if (!j->ok)
            continue;
        uint64_t key = Fnv1a().str(j->id).value();
        RunStats back;
        bool loaded = false;
        storeMs.push_back(1e3 * timed("harness.run_cache.store", j->id, [&] {
            storeCachedRun(key, j->in->name, j->stats);
        }));
        loadMs.push_back(1e3 * timed("harness.run_cache.load", j->id, [&] {
            loaded = loadCachedRun(key, j->in->name, back);
        }));
        Span s("gpu.run_stats_io.save", j->id);
        std::ostringstream os(std::ios::binary);
        RunStatsIo::save(os, j->stats);
        bytes += double(os.str().size());
        n++;
        ctx.res.expect(loaded && RunStatsIo::fingerprint(back) ==
                                     RunStatsIo::fingerprint(j->stats),
                       j->id, "RunStats changed through the run cache");
    }
    double ioMs = 0;
    for (const Prepared &p : in) {
        std::string job = ctx.workload + "/" + p.name + "/w" +
                          std::to_string(p.bvh.width());
        std::stringstream a(std::ios::in | std::ios::out | std::ios::binary);
        std::ostringstream b(std::ios::binary);
        Bvh back;
        bool loaded = false;
        ioMs += 1e3 * timed("bvh.io", job, [&] {
            BvhIo::save(a, p.bvh);
            loaded = BvhIo::load(a, back);
        });
        Span s("check.bvh_bytes", job);
        if (loaded)
            BvhIo::save(b, back);
        ctx.res.expect(loaded && a.str() == b.str(), job,
                       "BVH changed through BvhIo");
    }
    ctx.res.set("harness.run_cache.store_ms", median(storeMs), "ms");
    ctx.res.set("harness.run_cache.load_ms", median(loadMs), "ms");
    ctx.res.set("harness.run_stats_kb", n ? bytes / double(n) / 1e3 : 0,
                "KB");
    ctx.res.set("bvh.io_ms", ioMs, "ms");
}

} // namespace trt::bench
