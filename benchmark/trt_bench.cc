/**
 * @file
 * trt_bench: runs one benchmark workload and prints its metrics.
 *
 *   trt_bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
 *             [--smoke]
 *
 * Run from the repository root (benchmark/run.sh does).
 *
 * The metric names, units and workloads come from BENCHMARK.json:
 * trt_bench refuses to report a metric the file does not declare, and
 * reports 0 for a per-layer metric whose layer the workload does not
 * exercise. Output: one "workload metric value unit" line per metric;
 * <workload>.json, a line appended to runs.jsonl and, when tracing,
 * <workload>.trace.json, all under build/benchmark/results/; and as the
 * last stdout line the result object {"correct", "attempted", "failed",
 * "metrics"} holding the end-to-end metrics, or the per-layer ones with
 * --trace 1.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include <malloc.h>
#include <unistd.h>

#include "bench.hh"
#include "farm/json.hh"

using namespace trt;
using namespace trt::bench;

namespace
{

struct MetricDecl
{
    std::string name, unit;
    bool endToEnd;
};

struct Spec
{
    double runSeconds = 0;
    std::vector<std::string> workloads;
    std::vector<MetricDecl> metrics;
};

Spec
loadSpec(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << is.rdbuf();
    JsonValue doc = JsonValue::parse(ss.str(), path);
    Spec spec;
    auto list = [&](const char *key) -> const std::vector<JsonValue> & {
        const JsonValue *v = doc.find(key);
        if (!v || !v->isArray())
            throw std::runtime_error(path + ": missing array " + key);
        return v->items;
    };
    auto field = [&](const JsonValue &o, const char *key) {
        const JsonValue *v = o.find(key);
        if (!v || !v->isString())
            throw std::runtime_error(path + ": entry without " + key);
        return v->text;
    };
    const JsonValue *secs = doc.find("run_seconds");
    if (!secs || !secs->isNumber())
        throw std::runtime_error(path + ": missing run_seconds");
    spec.runSeconds = std::stod(secs->text);
    for (const JsonValue &w : list("workloads"))
        spec.workloads.push_back(field(w, "name"));
    for (const JsonValue &m : list("end_to_end"))
        spec.metrics.push_back({field(m, "name"), field(m, "unit"), true});
    for (const JsonValue &m : list("per_layer"))
        spec.metrics.push_back({field(m, "name"), field(m, "unit"), false});
    return spec;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const Result &res, const Spec &spec, int which)
{
    std::string out = "{";
    bool first = true;
    for (const MetricDecl &d : spec.metrics) {
        if (which >= 0 && d.endToEnd != (which == 0))
            continue;
        const auto &m = res.metrics().at(d.name);
        out += (first ? "" : ", ") + jsonQuote(d.name) + ": {\"value\": " +
               num(m.first) + ", \"unit\": " + jsonQuote(m.second) + "}";
        first = false;
    }
    return out + "}";
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace [0|1]] [--smoke]\n",
                 argv0);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string specPath = "BENCHMARK.json";
    const std::filesystem::path out = "build/benchmark/results";
    std::string workload;
    uint64_t seed = 1;
    // Default: run_seconds; --smoke measures a quarter second, enough to
    // repeat every job once.
    double seconds = -1;
    bool trace = false, smoke = false;
    try {
        for (int i = 1; i < argc; i++) {
            std::string a = argv[i];
            bool more = i + 1 < argc;
            if (a == "--workload" && more)
                workload = argv[++i];
            else if (a == "--seed" && more)
                seed = std::stoull(argv[++i]);
            else if (a == "--seconds" && more)
                seconds = std::stod(argv[++i]);
            else if (a == "--trace") {
                // A bare --trace means on; an explicit 0/1 may follow.
                trace = true;
                if (more && (std::string(argv[i + 1]) == "0" ||
                             std::string(argv[i + 1]) == "1"))
                    trace = std::string(argv[++i]) == "1";
            } else if (a == "--smoke")
                smoke = true;
            else
                return usage(argv[0]);
        }
    } catch (const std::exception &) {
        return usage(argv[0]);
    }

    Spec spec;
    try {
        spec = loadSpec(specPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trt_bench: %s\n", e.what());
        return 2;
    }
    if (seconds < 0)
        seconds = smoke ? 0.25 : spec.runSeconds;
    const std::map<std::string, std::function<void(Context &)>> run = {
        {"fig10_detailed", fig10Detailed},
        {"sampled_hires", sampledHires},
        {"large_mt", largeMt},
        {"farm_sweep", farmSweep},
    };
    if (!run.count(workload) ||
        std::find(spec.workloads.begin(), spec.workloads.end(),
                  workload) == spec.workloads.end())
        return usage(argv[0]);

    Context ctx;
    ctx.workload = workload;
    ctx.seed = seed;
    ctx.seconds = seconds;
    ctx.smoke = smoke;
    // One malloc arena: with one per thread, peak_rss_mb of large_mt
    // (two BVH build threads) jumped between about 160 and 183 MB from
    // run to run; with one it stays near 150 MB.
    mallopt(M_ARENA_MAX, 1);
    ctx.tmp = out.parent_path() / "tmp" /
              (workload + "." + std::to_string(::getpid()));
    std::filesystem::remove_all(ctx.tmp);
    std::filesystem::create_directories(ctx.tmp);
    std::filesystem::create_directories(out);
    // Every on-disk cache the layers use lives in the scratch dir and
    // starts empty.
    setenv("TRT_CACHE", (ctx.tmp / "cache").string().c_str(), 1);
    setenv("TRT_SNAPSHOT_DIR", (ctx.tmp / "snapshots").string().c_str(), 1);
    if (trace)
        tracer().enable();

    double wall = 0;
    try {
        Span root("workload", workload);
        run.at(workload)(ctx);
        wall = root.stop();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trt_bench: %s: %s\n", workload.c_str(),
                     e.what());
        std::filesystem::remove_all(ctx.tmp);
        return 1;
    }
    std::filesystem::remove_all(ctx.tmp);

    Result &res = ctx.res;
    res.set("fail_rate",
            res.attempted() ? double(res.failed()) / double(res.attempted())
                            : 1.0,
            "ratio");
    res.set("bench.trace_overhead_pct",
            wall > 0 ? tracer().overheadS() / wall * 100 : 0, "%");

    // Reconcile with BENCHMARK.json: an undeclared metric, a unit that
    // differs or a missing end-to-end metric is a bug in trt_bench.
    std::map<std::string, const MetricDecl *> decl;
    for (const MetricDecl &d : spec.metrics)
        decl[d.name] = &d;
    bool bad = false;
    for (const auto &[name, m] : res.metrics()) {
        auto it = decl.find(name);
        if (it == decl.end() || it->second->unit != m.second) {
            std::fprintf(stderr, "trt_bench: metric %s [%s] is not "
                                 "declared in %s\n",
                         name.c_str(), m.second.c_str(), specPath.c_str());
            bad = true;
        }
    }
    for (const MetricDecl &d : spec.metrics) {
        if (res.metrics().count(d.name))
            continue;
        if (d.endToEnd) {
            std::fprintf(stderr, "trt_bench: end-to-end metric %s was "
                                 "not measured\n", d.name.c_str());
            bad = true;
        }
        res.set(d.name, 0, d.unit);
    }
    for (const auto &[name, m] : res.metrics()) {
        if (!std::isfinite(m.first)) {
            std::fprintf(stderr, "trt_bench: metric %s is not finite\n",
                         name.c_str());
            bad = true;
        }
    }
    if (bad)
        return 2;

    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  (unsigned long long)res.statsDigest());
    for (const MetricDecl &d : spec.metrics) {
        const auto &m = res.metrics().at(d.name);
        std::printf("%s %s %.6g %s\n", workload.c_str(), d.name.c_str(),
                    m.first, m.second.c_str());
    }
    std::printf("%s stats_digest %s hex\n", workload.c_str(), digest);

    bool correct = res.failed() == 0;
    std::string failures = "[";
    for (size_t i = 0; i < res.failures().size(); i++)
        failures += (i ? ", " : "") + jsonQuote(res.failures()[i]);
    failures += "]";
    std::string record =
        "{\"workload\": " + jsonQuote(workload) + ", \"seed\": " +
        std::to_string(seed) + ", \"seconds\": " + num(seconds) +
        ", \"trace\": " + (trace ? "1" : "0") + ", \"smoke\": " +
        (smoke ? "true" : "false") + ", \"correct\": " +
        (correct ? "true" : "false") + ", \"attempted\": " +
        std::to_string(res.attempted()) + ", \"failed\": " +
        std::to_string(res.failed()) + ", \"stats_digest\": \"" + digest +
        "\", \"failures\": " + failures + ", \"metrics\": " +
        metricsJson(res, spec, -1) + "}";
    std::ofstream(out / (workload + ".json")) << record << "\n";
    std::ofstream(out / "runs.jsonl", std::ios::app) << record << "\n";
    if (trace)
        tracer().writeChromeTrace(out / (workload + ".trace.json"));

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", res.attempted(), res.failed(),
                metricsJson(res, spec, trace ? 1 : 0).c_str());
    // The harness arms an at-exit summary line on stdout; skipping
    // at-exit handlers keeps the result object the last line.
    std::fflush(nullptr);
    std::_Exit(0);
}
