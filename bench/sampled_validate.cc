/**
 * @file
 * Sampled-simulation validation harness (DESIGN.md §8): runs every
 * scene through all three architectures twice — once with the full
 * detailed simulator (ground truth) and once with the sampled
 * simulator — and reports per-run cycle error, counter errors and
 * wall-clock speedup side by side.
 *
 * Doubles as the CI accuracy gate: exits non-zero if any run's
 * |cycle error| exceeds TRT_SAMPLE_GATE_PCT percent (default 5). At
 * the smoke scale CI uses, scenes are small enough that the sampler
 * takes its all-detailed bypass and the gate checks exactness; at
 * full scale this prints the honest error table instead.
 */

#include <chrono>
#include <cmath>
#include <iostream>

#include "core/arch.hh"
#include "harness/harness.hh"
#include "util/env.hh"

namespace
{

double
pctErr(double sampled, double full)
{
    if (full == 0.0)
        return sampled == 0.0 ? 0.0 : 100.0;
    return (sampled - full) / full * 100.0;
}

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Sampled simulation validation (full vs sampled)",
                     opt);

    double gate = envDouble("TRT_SAMPLE_GATE_PCT", 5.0);

    SampleConfig sc = opt.job.sample;
    sc.enabled = true; // This bench always compares against sampling.

    struct ArchDesc
    {
        const char *name;
        GpuConfig cfg;
    };
    const std::vector<ArchDesc> arches = {
        {"base", opt.apply(GpuConfig{})},
        {"pref", opt.apply(GpuConfig::treeletPrefetch())},
        {"vtq", opt.apply(GpuConfig::virtualizedTreeletQueues())},
    };

    Table t({"scene", "arch", "full_cycles", "sampled_cycles", "err_pct",
             "ci95_pct", "visits_err_pct", "dram_err_pct", "intervals",
             "speedup"});

    double worstErr = 0.0;
    std::string worstRun = "none";

    // Scenes run serially: both legs of a pair must be timed on an
    // otherwise idle machine for the speedup column to mean anything.
    for (const std::string &name : opt.scenes) {
        const SceneBundle &b = opt.bundle(name);
        for (const ArchDesc &a : arches) {
            RunStats full, samp;
            double fullS = wallSeconds(
                [&] { full = simulate(a.cfg, b.scene, b.bvh); });
            double sampS = wallSeconds(
                [&] { samp = simulateSampled(a.cfg, b.scene, b.bvh, sc); });

            double err = pctErr(double(samp.cycles), double(full.cycles));
            double ci = full.cycles
                            ? samp.sampled.cyclesCi95 /
                                  double(full.cycles) * 100.0
                            : 0.0;
            double visitsErr = pctErr(double(samp.rt.nodeVisits),
                                      double(full.rt.nodeVisits));
            double dramErr =
                pctErr(double(samp.memClass(MemClass::BvhNode).dramAccesses),
                       double(full.memClass(MemClass::BvhNode).dramAccesses));

            t.row()
                .cell(name)
                .cell(a.name)
                .cell(full.cycles)
                .cell(samp.cycles)
                .cell(err, 2)
                .cell(ci, 2)
                .cell(visitsErr, 2)
                .cell(dramErr, 2)
                .cell(uint64_t(samp.sampled.intervals))
                .cell(sampS > 0.0 ? fullS / sampS : 0.0, 2);

            if (std::abs(err) > std::abs(worstErr)) {
                worstErr = err;
                worstRun = name + "/" + a.name;
            }
        }
    }

    t.print(std::cout);
    writeCsv(opt, t, "sampled_validate.csv");

    std::cout << "\nworst |cycle error|: " << formatDouble(worstErr, 2)
              << "% (" << worstRun << "), gate ±"
              << formatDouble(gate, 1) << "%\n";
    if (std::abs(worstErr) > gate) {
        std::cerr << "sampled_validate: FAIL: " << worstRun
                  << " cycle error " << formatDouble(worstErr, 2)
                  << "% exceeds gate " << formatDouble(gate, 1) << "%\n";
        return 1;
    }
    std::cout << "sampled_validate: PASS\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
