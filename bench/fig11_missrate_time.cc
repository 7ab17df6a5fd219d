/**
 * @file
 * Figure 11: L1 cache miss rate of BVH accesses over time for the LANDS
 * scene — the baseline GPU (ray stationary) versus an RT unit operating
 * permanently in treelet-stationary mode (naive treelet queues, no
 * grouping).
 *
 * Shape to reproduce: treelet-stationary starts far below the baseline
 * (the paper dips to ~9%) while queues are full, then rises past the
 * baseline (~75-80%) once queues become underpopulated; the baseline
 * plateaus around its steady miss rate.
 */

#include <iostream>

#include "harness/harness.hh"
#include "telemetry/telemetry.hh"

namespace
{

/** Telemetry sampling period of the curves, in simulated cycles. */
constexpr uint64_t everyCycles = 2048;
/** Rows of the printed curve. */
constexpr size_t buckets = 64;

} // anonymous namespace

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    // This figure is a single-scene time series.
    std::string scene = opt.scenes.size() == 1 ? opt.scenes[0] : "LANDS";
    printBenchHeader("Figure 11: L1 BVH miss rate over time (" + scene +
                         ")",
                     opt);

    GpuConfig base = opt.apply(GpuConfig{});

    // "Permanently treelet stationary": every ray goes through the
    // queues and every queue is dispatched as a treelet warp no matter
    // how small (grouping and repacking off).
    GpuConfig tstat = opt.apply(GpuConfig::virtualizedTreeletQueues());
    tstat.groupUnderpopulated = false;
    tstat.repackThreshold = 0;

    // The curves are the gpu-wide BVH L1 samples of each run's
    // telemetry, at this figure's own sampling period.
    HarnessOptions topt = opt;
    topt.telem.enabled = true;
    topt.telem.everyCycles = everyCycles;
    topt.telem.outDir = opt.resultsDir + "/fig11_telemetry";
    auto curve = [&](const GpuConfig &cfg, const std::string &name) {
        topt.telem.outBase = scene + "_" + name;
        runScene(scene, cfg, topt);
        return bvhL1MissSeries(
            Telemetry::readBinary(topt.telem.outDir + "/" +
                                  topt.telem.outBase + ".tsbin")
                .gpuSamples(),
            buckets);
    };
    std::vector<double> sb = curve(base, "baseline");
    std::vector<double> st = curve(tstat, "treelet_stationary");
    size_t n = std::min(sb.size(), st.size());

    Table t({"time_pct", "baseline_miss", "treelet_stationary_miss"});
    for (size_t i = 0; i < n; i++) {
        t.row()
            .cell(double(i) * 100.0 / double(n), 1)
            .cell(sb[i], 3)
            .cell(st[i], 3);
    }
    t.print(std::cout);
    writeCsv(opt, t, "fig11_missrate_time.csv");

    // Crossover summary.
    double early_t = 0, late_t = 0, early_b = 0, late_b = 0;
    size_t half = std::max<size_t>(1, n / 2);
    for (size_t i = 0; i < n; i++) {
        (i < half ? early_t : late_t) += st[i];
        (i < half ? early_b : late_b) += sb[i];
    }
    std::cout << "\nfirst-half mean: baseline "
              << formatDouble(early_b / half, 3) << " vs treelet "
              << formatDouble(early_t / half, 3)
              << "\nsecond-half mean: baseline "
              << formatDouble(late_b / double(n - half), 3)
              << " vs treelet "
              << formatDouble(late_t / double(n - half), 3)
              << "\npaper: treelet mode dips to ~0.09 early, rises to "
                 "~0.75-0.80 late; baseline plateaus ~0.60\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
