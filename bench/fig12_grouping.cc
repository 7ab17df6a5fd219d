/**
 * @file
 * Figure 12: speedup of grouping underpopulated treelet queues into
 * ray-stationary warps, versus the naive treelet-queue implementation,
 * at several queue thresholds. All variants are normalized to the
 * baseline GPU and run without warp repacking (repacking is evaluated
 * separately in Figure 13).
 *
 * Shape to reproduce: naive treelet queues are far below baseline
 * (paper: grouping is ~8x faster than naive at threshold 128) and
 * grouping alone lands near (paper: ~5% below) the baseline.
 */

#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    // The naive variant deliberately runs the pathological regime
    // (whole-treelet fetches for 1-ray queues) and is several times
    // slower than everything else in the repository; clamp this
    // bench's frame size. All rows are normalized to a baseline run at
    // the same resolution, so the comparison is self-consistent.
    opt.job.resolution = std::min(opt.job.resolution, 128u);
    printBenchHeader("Figure 12: grouping underpopulated treelet queues",
                     opt);

    GpuConfig base = opt.apply(GpuConfig{});

    auto vtq_no_repack = [&]() {
        GpuConfig c = opt.apply(GpuConfig::virtualizedTreeletQueues());
        c.repackThreshold = 0;
        return c;
    };

    GpuConfig naive = vtq_no_repack();
    naive.groupUnderpopulated = false;

    const std::vector<uint32_t> thresholds = {32, 64, 128};
    std::vector<std::vector<double>> rows(opt.scenes.size());

    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        uint64_t cb = runScene(name, base, opt).cycles;
        uint64_t cn = runScene(name, naive, opt).cycles;
        rows[i].push_back(double(cb) / double(cn));
        for (uint32_t q : thresholds) {
            GpuConfig g = vtq_no_repack();
            g.queueThreshold = q;
            uint64_t cg = runScene(name, g, opt).cycles;
            rows[i].push_back(double(cb) / double(cg));
        }
    });

    Table t({"scene", "naive", "group_q32", "group_q64", "group_q128"});
    std::vector<std::vector<double>> cols(thresholds.size() + 1);
    for (size_t i = 0; i < opt.scenes.size(); i++) {
        t.row().cell(opt.scenes[i]);
        for (size_t c = 0; c < rows[i].size(); c++) {
            t.cell(rows[i][c], 3);
            cols[c].push_back(rows[i][c]);
        }
    }
    t.row().cell("GEOMEAN");
    for (auto &c : cols)
        t.cell(geomean(c), 3);
    t.print(std::cout);
    writeCsv(opt, t, "fig12_grouping.csv");

    std::cout << "\npaper: grouping(128) ~8x over naive, but ~5% below "
                 "baseline without repacking\n"
              << "measured: grouping(128)/naive = "
              << formatDouble(geomean(cols[3]) / geomean(cols[0]), 2)
              << "x\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
