/**
 * @file
 * Figure 1: performance bottlenecks of the baseline RT unit.
 *  (a) L1 miss rate of BVH accesses issued from the RT unit, per scene.
 *  (b) SIMT efficiency of the baseline RT unit, per scene.
 * Scenes print in ascending measured BVH size, as the paper plots them.
 * Shape to reproduce: high miss rates loosely rising with BVH size and
 * uniformly low SIMT efficiency (paper: avg 58% miss, ~0.37 SIMT).
 */

#include <algorithm>
#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 1: baseline RT unit bottlenecks", opt);

    GpuConfig cfg = opt.apply(GpuConfig{});
    std::vector<RunStats> runs = runAllScenes(
        opt, [&](const std::string &) { return cfg; });

    // Sort rows by measured BVH size (the paper's x-axis order).
    std::vector<size_t> order(opt.scenes.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return opt.bundle(opt.scenes[a]).bvhStats.totalBytes <
               opt.bundle(opt.scenes[b]).bvhStats.totalBytes;
    });

    Table t({"scene", "bvh_mb", "l1_bvh_miss_rate", "simt_efficiency"});
    std::vector<double> miss, simt;
    for (size_t i : order) {
        const auto &b = opt.bundle(opt.scenes[i]);
        const RunStats &rs = runs[i];
        miss.push_back(rs.bvhL1MissRate());
        simt.push_back(rs.simtEfficiency());
        t.row()
            .cell(opt.scenes[i])
            .cell(double(b.bvhStats.totalBytes) / 1048576.0, 2)
            .cell(rs.bvhL1MissRate(), 3)
            .cell(rs.simtEfficiency(), 3);
    }
    t.row().cell("MEAN").cell("").cell(mean(miss), 3).cell(mean(simt), 3);

    t.print(std::cout);
    writeCsv(opt, t, "fig01_baseline.csv");

    std::cout << "\npaper: avg miss 0.58 (up to 0.70); avg SIMT ~0.37\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
