/**
 * @file
 * Figure 14: cycle distribution of the three ray traversal modes
 * (initial / treelet stationary / ray stationary) under the full
 * proposed configuration, per scene.
 *
 * Shape to reproduce: the initial phase is short and the ray-stationary
 * phase dominates cycles for every scene.
 */

#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 14: traversal-mode cycle distribution", opt);

    GpuConfig vtq = opt.apply(GpuConfig::virtualizedTreeletQueues());
    std::vector<RunStats> runs = runAllScenes(
        opt, [&](const std::string &) { return vtq; });

    Table t({"scene", "initial_pct", "treelet_stationary_pct",
             "ray_stationary_pct"});
    std::vector<double> pi, pt, pr;
    for (size_t i = 0; i < opt.scenes.size(); i++) {
        const auto &m = runs[i].rt.modeCycles;
        double total = double(m[0] + m[1] + m[2]);
        if (total <= 0)
            total = 1;
        pi.push_back(100.0 * m[0] / total);
        pt.push_back(100.0 * m[1] / total);
        pr.push_back(100.0 * m[2] / total);
        t.row()
            .cell(opt.scenes[i])
            .cell(pi.back(), 1)
            .cell(pt.back(), 1)
            .cell(pr.back(), 1);
    }
    t.row()
        .cell("MEAN")
        .cell(mean(pi), 1)
        .cell(mean(pt), 1)
        .cell(mean(pr), 1);
    t.print(std::cout);
    writeCsv(opt, t, "fig14_mode_cycles.csv");

    std::cout << "\npaper: short initial phase; ray-stationary mode "
                 "dominates cycles in every scene\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
