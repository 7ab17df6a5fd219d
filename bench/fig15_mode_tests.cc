/**
 * @file
 * Figure 15: share of ray intersection tests processed under each
 * traversal mode under the full proposed configuration, per scene.
 *
 * Shape to reproduce: treelet-stationary mode processes up to ~52% of
 * the intersection tests with an average around 15%; the rest is ray
 * stationary (plus the initial phase).
 */

#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 15: intersection tests per traversal mode",
                     opt);

    GpuConfig vtq = opt.apply(GpuConfig::virtualizedTreeletQueues());
    std::vector<RunStats> runs = runAllScenes(
        opt, [&](const std::string &) { return vtq; });

    Table t({"scene", "initial_pct", "treelet_stationary_pct",
             "ray_stationary_pct"});
    std::vector<double> pt;
    for (size_t i = 0; i < opt.scenes.size(); i++) {
        const auto &m = runs[i].rt.isectTests;
        double total = double(m[0] + m[1] + m[2]);
        if (total <= 0)
            total = 1;
        pt.push_back(100.0 * m[1] / total);
        t.row()
            .cell(opt.scenes[i])
            .cell(100.0 * m[0] / total, 1)
            .cell(100.0 * m[1] / total, 1)
            .cell(100.0 * m[2] / total, 1);
    }
    t.row().cell("MEAN treelet share").cell("").cell(mean(pt), 1).cell("");
    t.print(std::cout);
    writeCsv(opt, t, "fig15_mode_tests.csv");

    std::cout << "\npaper: treelet-stationary handles up to 52% of tests, "
                 "~15% on average\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
