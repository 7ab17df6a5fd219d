/**
 * @file
 * Figure 13: warp repacking.
 *  (a) Speedup over the baseline GPU at different repack thresholds
 *      (none / 8 / 16 / 22), all with grouping enabled.
 *  (b) SIMT efficiency of the same variants next to the baseline.
 *
 * Shape to reproduce: without repacking treelet queues sit slightly
 * below baseline; speedup grows with the repack threshold (paper: 1.84x
 * at 16, 1.95x at 22) and SIMT efficiency roughly doubles (paper:
 * baseline 0.37, no-repack 0.33, repack-22 0.82).
 */

#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 13: warp repacking", opt);

    GpuConfig base = opt.apply(GpuConfig{});
    const std::vector<uint32_t> thresholds = {0, 8, 16, 22};

    struct Row
    {
        std::vector<double> speedup;
        std::vector<double> simt;
        double baseSimt = 0.0;
    };
    std::vector<Row> rows(opt.scenes.size());

    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        RunStats rb = runScene(name, base, opt);
        rows[i].baseSimt = rb.simtEfficiency();
        for (uint32_t th : thresholds) {
            GpuConfig c = opt.apply(GpuConfig::virtualizedTreeletQueues());
            c.repackThreshold = th;
            RunStats r = runScene(name, c, opt);
            rows[i].speedup.push_back(double(rb.cycles) /
                                      double(r.cycles));
            rows[i].simt.push_back(r.simtEfficiency());
        }
    });

    Table t({"scene", "speedup_none", "speedup_r8", "speedup_r16",
             "speedup_r22", "simt_base", "simt_none", "simt_r8",
             "simt_r16", "simt_r22"});
    std::vector<std::vector<double>> sp(4);
    std::vector<double> sb;
    std::vector<std::vector<double>> si(4);
    for (size_t i = 0; i < opt.scenes.size(); i++) {
        t.row().cell(opt.scenes[i]);
        for (size_t k = 0; k < 4; k++) {
            t.cell(rows[i].speedup[k], 3);
            sp[k].push_back(rows[i].speedup[k]);
        }
        t.cell(rows[i].baseSimt, 3);
        sb.push_back(rows[i].baseSimt);
        for (size_t k = 0; k < 4; k++) {
            t.cell(rows[i].simt[k], 3);
            si[k].push_back(rows[i].simt[k]);
        }
    }
    t.row().cell("MEAN");
    for (size_t k = 0; k < 4; k++)
        t.cell(geomean(sp[k]), 3);
    t.cell(mean(sb), 3);
    for (size_t k = 0; k < 4; k++)
        t.cell(mean(si[k]), 3);
    t.print(std::cout);
    writeCsv(opt, t, "fig13_repacking.csv");

    std::cout << "\npaper: speedups none<1, r16=1.84, r22=1.95; SIMT "
                 "base 0.37, none 0.33, r22 0.82\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
