/**
 * @file
 * Figure 16: ray virtualization performance overhead — the full
 * proposed configuration with real CTA save/restore costs, normalized
 * to the same configuration with free (zero-cost) save/restore.
 *
 * Shape to reproduce: virtualization costs ~10% performance on average
 * (the CTA state traffic and restore latency).
 */

#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 16: ray virtualization overhead", opt);

    GpuConfig real = opt.apply(GpuConfig::virtualizedTreeletQueues());
    GpuConfig free_virt = real;
    free_virt.virtualizationFree = true;

    Table t({"scene", "free_cycles", "real_cycles", "overhead_pct",
             "cta_saves", "state_mb_moved"});
    std::vector<double> ovh;
    std::vector<RunStats> rr(opt.scenes.size()), rf(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        rf[i] = runScene(name, free_virt, opt);
        rr[i] = runScene(name, real, opt);
    });

    for (size_t i = 0; i < opt.scenes.size(); i++) {
        double o = 100.0 * (double(rr[i].cycles) / double(rf[i].cycles) -
                            1.0);
        ovh.push_back(o);
        t.row()
            .cell(opt.scenes[i])
            .cell(rf[i].cycles)
            .cell(rr[i].cycles)
            .cell(o, 2)
            .cell(rr[i].ctaSaves)
            .cell(double(rr[i].ctaStateBytes) / 1048576.0, 2);
    }
    t.row().cell("MEAN").cell("").cell("").cell(mean(ovh), 2).cell("")
        .cell("");
    t.print(std::cout);
    writeCsv(opt, t, "fig16_virt_overhead.csv");

    std::cout << "\npaper: ray virtualization costs ~10% on average\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
