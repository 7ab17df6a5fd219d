/**
 * @file
 * Figure 17: energy of virtualized treelet queues relative to the
 * baseline GPU, with the ray-virtualization share broken out.
 *
 * Shape to reproduce: treelet queues cut total energy substantially
 * (paper: ~60% savings, mostly from the reduced cycles), and ray
 * virtualization accounts for ~11% of the design's total energy.
 */

#include <iostream>

#include "energy/energy.hh"
#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 17: energy", opt);

    GpuConfig base = opt.apply(GpuConfig{});
    GpuConfig vtq = opt.apply(GpuConfig::virtualizedTreeletQueues());

    Table t({"scene", "baseline_mj", "vtq_mj", "vtq_rel",
             "virt_share_pct"});
    std::vector<double> rel, virt;
    std::vector<EnergyReport> eb(opt.scenes.size()), ev(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        GpuConfig b = base, v = vtq;
        RunStats rb = runScene(name, b, opt);
        RunStats rv = runScene(name, v, opt);
        eb[i] = computeEnergy(rb, b.numSms);
        ev[i] = computeEnergy(rv, v.numSms);
    });

    for (size_t i = 0; i < opt.scenes.size(); i++) {
        double r = ev[i].total() / eb[i].total();
        rel.push_back(r);
        virt.push_back(100.0 * ev[i].virtualizationShare());
        t.row()
            .cell(opt.scenes[i])
            .cell(eb[i].total() / 1e6, 3)
            .cell(ev[i].total() / 1e6, 3)
            .cell(r, 3)
            .cell(virt.back(), 2);
    }
    t.row()
        .cell("MEAN")
        .cell("")
        .cell("")
        .cell(mean(rel), 3)
        .cell(mean(virt), 2);
    t.print(std::cout);
    writeCsv(opt, t, "fig17_energy.csv");

    std::cout << "\npaper: VTQ at ~40% of baseline energy; "
                 "virtualization ~11% of VTQ total\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
