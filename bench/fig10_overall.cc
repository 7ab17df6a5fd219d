/**
 * @file
 * Figure 10: overall speedup of Virtualized Treelet Queues (4096
 * concurrent rays) and Treelet Prefetching [Chou et al.] over the
 * baseline GPU, per scene, sorted by ascending BVH size.
 *
 * Shape to reproduce: VTQ beats prefetching everywhere; VTQ average
 * ~1.95x (paper), up to ~2.55x; prefetching ~1.3x; SPNZA and CHSNT are
 * the low-gain scenes.
 */

#include <algorithm>
#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader(
        "Figure 10: overall speedup (VTQ vs treelet prefetching)", opt);

    GpuConfig base = opt.apply(GpuConfig{});
    GpuConfig pref = opt.apply(GpuConfig::treeletPrefetch());
    GpuConfig vtq = opt.apply(GpuConfig::virtualizedTreeletQueues());

    std::vector<uint64_t> cb(opt.scenes.size()), cp(opt.scenes.size()),
        cv(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        cb[i] = runScene(name, base, opt).cycles;
        cp[i] = runScene(name, pref, opt).cycles;
        cv[i] = runScene(name, vtq, opt).cycles;
    });

    std::vector<size_t> order(opt.scenes.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return opt.bundle(opt.scenes[a]).bvhStats.totalBytes <
               opt.bundle(opt.scenes[b]).bvhStats.totalBytes;
    });

    Table t({"scene", "baseline_cycles", "prefetch_speedup",
             "vtq_speedup"});
    std::vector<double> sp, sv;
    for (size_t i : order) {
        double s_pref = double(cb[i]) / double(cp[i]);
        double s_vtq = double(cb[i]) / double(cv[i]);
        sp.push_back(s_pref);
        sv.push_back(s_vtq);
        t.row()
            .cell(opt.scenes[i])
            .cell(cb[i])
            .cell(s_pref, 3)
            .cell(s_vtq, 3);
    }
    t.row()
        .cell("GEOMEAN")
        .cell("")
        .cell(geomean(sp), 3)
        .cell(geomean(sv), 3);
    t.print(std::cout);
    writeCsv(opt, t, "fig10_overall.csv");

    std::cout << "\npaper: VTQ avg 1.95x (max 2.55x), prefetching ~1.36x; "
                 "VTQ/prefetch = 1.43x\n"
              << "measured: VTQ/prefetch = "
              << formatDouble(geomean(sv) / geomean(sp), 3) << "x\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
