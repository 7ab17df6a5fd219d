/**
 * @file
 * Figure 5: potential speedup of treelets with increasing concurrent
 * rays, from the standalone analytical model of section 2.4 (no cache
 * modeling; batch reuse only). Shape to reproduce: speedup rises
 * monotonically with concurrent rays, reaching ~3-4x for most scenes,
 * with the smallest-BVH scenes highest.
 */

#include <iostream>

#include "analytic/analytic.hh"
#include "harness/harness.hh"

int
main(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Figure 5: analytical treelet speedup", opt);

    const std::vector<uint32_t> batches = {32,   64,   128,  256, 512,
                                           1024, 2048, 4096, 8192};
    // The analytical model runs on recorded traces; cap rays per scene
    // to keep the recording affordable.
    const uint32_t kMaxRays = 60000;

    std::vector<std::string> headers = {"scene"};
    for (uint32_t b : batches)
        headers.push_back(std::to_string(b));
    Table t(headers);

    std::vector<std::vector<double>> rows(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        const SceneBundle &sb = opt.bundle(name);
        auto traces =
            recordTraces(sb.scene, sb.bvh, opt.job.resolution,
                         opt.job.resolution, GpuConfig{}.maxBounces,
                         GpuConfig{}.contributionCutoff, kMaxRays);
        // Price each treelet fetch at its actual node count.
        std::vector<uint32_t> tl_nodes(sb.bvh.treeletCount());
        for (uint32_t t = 0; t < sb.bvh.treeletCount(); t++)
            tl_nodes[t] = sb.bvh.treeletNodeCount(t);
        AnalyticModel model(std::move(traces), std::move(tl_nodes));
        for (uint32_t b : batches)
            rows[i].push_back(model.speedup(b));
    });

    for (size_t i = 0; i < opt.scenes.size(); i++) {
        t.row().cell(opt.scenes[i]);
        for (double v : rows[i])
            t.cell(v, 2);
    }
    t.print(std::cout);
    writeCsv(opt, t, "fig05_analytical.csv");

    std::cout << "\npaper: monotone rise to ~3-4x by thousands of "
                 "concurrent rays; small-BVH scenes highest\n";
    return 0;
}
