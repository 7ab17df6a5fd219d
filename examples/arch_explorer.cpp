/**
 * @file
 * Architecture explorer: sweep one configuration parameter of the
 * virtualized-treelet-queue GPU and print cycles / SIMT efficiency /
 * miss rate for each value — the tool you reach for when asking "what
 * if the queue threshold were 64?" or "how much does the ray cap
 * matter?".
 *
 * Usage: arch_explorer [scene] [param] [v1 v2 ...]
 *   param in {queue, repack, diverge, rays, l1kb, warpbuf}
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/harness.hh"

int
main(int argc, char **argv)
{
    using namespace trt;
    std::string scene = argc > 1 ? argv[1] : "CRNVL";
    std::string param = argc > 2 ? argv[2] : "queue";
    std::vector<uint32_t> values;
    for (int i = 3; i < argc; i++)
        values.push_back(uint32_t(atoi(argv[i])));
    if (values.empty()) {
        if (param == "queue")
            values = {16, 32, 64, 128, 256};
        else if (param == "repack")
            values = {0, 8, 16, 22, 28};
        else if (param == "diverge")
            values = {0, 1, 2, 4, 8};
        else if (param == "rays")
            values = {64, 256, 1024, 4096};
        else if (param == "l1kb")
            values = {8, 16, 32, 64};
        else if (param == "warpbuf")
            values = {1, 2, 4};
        else {
            std::cerr << "unknown param " << param << "\n";
            return 1;
        }
    }

    HarnessOptions opt = HarnessOptions::fromEnv();
    opt.scenes = {scene};

    GpuConfig base = opt.apply(GpuConfig{});
    uint64_t cb = runScene(scene, base, opt).cycles;
    std::cout << "scene " << scene << ", baseline " << cb
              << " cycles; sweeping '" << param << "'\n\n";

    Table t({param, "cycles", "speedup_vs_baseline", "simt", "bvh_miss"});
    for (uint32_t v : values) {
        GpuConfig c = opt.apply(GpuConfig::virtualizedTreeletQueues());
        if (param == "queue")
            c.queueThreshold = v;
        else if (param == "repack")
            c.repackThreshold = v;
        else if (param == "diverge")
            c.initialDivergeThreshold = v;
        else if (param == "rays")
            c.maxVirtualRaysPerSm = v;
        else if (param == "l1kb") {
            c.mem.l1Bytes = uint64_t(v) * 1024;
        } else if (param == "warpbuf")
            c.warpBufferSize = v;

        RunStats r = runScene(scene, c, opt);
        t.row()
            .cell(uint64_t(v))
            .cell(r.cycles)
            .cell(double(cb) / double(r.cycles), 3)
            .cell(r.simtEfficiency(), 3)
            .cell(r.bvhL1MissRate(), 3);
    }
    t.print(std::cout);
    return 0;
}
