/**
 * @file
 * Table 1: the simulated GPU configuration. Prints the configured
 * values so a reader can diff them against the paper.
 */

#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    GpuConfig cfg = opt.apply(GpuConfig{});

    printBenchHeader("Table 1: Vulkan-Sim configuration", opt);

    Table t({"parameter", "value", "paper"});
    auto row = [&](const std::string &p, const std::string &v,
                   const std::string &paper) {
        t.row().cell(p).cell(v).cell(paper);
    };
    row("# Streaming Multiprocessors", std::to_string(cfg.numSms), "16");
    row("Max Warps per SM", std::to_string(cfg.maxWarpsPerSm), "32");
    row("Warp Size", std::to_string(cfg.warpSize), "32");
    row("Max CTA per SM", std::to_string(cfg.maxCtasPerSm), "16");
    row("# Registers / SM", std::to_string(cfg.regsPerSm), "32768");
    row("L1 Data Cache",
        std::to_string(cfg.mem.l1Bytes / 1024) + "KB fully-assoc LRU, " +
            std::to_string(cfg.mem.l1HitLatency) + " cycles",
        "16KB, fully assoc. LRU, 39 cycles");
    row("L2 Unified Cache",
        std::to_string(cfg.mem.l2Bytes / 1024) + "KB " +
            std::to_string(cfg.mem.l2Ways) + "-way LRU, " +
            std::to_string(cfg.mem.l2HitLatency) + " cycles",
        "128KB, 16-way assoc. LRU, 187 cycles");
    row("# RT Units / SM", std::to_string(cfg.rtUnitsPerSm), "1");
    row("RT Unit Warp Buffer Size", std::to_string(cfg.warpBufferSize),
        "1");
    row("Max virtual rays / SM", std::to_string(cfg.maxVirtualRaysPerSm),
        "4096");
    row("Treelet size cap",
        std::to_string(BvhConfig{}.treeletMaxBytes / 1024) + "KB",
        "half the L1 (8KB)");

    t.print(std::cout);
    writeCsv(opt, t, "table1_config.csv");
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
