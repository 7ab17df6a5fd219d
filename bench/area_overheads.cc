/**
 * @file
 * Section 6.5: area overheads of the treelet-queue structures, derived
 * from measured high-water marks of a full VTQ run.
 *
 *  - Treelet Count Table: 19-bit treelet address + 12-bit ray count per
 *    entry; the paper provisions 600 entries (2.2KB) and observes at
 *    most 549 queues (13 above the threshold at once).
 *  - Ray data: 32B per ray, 4096 rays -> 128KB in the reserved L2.
 *  - Treelet Queue Table: (19 + 32x12 bits) x 128 entries = 6.29KB.
 */

#include <algorithm>
#include <iostream>

#include "harness/harness.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Section 6.5: area overheads", opt);

    GpuConfig vtq = opt.apply(GpuConfig::virtualizedTreeletQueues());
    std::vector<RunStats> runs = runAllScenes(
        opt, [&](const std::string &) { return vtq; });

    Table t({"scene", "count_table_hw", "over_threshold_hw",
             "queue_table_entries_hw", "max_concurrent_rays"});
    uint32_t max_ct = 0, max_over = 0, max_qt = 0;
    uint64_t max_rays = 0;
    for (size_t i = 0; i < opt.scenes.size(); i++) {
        const RtStats &r = runs[i].rt;
        max_ct = std::max(max_ct, r.countTableHighWater);
        max_over = std::max(max_over, r.countTableOverThresholdHW);
        max_qt = std::max(max_qt, r.queueTableEntriesHW);
        max_rays = std::max(max_rays, r.maxConcurrentRays);
        t.row()
            .cell(opt.scenes[i])
            .cell(uint64_t(r.countTableHighWater))
            .cell(uint64_t(r.countTableOverThresholdHW))
            .cell(uint64_t(r.queueTableEntriesHW))
            .cell(r.maxConcurrentRays);
    }
    t.print(std::cout);
    writeCsv(opt, t, "area_overheads.csv");

    // Derived structure sizes with the paper's bit widths.
    double count_table_kb = double(max_ct) * (19 + 12) / 8.0 / 1024.0;
    double queue_table_kb =
        double(max_qt) * (19 + 32.0 * 12.0) / 8.0 / 1024.0;
    double ray_data_kb = double(vtq.maxVirtualRaysPerSm) * 32.0 / 1024.0;

    std::cout << "\nmax count-table entries observed: " << max_ct << " ("
              << formatDouble(count_table_kb, 2)
              << "KB at 31 bits/entry; paper provisions 600 = 2.2KB, "
                 "observes <= 549)\n"
              << "max entries above threshold at once: " << max_over
              << " (paper: <= 13)\n"
              << "max queue-table entries observed: " << max_qt << " ("
              << formatDouble(queue_table_kb, 2)
              << "KB; paper provisions 128 = 6.29KB)\n"
              << "ray data: " << vtq.maxVirtualRaysPerSm << " rays x 32B = "
              << formatDouble(ray_data_kb, 0) << "KB (paper: 128KB)\n"
              << "max concurrent rays observed: " << max_rays << "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
