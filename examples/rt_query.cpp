/**
 * @file
 * General tree-traversal on the RT unit (the paper's section 8
 * future-work direction): a fixed-radius nearest-neighbor workload in
 * the style of RTNN / RT-DBSCAN, lowered to splat geometry + query
 * rays, validated against brute force, and timed on the baseline GPU
 * versus virtualized treelet queues.
 *
 * Usage: rt_query [points] [queries] [uniform|clustered|shell]
 */

#include <iostream>
#include <string>

#include "core/arch.hh"
#include "workloads/rt_query.hh"

int
main(int argc, char **argv)
{
    using namespace trt;

    RtQueryConfig cfg;
    cfg.numPoints = argc > 1 ? uint32_t(atoi(argv[1])) : 50000;
    cfg.numQueries = argc > 2 ? uint32_t(atoi(argv[2])) : 16384;
    if (argc > 3) {
        std::string d = argv[3];
        cfg.distribution = d == "uniform" ? PointDistribution::Uniform
                           : d == "shell" ? PointDistribution::Shell
                                          : PointDistribution::Clustered;
    }

    RtQueryWorkload wl = buildRtQueryWorkload(cfg);
    Bvh bvh = Bvh::build(wl.scene.triangles);
    std::cout << "point cloud: " << wl.points.size() << " points -> "
              << wl.scene.triangles.size() << " splat triangles, BVH "
              << bvh.totalBytes() / 1048576.0 << " MB in "
              << bvh.treeletCount() << " treelets\n";

    // Functional answers + spot validation against brute force.
    auto answers = answerQueries(wl, bvh);
    uint32_t hits = 0, checked = 0, mismatches = 0;
    for (size_t i = 0; i < answers.size(); i++) {
        hits += answers[i].nearest != ~0u ? 1 : 0;
        if (i % 97 == 0) {
            QueryResult bf = bruteForceNearest(
                wl.points, wl.queries[i].orig, wl.queryRadius);
            checked++;
            if (bf.nearest != answers[i].nearest)
                mismatches++;
        }
    }
    std::cout << "queries with a neighbor in range: " << hits << "/"
              << answers.size() << "; brute-force spot check: "
              << (checked - mismatches) << "/" << checked << " agree\n";

    // Timing: baseline vs virtualized treelet queues on the query rays.
    GpuConfig base;
    RunStats rb = simulateRays(base, wl.scene, bvh, wl.queries);
    GpuConfig vtq = GpuConfig::virtualizedTreeletQueues();
    RunStats rv = simulateRays(vtq, wl.scene, bvh, wl.queries);

    std::cout << "baseline GPU:   " << rb.cycles << " cycles, SIMT "
              << rb.simtEfficiency() << ", BVH L1 miss "
              << rb.bvhL1MissRate() << "\n"
              << "treelet queues: " << rv.cycles << " cycles, SIMT "
              << rv.simtEfficiency() << ", BVH L1 miss "
              << rv.bvhL1MissRate() << "\n"
              << "query throughput speedup: "
              << double(rb.cycles) / double(rv.cycles) << "x\n";
    return mismatches == 0 ? 0 : 1;
}
