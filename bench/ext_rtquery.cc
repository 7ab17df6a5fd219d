/**
 * @file
 * Extension experiment (paper section 8): virtualized treelet queues
 * on general tree-traversal workloads. Sweeps the three point
 * distributions of the RTNN-style fixed-radius nearest-neighbor
 * workload and reports baseline / prefetch / VTQ cycles.
 *
 * Expectation (the paper's conjecture): query rays are maximally
 * incoherent, so the treelet-queue mechanisms should transfer — VTQ
 * beats the baseline on tree-traversal queries as it does on path
 * tracing.
 */

#include <iostream>

#include "harness/harness.hh"
#include "workloads/rt_query.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Extension: RT-unit tree-traversal queries (sec 8)",
                     opt);

    struct Case
    {
        const char *name;
        PointDistribution dist;
    };
    const Case cases[] = {
        {"uniform", PointDistribution::Uniform},
        {"clustered", PointDistribution::Clustered},
        {"shell", PointDistribution::Shell},
    };

    // Scale the workload with the harness resolution so TRT_FAST works
    // (quarter of the frame's ray count keeps the sweep to minutes).
    RtQueryConfig qc;
    qc.numQueries = (opt.job.resolution / 2) * (opt.job.resolution / 2);
    qc.numPoints = uint32_t(100000.0f * opt.job.scale);

    Table t({"distribution", "points", "queries", "bvh_mb",
             "baseline_cycles", "prefetch_speedup", "vtq_speedup",
             "base_simt", "vtq_simt"});

    for (const Case &c : cases) {
        RtQueryConfig cfg = qc;
        cfg.distribution = c.dist;
        RtQueryWorkload wl = buildRtQueryWorkload(cfg);
        Bvh bvh = Bvh::build(wl.scene.triangles);

        GpuConfig base;
        RunStats rb = simulateRays(base, wl.scene, bvh, wl.queries);
        RunStats rp = simulateRays(GpuConfig::treeletPrefetch(), wl.scene,
                                   bvh, wl.queries);
        RunStats rv = simulateRays(GpuConfig::virtualizedTreeletQueues(),
                                   wl.scene, bvh, wl.queries);

        t.row()
            .cell(c.name)
            .cell(uint64_t(wl.points.size()))
            .cell(uint64_t(wl.queries.size()))
            .cell(double(bvh.totalBytes()) / 1048576.0, 2)
            .cell(rb.cycles)
            .cell(double(rb.cycles) / double(rp.cycles), 3)
            .cell(double(rb.cycles) / double(rv.cycles), 3)
            .cell(rb.simtEfficiency(), 3)
            .cell(rv.simtEfficiency(), 3);
    }
    t.print(std::cout);
    writeCsv(opt, t, "ext_rtquery.csv");

    std::cout << "\npaper sec 8: conjectures treelet queues transfer to "
                 "RT-accelerated tree queries (RTNN/RT-DBSCAN/RTIndeX)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
