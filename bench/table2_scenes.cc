/**
 * @file
 * Table 2: summary of evaluation scenes — BVH size and triangle count
 * of every stand-in scene next to the LumiBench values the paper
 * reports. The shape to verify: ascending BVH size in the same order.
 */

#include <iostream>

#include "harness/harness.hh"

int
main(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Table 2: evaluation scenes", opt);

    Table t({"scene", "tris", "bvh_mb", "treelets", "nodes",
             "paper_tris", "paper_bvh_mb", "description"});

    std::vector<const SceneBundle *> bundles(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        bundles[i] = &opt.bundle(name);
    });

    for (size_t i = 0; i < opt.scenes.size(); i++) {
        const SceneBundle &b = *bundles[i];
        const SceneSpec &spec = sceneSpec(b.name);
        t.row()
            .cell(b.name)
            .cell(uint64_t(b.scene.triangles.size()))
            .cell(double(b.bvhStats.totalBytes) / (1024.0 * 1024.0), 2)
            .cell(uint64_t(b.bvhStats.treeletCount))
            .cell(uint64_t(b.bvhStats.nodeCount))
            .cell(uint64_t(spec.paperTriCount))
            .cell(spec.paperBvhMb, 2)
            .cell(spec.description);
    }
    t.print(std::cout);
    writeCsv(opt, t, "table2_scenes.csv");
    return 0;
}
