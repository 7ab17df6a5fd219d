/**
 * @file
 * Quickstart: build a scene, build its BVH, simulate the baseline GPU
 * and the virtualized-treelet-queue GPU, and compare. This is the
 * ten-line introduction to the library's public API.
 */

#include <iostream>

#include "core/arch.hh"
#include "scene/registry.hh"

int
main(int argc, char **argv)
{
    using namespace trt;

    // 1. Build a benchmark scene (a LumiBench stand-in) and its BVH.
    //    The scale factor trades fidelity for speed.
    std::string name = argc > 1 ? argv[1] : "BUNNY";
    float scale = argc > 2 ? float(atof(argv[2])) : 0.25f;
    Scene scene = buildScene(name, scale);
    Bvh bvh = Bvh::build(scene.triangles);

    std::cout << "scene " << name << ": " << scene.triangles.size()
              << " triangles, BVH "
              << bvh.totalBytes() / 1024 / 1024.0 << " MB in "
              << bvh.treeletCount() << " treelets\n";

    // 2. Simulate the baseline ray-tracing GPU (paper Table 1 config,
    //    smaller frame so the example finishes in seconds).
    GpuConfig base;
    base.imageWidth = base.imageHeight = 128;
    RunStats rb = simulate(base, scene, bvh);
    std::cout << "baseline:       " << rb.cycles << " cycles, SIMT "
              << rb.simtEfficiency() << ", BVH L1 miss "
              << rb.bvhL1MissRate() << "\n";

    // 3. Simulate the paper's Virtualized Treelet Queues.
    GpuConfig vtq = GpuConfig::virtualizedTreeletQueues();
    vtq.imageWidth = vtq.imageHeight = 128;
    RunStats rv = simulate(vtq, scene, bvh);
    std::cout << "treelet queues: " << rv.cycles << " cycles, SIMT "
              << rv.simtEfficiency() << ", BVH L1 miss "
              << rv.bvhL1MissRate() << "\n";

    std::cout << "speedup: " << double(rb.cycles) / double(rv.cycles)
              << "x\n";

    // 4. Both runs rendered the identical image (the timing models are
    //    functionally exact); prove it.
    bool same = rb.framebuffer == rv.framebuffer;
    std::cout << "identical rendered frames: " << (same ? "yes" : "NO")
              << "\n";
    return same ? 0 : 1;
}
