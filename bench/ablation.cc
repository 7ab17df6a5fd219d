/**
 * @file
 * Ablation study of the design choices DESIGN.md section 5 calls out,
 * on a representative scene subset. Each row disables/varies exactly
 * one mechanism of the full virtualized-treelet-queue configuration so
 * its individual contribution is visible.
 *
 * Rows:
 *   full            the complete proposed configuration
 *   no_preload      no treelet / ray-data preloading (section 4.3)
 *   no_repack       no warp repacking (section 4.5)
 *   no_group        no grouping of underpopulated queues (section 4.4)
 *   no_virt         no ray virtualization (section 3.1)
 *   diverge_4       lax initial-phase divergence threshold
 *   skip_treelet    no treelet-stationary phase at all (section 6.4)
 *   small_treelet   2KB treelets (quarter of half-L1)
 *   queue_32        low underpopulation threshold
 *
 * A second table (ablation_width.csv) sweeps the BVH node layout
 * (DESIGN.md §11) — width-4 64B, width-4 32B quantized, width-8 80B
 * compressed — under both the baseline and VTQ architectures, and
 * reports the cache behavior the compression is meant to move: BVH
 * L1/L2 miss rates, mean nodes per treelet, and treelet switches.
 */

#include <iostream>
#include <optional>

#include "harness/harness.hh"

namespace
{

/** Combined miss rate of the BVH traffic (nodes + triangle blocks). */
double
bvhMissRate(const trt::RunStats &st, bool l2)
{
    using trt::MemClass;
    const trt::MemClassStats &n = st.memClass(MemClass::BvhNode);
    const trt::MemClassStats &t = st.memClass(MemClass::Triangle);
    uint64_t acc = l2 ? n.l2Accesses + t.l2Accesses
                      : n.l1Accesses + t.l1Accesses;
    uint64_t miss = l2 ? n.l2Misses + t.l2Misses
                       : n.l1Misses + t.l1Misses;
    return acc ? double(miss) / double(acc) : 0.0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace trt;
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    // Default to a representative subset; TRT_SCENES overrides. The
    // no_group / skip_treelet rows run deliberately pathological
    // regimes, so clamp the frame size (rows are normalized against a
    // baseline at the same resolution).
    if (!std::getenv("TRT_SCENES"))
        opt.scenes = {"BUNNY", "CRNVL", "FRST"};
    opt.job.resolution = std::min(opt.job.resolution, 128u);
    printBenchHeader("Ablation: VTQ design choices", opt);

    struct Variant
    {
        std::string name;
        GpuConfig cfg;
        /** Rebuild the BVH with these parameters (unset = shared
         *  default build). */
        std::optional<BvhConfig> bvhCfg;
    };

    auto vtq = [&]() {
        return opt.apply(GpuConfig::virtualizedTreeletQueues());
    };

    std::vector<Variant> variants;
    variants.push_back({"full", vtq(), std::nullopt});
    {
        Variant v{"no_preload", vtq(), std::nullopt};
        v.cfg.preloadEnabled = false;
        variants.push_back(v);
    }
    {
        Variant v{"no_repack", vtq(), std::nullopt};
        v.cfg.repackThreshold = 0;
        variants.push_back(v);
    }
    {
        Variant v{"no_group", vtq(), std::nullopt};
        v.cfg.groupUnderpopulated = false;
        variants.push_back(v);
    }
    {
        Variant v{"no_virt", vtq(), std::nullopt};
        v.cfg.rayVirtualization = false;
        variants.push_back(v);
    }
    {
        Variant v{"diverge_4", vtq(), std::nullopt};
        v.cfg.initialDivergeThreshold = 4;
        variants.push_back(v);
    }
    {
        Variant v{"skip_treelet", vtq(), std::nullopt};
        v.cfg.skipTreeletPhase = true;
        variants.push_back(v);
    }
    {
        Variant v{"small_treelet", vtq(), std::nullopt};
        BvhConfig bc;
        bc.treeletMaxBytes = 2048;
        v.bvhCfg = bc;
        variants.push_back(v);
    }
    {
        Variant v{"queue_32", vtq(), std::nullopt};
        v.cfg.queueThreshold = 32;
        variants.push_back(v);
    }
    {
        // Section 7.3: compressed wide BVH (Ylitie et al.) composed
        // with treelet queues — 32B quantized nodes, twice the nodes
        // per treelet and per cache line.
        Variant v{"compressed_vtq", vtq(), std::nullopt};
        BvhConfig bc;
        bc.quantizedNodes = true;
        v.bvhCfg = bc;
        variants.push_back(v);
    }
    {
        Variant v{"compressed_base", opt.apply(GpuConfig{}), std::nullopt};
        BvhConfig bc;
        bc.quantizedNodes = true;
        v.bvhCfg = bc;
        variants.push_back(v);
    }

    std::vector<std::string> headers = {"variant"};
    for (const auto &s : opt.scenes)
        headers.push_back(s);
    headers.push_back("geomean");
    Table t(headers);

    // Baseline cycles per scene (and rebuilt-BVH variants on demand).
    std::vector<uint64_t> base_cycles(opt.scenes.size());
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        base_cycles[i] = runScene(name, opt.apply(GpuConfig{}), opt)
                             .cycles;
    });

    for (const auto &v : variants) {
        std::vector<double> speedups(opt.scenes.size());
        parallelForScenes(opt, [&](size_t i, const std::string &name) {
            uint64_t cycles;
            if (!v.bvhCfg) {
                cycles = runScene(name, v.cfg, opt).cycles;
            } else {
                const SceneBundle &b = opt.bundle(name);
                Bvh alt = Bvh::build(b.scene.triangles, *v.bvhCfg);
                cycles = simulate(v.cfg, b.scene, alt).cycles;
            }
            speedups[i] = double(base_cycles[i]) / double(cycles);
        });
        t.row().cell(v.name);
        for (double s : speedups)
            t.cell(s, 3);
        t.cell(geomean(speedups), 3);
    }

    t.print(std::cout);
    writeCsv(opt, t, "ablation.csv");

    // ---- BVH width / node-layout ablation (DESIGN.md §11) -----------
    // Three layouts x two architectures. width4_32B shrinks nodes
    // without changing arity (more nodes per treelet); width8_80B
    // additionally halves the node count (fewer, fatter nodes at
    // 10B/child vs 16B/child), so nodes-per-treelet is not the right
    // lens for it — the miss rates and switch counts are.
    struct WidthVariant
    {
        const char *name;
        BvhConfig bvhCfg;
    };
    std::vector<WidthVariant> layouts;
    layouts.push_back({"width4_64B", BvhConfig{}});
    {
        BvhConfig bc;
        bc.quantizedNodes = true;
        layouts.push_back({"width4_32B", bc});
    }
    {
        BvhConfig bc;
        bc.width = 8;
        layouts.push_back({"width8_80B", bc});
    }

    Table wt({"scene", "layout", "arch", "cycles", "bvh_l1_miss",
              "bvh_l2_miss", "nodes_per_treelet", "treelet_switches"});
    for (const auto &lv : layouts) {
        for (int use_vtq = 0; use_vtq <= 1; use_vtq++) {
            std::vector<RunStats> res(opt.scenes.size());
            std::vector<double> tnodes(opt.scenes.size());
            parallelForScenes(opt, [&](size_t i,
                                       const std::string &name) {
                const SceneBundle &b =
                    getSceneBundle(name, opt.job.scale, lv.bvhCfg);
                GpuConfig cfg = use_vtq ? vtq()
                                        : opt.apply(GpuConfig{});
                cfg.simThreads = opt.effectiveSimThreads();
                res[i] = simulate(cfg, b.scene, b.bvh);
                tnodes[i] = b.bvhStats.avgTreeletNodes;
            });
            for (size_t i = 0; i < opt.scenes.size(); i++) {
                wt.row()
                    .cell(opt.scenes[i])
                    .cell(lv.name)
                    .cell(use_vtq ? "vtq" : "base")
                    .cell(res[i].cycles)
                    .cell(bvhMissRate(res[i], false), 4)
                    .cell(bvhMissRate(res[i], true), 4)
                    .cell(tnodes[i], 1)
                    .cell(res[i].rt.boundaryCrossings);
            }
        }
    }
    std::cout << "\n";
    wt.print(std::cout);
    writeCsv(opt, wt, "ablation_width.csv");
    return 0;
}
