/**
 * @file
 * Dispatch-policy x BVH-width ablation (DESIGN.md §9, §11): baseline
 * FIFO vs the popular-treelet prefetcher vs the paper's virtualized
 * treelet queues vs Morton ray reordering vs hash-based path
 * prediction (private and shared table),
 * each at BVH width 4 (64-byte nodes) and width 8 (compressed 80-byte
 * nodes), per figure scene. Reports cycles and speedup over the
 * same-width FIFO, SIMT efficiency, BVH L1/L2 miss rates, the
 * predictor hit rate and the shared-vs-private hit-rate delta — and
 * fails hard if any run renders a different frame than the width-4
 * FIFO baseline, since policies only move *when* rays run and *where*
 * traversal starts, and the compressed layout dequantizes to
 * conservative bounds that accept a superset of node entries without
 * changing any closest hit.
 */

#include <cstring>
#include <iostream>
#include <vector>

#include "harness/harness.hh"

namespace
{

using namespace trt;

/** Combined miss rate of the BVH traffic (nodes + triangle blocks). */
double
bvhMissRate(const RunStats &st, bool l2)
{
    const MemClassStats &n = st.memClass(MemClass::BvhNode);
    const MemClassStats &t = st.memClass(MemClass::Triangle);
    uint64_t acc = l2 ? n.l2Accesses + t.l2Accesses
                      : n.l1Accesses + t.l1Accesses;
    uint64_t miss = l2 ? n.l2Misses + t.l2Misses
                       : n.l1Misses + t.l1Misses;
    return acc ? double(miss) / double(acc) : 0.0;
}

bool
sameFrame(const RunStats &a, const RunStats &b)
{
    return a.framebuffer.size() == b.framebuffer.size() &&
           (a.framebuffer.empty() ||
            std::memcmp(a.framebuffer.data(), b.framebuffer.data(),
                        a.framebuffer.size() * sizeof(Vec3)) == 0);
}

struct Variant
{
    const char *label;
    DispatchPolicyKind kind;
    bool sharedPredict;
};

constexpr Variant kVariants[] = {
    {"fifo", DispatchPolicyKind::Fifo, false},
    {"prefetch", DispatchPolicyKind::Prefetch, false},
    {"vtq", DispatchPolicyKind::Vtq, false},
    {"reorder", DispatchPolicyKind::Reorder, false},
    {"predict", DispatchPolicyKind::Predict, false},
    {"predict_shared", DispatchPolicyKind::Predict, true},
};
constexpr size_t kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);
constexpr size_t kPrivatePredict = 4; //!< kVariants index of "predict".
static_assert(kVariants[kPrivatePredict].kind == DispatchPolicyKind::Predict &&
              !kVariants[kPrivatePredict].sharedPredict);
constexpr int kWidths[] = {4, 8};
constexpr size_t kNumWidths = sizeof(kWidths) / sizeof(kWidths[0]);

} // anonymous namespace

static int
benchMain(int argc, char **argv)
{
    HarnessOptions opt = HarnessOptions::fromArgs(argc, argv);
    printBenchHeader("Dispatch-policy x BVH-width ablation "
                     "(fifo / prefetch / vtq / reorder / "
                     "predict[+shared], "
                     "width 4 / 8)",
                     opt);

    // This bench sweeps the policy and width axes itself, so the
    // TRT_POLICY override must not collapse the variants; the runs go
    // straight through simulate() with an explicit BvhConfig, which
    // also bypasses the (TRT_BVH_WIDTH-keyed) run cache.
    HarnessOptions sweep = opt;
    sweep.job.config.clear();

    // runs[scene][width][variant]
    std::vector<std::vector<std::vector<RunStats>>> runs(
        opt.scenes.size(),
        std::vector<std::vector<RunStats>>(
            kNumWidths, std::vector<RunStats>(kNumVariants)));
    parallelForScenes(opt, [&](size_t i, const std::string &name) {
        for (size_t w = 0; w < kNumWidths; w++) {
            BvhConfig bvhCfg;
            bvhCfg.width = kWidths[w];
            const SceneBundle &b =
                getSceneBundle(name, opt.job.scale, bvhCfg);
            for (size_t v = 0; v < kNumVariants; v++) {
                GpuConfig cfg =
                    sweep.apply(GpuConfig::forPolicy(kVariants[v].kind));
                cfg.predictShared = kVariants[v].sharedPredict;
                cfg.simThreads = opt.effectiveSimThreads();
                runs[i][w][v] = simulate(cfg, b.scene, b.bvh);
            }
        }
    });

    Table t({"scene", "width", "policy", "cycles", "speedup_vs_fifo",
             "simt_eff", "bvh_l1_miss", "bvh_l2_miss", "predict_hit_rate",
             "hit_delta_vs_private", "reorder_batches"});
    bool frames_ok = true;
    std::vector<std::vector<std::vector<double>>> speedups(
        kNumWidths, std::vector<std::vector<double>>(kNumVariants));
    for (size_t i = 0; i < opt.scenes.size(); i++) {
        const RunStats &ref = runs[i][0][0]; // width-4 fifo
        for (size_t w = 0; w < kNumWidths; w++) {
            const RunStats &fifo = runs[i][w][0];
            const RunStats &priv = runs[i][w][kPrivatePredict];
            for (size_t v = 0; v < kNumVariants; v++) {
                const RunStats &st = runs[i][w][v];
                if (!sameFrame(ref, st)) {
                    std::cerr << "FRAME MISMATCH: scene " << opt.scenes[i]
                              << " width " << kWidths[w] << " policy "
                              << kVariants[v].label
                              << " differs from width-4 fifo\n";
                    frames_ok = false;
                }
                double speedup = double(fifo.cycles) / double(st.cycles);
                speedups[w][v].push_back(speedup);
                auto &row = t.row();
                row.cell(opt.scenes[i])
                    .cell(kWidths[w])
                    .cell(kVariants[v].label)
                    .cell(st.cycles)
                    .cell(speedup, 3)
                    .cell(st.simtEfficiency(), 3)
                    .cell(bvhMissRate(st, false), 4)
                    .cell(bvhMissRate(st, true), 4)
                    .cell(st.rt.predictHitRate(), 3);
                if (kVariants[v].sharedPredict)
                    row.cell(st.rt.predictHitRate() -
                                 priv.rt.predictHitRate(),
                             3);
                else
                    row.cell("");
                row.cell(st.rt.reorderBatches);
            }
        }
    }
    for (size_t w = 0; w < kNumWidths; w++) {
        for (size_t v = 0; v < kNumVariants; v++) {
            t.row()
                .cell("GEOMEAN")
                .cell(kWidths[w])
                .cell(kVariants[v].label)
                .cell("")
                .cell(geomean(speedups[w][v]), 3)
                .cell("")
                .cell("")
                .cell("")
                .cell("")
                .cell("")
                .cell("");
        }
    }
    t.print(std::cout);
    writeCsv(opt, t, "policy_compare.csv");

    if (!frames_ok) {
        std::cerr << "\npolicy ablation FAILED: rendered frames differ "
                     "across policies/widths\n";
        return 1;
    }
    std::cout << "\nframes identical across all " << kNumVariants
              << " policies at both widths on every scene\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return trt::runMain(argc, argv, benchMain);
}
