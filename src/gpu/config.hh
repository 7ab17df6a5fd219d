/**
 * @file
 * Simulated GPU configuration. Defaults follow the paper's Table 1
 * (Vulkan-Sim configuration) plus the workload parameters of section 5.1
 * and the virtualized-treelet-queue parameters of sections 4 and 5.
 */

#ifndef TRT_GPU_CONFIG_HH
#define TRT_GPU_CONFIG_HH

#include <cstdint>
#include <string>

#include "memsys/memsys.hh"
#include "telemetry/telemetry.hh"

namespace trt
{

/**
 * Dispatch policy: which ray runs next, in which warp, starting at
 * which node (DESIGN.md §9) — the one variation point of the RT unit.
 * The policy object owns the rays the unit holds and the scheduling
 * decisions; the unit keeps the pipeline, timing and memory traffic.
 * Every policy produces bit-identical rendered frames — policies only
 * move *when* rays run and *where* traversal starts, never what a ray
 * finally hits.
 */
enum class DispatchPolicyKind : uint8_t
{
    Fifo,     //!< Arrival order, warps kept intact (the seed baseline).
    Vtq,      //!< The paper's virtualized treelet queues.
    Reorder,  //!< Morton/octant-binned ray reordering (Meister et al.).
    Predict,  //!< Hash-based path prediction (Demoullin/Gubran/Aamodt).
    Prefetch, //!< Fifo + Chou et al. MICRO'23 treelet prefetcher.
};

const char *dispatchPolicyName(DispatchPolicyKind k);

/** Parse a TRT_POLICY value ("baseline"/"fifo", "prefetch", "vtq",
 *  "reorder", "predict"); false on unknown names. */
bool parseDispatchPolicy(const std::string &name, DispatchPolicyKind &out);

/** Full simulation configuration. */
struct GpuConfig
{
    // ------ Table 1 -----------------------------------------------------
    uint32_t numSms = 16;
    uint32_t maxWarpsPerSm = 32;
    uint32_t warpSize = 32;
    uint32_t maxCtasPerSm = 16;
    uint32_t regsPerSm = 32768;
    MemConfig mem;                 //!< L1/L2/DRAM (Table 1 defaults).
    uint32_t rtUnitsPerSm = 1;
    uint32_t warpBufferSize = 1;   //!< RT-unit warp slots.

    // ------ Shader model -------------------------------------------------
    /** Threads per raygen CTA (an 8x8 pixel tile). */
    uint32_t ctaSize = 64;
    /** ALU instructions of the raygen shader before traceRayEXT(). */
    uint32_t raygenAluInstrs = 32;
    /** ALU instructions of shading per bounce after traversal returns. */
    uint32_t shadeAluInstrs = 48;
    /** Registers per thread (ptxas on the LumiBench raygen shader,
     *  paper section 6.6). */
    uint32_t regsPerThread = 10;
    /** SIMT stack entries saved per warp on CTA suspension. */
    uint32_t simtStackDepth = 4;

    // ------ RT unit micro-parameters --------------------------------
    /** BVH addresses the memory scheduler pushes per cycle. */
    uint32_t rtMemIssuePerCycle = 1;
    /** Box-test pipeline latency (one wide node, all children). */
    uint32_t isectBoxLatency = 10;
    /** Triangle-test pipeline latency (one leaf block). */
    uint32_t isectTriLatency = 18;
    /** Node visits entering the intersection pipeline per cycle. */
    uint32_t isectIssuePerCycle = 1;
    /** Extra cycles to dequantize a compressed node's child bounds
     *  before the box tests (charged for any quantized layout; RayFlex
     *  models the same decode stage in the RT-unit datapath). */
    uint32_t nodeDecodeLatency = 4;
    /** Extra box-test cycles for an 8-wide node: the second 4-wide
     *  AABB batch through the same intersection pipeline. */
    uint32_t wideBoxExtraLatency = 5;

    // ------ Workload (section 5.1) -----------------------------------
    uint32_t imageWidth = 256;   //!< As the paper (section 5.1).
    uint32_t imageHeight = 256;
    uint32_t maxBounces = 3;     //!< Secondary bounces at 1 spp.
    float contributionCutoff = 0.02f;

    // ------ VTQ parameters (policy Vtq) --------------------------------
    /** Ray virtualization (section 3.1/4.1). */
    bool rayVirtualization = false;
    /** Fig. 16: make CTA save/restore free to isolate its overhead. */
    bool virtualizationFree = false;
    /** Max concurrent rays per SM under virtualization (section 5). */
    uint32_t maxVirtualRaysPerSm = 4096;
    /** Underpopulation threshold: min rays for a treelet queue to be
     *  dispatched treelet-stationary (sections 4.4, 6.2). */
    uint32_t queueThreshold = 128;
    /** Group underpopulated queues into ray-stationary warps
     *  (section 4.4). Off = the naive treelet implementation. */
    bool groupUnderpopulated = true;
    /** Warp repacking threshold: repack when fewer rays are active
     *  (section 4.5). 0 disables repacking. */
    uint32_t repackThreshold = 22;
    /** Preload the next treelet + ray data (section 4.3). */
    bool preloadEnabled = true;
    /** Unique treelets within a warp before the initial ray-stationary
     *  phase ends for that warp (section 3.2 step 1). 0 terminates the
     *  warp at its first treelet-boundary divergence, which measures
     *  best and matches the paper's short initial phase (Fig. 14). */
    uint32_t initialDivergeThreshold = 0;
    /** Skip the treelet-stationary phase entirely (section 6.4's
     *  "treelet queue threshold of zero" experiment). */
    bool skipTreeletPhase = false;

    // ------ Dispatch policy (DESIGN.md §9) ----------------------------
    /** Strategy object the RT units consult for warp formation and
     *  scheduling decisions. Fifo reproduces the seed baseline timing
     *  exactly; Vtq is the paper's treelet queues and is what
     *  virtualizedTreeletQueues() selects. */
    DispatchPolicyKind policy = DispatchPolicyKind::Fifo;
    /** Reorder policy: bits per axis of the Morton origin grid over the
     *  scene bounds (bin key = 3*bits morton + 3 direction-octant
     *  bits). More bits = finer bins = stronger sorting. */
    uint32_t reorderBinBits = 6;
    /** Predict policy: log2 of the per-RT-unit direct-mapped
     *  prediction-table entries (quantized ray hash -> leaf block). */
    uint32_t predictTableBits = 12;
    /** Predict policy: share one prediction table across all SMs' RT
     *  units (TRT_PREDICT_SHARED; one RT unit per SM in this model, so
     *  per-SM sharing and global sharing coincide). Lookups read the
     *  shared table during the parallel tick phase; training updates
     *  are buffered per SM and applied in SM order at the serial cycle
     *  commit, keeping the fan-out bit-identical at any thread count. */
    bool predictShared = false;

    // ------ Treelet prefetching (policy Prefetch, Chou et al.) --------
    /** Min cycles between prefetch issues (keeps the prefetcher from
     *  thrashing when the popular treelet flips every few cycles). */
    uint32_t prefetchCooldown = 100;
    /** Min rays on a treelet before it is worth prefetching. */
    uint32_t prefetchMinRays = 2;

    // ------ Host execution (wall clock only) --------------------------
    /** Worker threads for SM tick fan-out. 0 = take TRT_SIM_THREADS
     *  from the environment (default 1). Any value yields bit-identical
     *  RunStats — the two-phase memory commit serializes all shared
     *  state — so this is deliberately excluded from fingerprint(). */
    uint32_t simThreads = 0;
    /** Telemetry knobs (TRT_TELEM*, DESIGN.md §12). Pure observability:
     *  sampling and tracing never change RunStats, so — like
     *  simThreads — deliberately excluded from fingerprint(). The
     *  harness bypasses run-cache *loads* when telemetry is on (a hit
     *  would skip the simulation and produce no trace). */
    TelemetryConfig telem;

    /** Convenience: the full proposed configuration. */
    static GpuConfig
    virtualizedTreeletQueues()
    {
        GpuConfig c;
        c.policy = DispatchPolicyKind::Vtq;
        c.rayVirtualization = true;
        c.mem.l2ReservedBytes = 64 * 1024;
        return c;
    }

    /** Convenience: the treelet prefetching comparison point. */
    static GpuConfig
    treeletPrefetch()
    {
        GpuConfig c;
        c.policy = DispatchPolicyKind::Prefetch;
        return c;
    }

    /**
     * Canonical configuration for a dispatch policy: Vtq implies the
     * full proposed architecture (treelet queues + ray virtualization);
     * the other policies need no further settings. This is what
     * TRT_POLICY, JobSpec configs and bench_policy select.
     */
    static GpuConfig forPolicy(DispatchPolicyKind kind);

    /**
     * Hash of every simulation-affecting field (including the embedded
     * MemConfig), hashed field by field so struct padding can't leak
     * into the key. Used by the harness run cache: two configs with
     * equal fingerprints produce identical RunStats for the same scene.
     */
    uint64_t fingerprint() const;
};

} // namespace trt

#endif // TRT_GPU_CONFIG_HH
