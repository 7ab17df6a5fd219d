/**
 * @file
 * Top-level cycle-level GPU model: CTA scheduler, SMs executing the
 * raygen/path-trace shader loop, per-SM RT units, and the shared memory
 * hierarchy. Supports the paper's ray virtualization (section 3.1/4.1):
 * CTAs are suspended after all their threads issue traceRayEXT(), their
 * state is spilled to memory, and the RT unit injects ready-to-resume
 * CTAs back into the CTA scheduler.
 */

#ifndef TRT_GPU_GPU_HH
#define TRT_GPU_GPU_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bvh/bvh.hh"
#include "gpu/config.hh"
#include "gpu/rt_unit.hh"
#include "gpu/sampled.hh"
#include "gpu/shader.hh"
#include "gpu/sim_pool.hh"
#include "memsys/memsys.hh"
#include "scene/scene.hh"
#include "snapshot/snapshot.hh"
#include "stats/sampling.hh"
#include "telemetry/telemetry.hh"

namespace trt
{

/** Everything a simulation run produces. */
struct RunStats
{
    uint64_t cycles = 0;
    std::vector<Vec3> framebuffer;

    RtStats rt; //!< Aggregated over all RT units.
    std::array<MemClassStats, size_t(MemClass::NumClasses)> mem{};

    uint64_t aluLaneInstrs = 0; //!< Lane-instructions executed on cores.
    uint64_t raysTraced = 0;
    uint64_t ctasLaunched = 0;
    uint64_t ctaSaves = 0;
    uint64_t ctaRestores = 0;
    uint64_t ctaStateBytes = 0; //!< Saved + restored bytes.

    /** First-trace hit per pixel; only filled for custom-ray runs
     *  (general tree-traversal workloads, see workloads/rt_query.hh). */
    std::vector<HitRecord> primaryHits;

    /** Sampling metadata; enabled=false (all zeros) for full runs. */
    SampleSummary sampled;

    double simtEfficiency() const { return rt.simtEfficiency(); }

    const MemClassStats &memClass(MemClass c) const
    { return mem[size_t(c)]; }

    /** Whole-run BVH (node + triangle) L1 miss ratio — Fig. 1a. */
    double bvhL1MissRate() const;
};

/**
 * The simulated GPU. Construct with a scene + BVH, then run() exactly
 * once; results (timing stats and the rendered frame) come back in
 * RunStats.
 */
class Gpu
{
  public:
    /**
     * @param cfg Simulation configuration.
     * @param scene Scene to render (must outlive the Gpu).
     * @param bvh Built BVH (must outlive the Gpu).
     * @param primary_rays Optional: replace camera-generated primary
     *        rays with this list (one thread per ray; used to run
     *        general tree-traversal workloads through the RT unit,
     *        the paper's section 8 direction). Must outlive the Gpu.
     */
    Gpu(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
        const std::vector<Ray> *primary_rays = nullptr);
    ~Gpu();

    /** Simulate the full frame. */
    RunStats run();

    /**
     * Sampled simulation (DESIGN.md §8): alternate detailed measured
     * intervals with functional fast-forward legs and extrapolate
     * whole-run RunStats (with confidence intervals in .sampled) from
     * the measured intervals. The frame itself — framebuffer,
     * primaryHits, total rays — is architecturally exact; timing and
     * memory counters are estimates. Like run(), callable exactly
     * once; resumes from a restored snapshot of a sampled run with the
     * same SampleConfig (mismatch throws SnapshotError).
     */
    RunStats runSampled(const SampleConfig &sc);

    MemorySystem &memorySystem() { return mem_; }

    // ---- checkpoint / restore (DESIGN.md §7) ------------------------
    /** Arm the snapshot scheduler; must be called before run(). A
     *  default-constructed policy (the default) disables capture. */
    void setSnapshotPolicy(const SnapshotPolicy &policy);

    /**
     * Serialize the complete mid-run simulator state. Only legal at
     * the serial commit boundary (between run() loop iterations);
     * run() calls this from its snapshot scheduler, tests may call it
     * on a never-run or freshly restored Gpu.
     */
    void saveState(Serializer &s) const;

    /**
     * Restore state captured by saveState into this Gpu, which must
     * have been constructed with the same config/scene/BVH (checked
     * via GpuConfig::fingerprint). After loadState, run() resumes
     * from the captured cycle and produces bit-identical RunStats.
     */
    void loadState(Deserializer &d);

    /** Cycle the restored state was captured at (0 if not restored). */
    uint64_t restoredCycle() const { return restored_ ? lastNow_ : 0; }

    /** The telemetry sink (DESIGN.md §12); null unless cfg.telem is
     *  on. Owned by the Gpu; files are written by finalizeStats. */
    Telemetry *telemetry() { return telem_.get(); }

  private:
    // ---- shader-side structures -------------------------------------
    struct LaneCtx
    {
        PathState path;
        HitRecord hit;
        bool traced = false;
    };

    enum class WarpPhase : uint8_t
    {
        Alu,        //!< Executing an ALU segment on the cores.
        WaitAccept, //!< traceRayEXT() issued, RT unit has not taken it.
        WaitTrace,  //!< Rays in the RT unit.
        TraceDone,  //!< Results arrived while the CTA was suspended.
        Finished,
    };

    struct WarpExec
    {
        uint32_t index = 0; //!< Warp index within the CTA.
        std::vector<LaneCtx> lanes;
        WarpPhase phase = WarpPhase::Alu;
        uint64_t token = 0;
        std::vector<LaneHit> pendingHits;
        uint32_t aliveLanes = 0;
    };

    enum class CtaState : uint8_t
    {
        Pending,   //!< Not yet launched.
        Resident,  //!< Occupying an SM slot.
        Suspended, //!< Ray-virtualized: state spilled, slot released.
        ResumeQueued,
        Finished,
    };

    struct CtaExec
    {
        uint32_t token = 0;
        uint32_t smId = 0;
        CtaState state = CtaState::Pending;
        std::vector<WarpExec> warps;
        uint32_t firstPixel = 0;
        uint32_t threadCount = 0;
    };

    struct SmState
    {
        uint32_t ctasResident = 0;
        uint32_t warpsUsed = 0;
        uint32_t regsUsed = 0;
        uint64_t aluBusyUntil = 0;
        std::deque<std::pair<uint32_t, uint32_t>> acceptQueue; // cta,warp
        std::deque<uint32_t> resumeQueue;                      // cta
        /** The RT unit's raysCompleted when it last refused the head
         *  of acceptQueue; unset while nothing is refused. Derived
         *  retry state: not serialized, cleared on restore. */
        std::optional<uint64_t> refusedAtCompleted;
    };

    struct Event
    {
        uint64_t cycle;
        uint64_t seq;
        enum Type : uint8_t { AluDone, CtaRestored } type;
        uint32_t cta;
        uint32_t warp;

        bool
        operator>(const Event &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };

    // ---- sampled simulation (DESIGN.md §8) ---------------------------
    enum class SamplePhase : uint8_t
    {
        Measure, //!< Detailed, counters feed the current interval.
        Warmup,  //!< Detailed, results discarded (post-ff cache refill).
    };

    /** Mid-run sampler bookkeeping; serialized as the SMPL chunk. */
    struct SamplerState
    {
        bool active = false;
        SamplePhase phase = SamplePhase::Measure;
        bool inInterval = false;
        uint64_t phaseEndCycle = 0;      //!< Absolute end of the phase.
        /** ctasFinished_ at which the current measured interval closes
         *  (fixed-work intervals); 0 when no work bound is active. */
        uint64_t workEndTarget = 0;
        uint64_t intervalStartCycle = 0;
        uint64_t startWork = 0;          //!< ctasFinished_ at interval start.
        uint64_t startRounds = 0;        //!< aluRounds_ at interval start.
        /** Warp shade rounds / detailed cycles of the last closed
         *  interval; the respread rate after the next fast-forward leg
         *  (see respreadEvents()). */
        uint64_t lastIvRounds = 0;
        uint64_t lastIvCycles = 0;
        /** RT-unit ray population the warm-up must rebuild before
         *  measurement may start (7/8 of the pre-drain level); 0 when
         *  no condition-based warm-up is active. */
        uint64_t backlogTarget = 0;
        /** Earliest cycle the warm-up may end (the respread horizon),
         *  regardless of backlog recovery. */
        uint64_t warmupMinCycle = 0;
        /** aluRounds_ at the start of the current interval's stratum;
         *  the next beginMeasure (or end of run) closes the stratum,
         *  the weight of that interval's rate in the stratified
         *  estimator (stats/sampling.hh). Strata split each
         *  inter-interval gap (leg + warm-up rounds) evenly between
         *  the two neighboring intervals: the regime drifts across the
         *  gap, so assigning it wholly to either side biases the
         *  weighting toward that side's rate. */
        uint64_t stratumStartRounds = 0;
        /** aluRounds_ when the last interval closed (the gap between
         *  intervals starts here). */
        uint64_t gapStartRounds = 0;
        std::vector<uint64_t> startCounters;
        uint64_t ffRaysTotal = 0;        //!< Rays completed by ff legs.
        /** SampleConfig::fingerprint() of the run that produced this
         *  state; resume validates the caller's config against it. */
        uint64_t cfgFp = 0;
        SampleAccumulator acc;
    };

    /** Detailed event loop shared by run()/runSampled(): simulate until
     *  the frame finishes (true) or lastNow_ reaches @p stopAtCycle at
     *  the serial commit boundary (false). */
    bool detailedLoop(uint64_t stopAtCycle);
    /** Final RT-unit tick + raw stat aggregation into run_. */
    void finalizeStats();

    /** Switch to functional mode: drain every RT unit (completing all
     *  in-flight rays exactly) and absorb the queued-warp backlog. */
    void enterFunctional();
    /** Functionally retire rays until @p rayQuantum rays complete
     *  (when nonzero), ctasFinished_ reaches @p ctaTarget (when
     *  nonzero), the final wave starts, or the frame finishes (returns
     *  true then). Clock does not advance. */
    bool functionalAdvance(uint64_t rayQuantum, uint32_t ctaTarget);
    /** True when @p cta has reached the target completed-path fraction
     *  of the current leg's staggered progress profile (fully retired
     *  below @p newFinished, linearly less advanced across the
     *  resident window of @p capacity CTAs above it). */
    bool ffReachedTarget(uint32_t cta, uint32_t newFinished,
                         uint32_t capacity) const;
    /** issueTrace() body in functional mode: trace + shade inline. */
    void traceWarpFunctional(uint64_t now, uint32_t cta, uint32_t warp);
    /** Deliver functional results to a warp already counted as traced
     *  (drained accept-queue backlog). */
    void completeWarpFunctional(uint64_t now, uint32_t cta, uint32_t warp);

    void beginMeasure();
    void endMeasure();
    /** Start the discarded warm-up phase. It ends when the RT-unit ray
     *  population has rebuilt to the pre-drain level recorded by
     *  enterFunctional() (but no earlier than @p respreadEnd, the last
     *  respread event), capped at warmupCycles as a hard bound. */
    void beginWarmup(uint64_t respreadEnd);
    /** Rays held across all RT units (queued + parked + stepping). */
    uint64_t rtBacklog() const;
    /** Re-stagger the event heap after a fast-forward leg: a leg
     *  completes with every resident warp's next event booked at the
     *  frozen clock, which would retire them as one synchronized convoy
     *  and make the following interval measure an unrepresentative
     *  refill burst. Spread the events at (2x) the warp-round rate the
     *  previous interval measured, so work re-arrives at steady pace
     *  and the warm-up rebuilds a plausibly staggered machine. Returns
     *  the cycle of the last respread event (the warm-up horizon). */
    uint64_t respreadEvents();
    /** At most one CTA per SM left (serialized endgame): the sampled
     *  driver stops fast-forwarding and measures the tail in detail. */
    bool inFinalWave() const;
    /** ctasFinished_ value at which the current fast-forward leg ends
     *  (one CTA stratum ahead); 0 when a fixed ray quantum is set. */
    uint32_t ffCtaTarget() const;
    /** Live values of every extrapolated counter, in
     *  sampleCounterNames() order. */
    std::vector<uint64_t> sampleCounters() const;
    /** Rays completed across all RT units (the sampler's work unit). */
    uint64_t totalRaysCompleted() const;
    /** Overwrite run_'s counters with the extrapolated whole-run
     *  estimates and fill run_.sampled. */
    void applySampleEstimates();

    // ---- helpers -----------------------------------------------------
    void buildCtas();
    void servicePass(uint64_t now);
    void tryLaunch(uint64_t now);
    void tryResume(uint64_t now);
    void scheduleAlu(uint64_t now, uint32_t cta, uint32_t warp,
                     uint32_t instrs);
    void onAluDone(uint64_t now, uint32_t cta, uint32_t warp);
    void issueTrace(uint64_t now, uint32_t cta, uint32_t warp);
    /** Offer SM @p sm's accept queue to its RT unit, head first, until
     *  the unit refuses (DESIGN.md §9: refusals are event-driven). */
    void retryAccepts(uint64_t now, uint32_t sm);
    void refreshRtEvent(uint32_t sm)
    { rtNextEvent_[sm] = rtUnits_[sm]->nextEventCycle(); }
    void onWarpTraceDone(uint64_t now, uint64_t token,
                         std::vector<LaneHit> &&hits);
    void shadeWarp(uint64_t now, uint32_t cta, uint32_t warp);
    void maybeSuspendCta(uint64_t now, uint32_t cta);
    void maybeResumeReady(uint64_t now, uint32_t cta);
    void finishWarp(uint32_t cta, uint32_t warp);
    void checkCtaFinished(uint64_t now, uint32_t cta);
    uint32_t ctaStateBytesFor(const CtaExec &c) const;
    void pushEvent(uint64_t cycle, Event::Type t, uint32_t cta,
                   uint32_t warp);
    /** Multi-line snapshot of scheduler + per-SM RT-unit state for
     *  deadlock/livelock diagnostics. */
    std::string simStateDump(uint64_t now) const;

    /** Snapshot scheduler, called at the serial commit boundary (end
     *  of each run() loop iteration). Writes a snapshot file when due;
     *  throws SimulationHalted when haltAtCycle fires. */
    void maybeSnapshot(uint64_t now);

    /** Telemetry merge at the serial commit boundary: capture the
     *  GPU-level (memory system) sample when due and drain every SM's
     *  staging channel in SM order (DESIGN.md §12). @p last: the run's
     *  final commit, which always leaves a GPU sample at @p now. */
    void telemCommit(uint64_t now, bool last = false);

    GpuConfig cfg_;
    const Scene &scene_;
    const Bvh &bvh_;
    MemorySystem mem_;
    PathTracer tracer_;
    const std::vector<Ray> *customRays_ = nullptr;

    std::vector<std::unique_ptr<BaselineRtUnit>> rtUnits_;
    /** Shared prediction table (cfg.predictShared): attached to every
     *  unit's PredictPolicy; pending trainings are flushed in SM order
     *  at each serial commit boundary. Null unless enabled. */
    std::unique_ptr<SharedPredict> sharedPredict_;
    /** Cached BaselineRtUnit::nextEventCycle() per unit; refreshed after
     *  every call into the unit so the main loop can poll in O(1). */
    std::vector<uint64_t> rtNextEvent_;
    std::vector<SmState> sms_;
    std::vector<CtaExec> ctas_;
    std::deque<uint32_t> pendingCtas_;
    uint32_t ctasFinished_ = 0;
    /** Last launch scan found no SM with room; stays set (and tryLaunch
     *  returns immediately) until some SM releases resources. */
    bool launchBlocked_ = false;
    /** CTAs sitting in any SM's resume queue; lets tryResume() skip its
     *  per-SM scan on the (common) empty case. */
    uint32_t resumeQueued_ = 0;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    uint64_t eventSeq_ = 0;
    /** warp token -> (cta, warp) for completion routing. */
    std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> tokenMap_;
    uint64_t nextToken_ = 1;

    RunStats run_;
    bool ran_ = false;
    uint64_t lastNow_ = 0;

    // ---- sampled-mode state -----------------------------------------
    /** True while a fast-forward leg runs: issueTrace/scheduleAlu/
     *  tryResume take their zero-latency functional paths. */
    bool functionalMode_ = false;
    /** Rays completed by the current fast-forward leg. */
    uint64_t ffLegTraced_ = 0;
    /** rtBacklog() sampled by enterFunctional() just before the drain;
     *  beginWarmup() turns it into the rebuild target. Transient within
     *  one driver step (never live at a snapshot boundary). */
    uint64_t ffPreDrainBacklog_ = 0;
    /** Scene too small to sample: fewer CTAs than one full sampling
     *  schedule (measureCtas * targetIntervals), so fast-forward gains
     *  nothing and the run stays entirely detailed — one interval
     *  covering the whole frame, exact results with zero CI. Derived
     *  from scene + config in runSampled() (never serialized). */
    bool sampleAllDetailed_ = false;
    /** Pooled traverser for functional tracing. */
    RayTraverser ffTrav_;
    SampleConfig sampleCfg_;
    SamplerState samp_;
    /** Warp shade rounds completed (onAluDone count) — the sampler's
     *  work metric. Accrues in both the detailed path and functional
     *  fast-forward (shared onAluDone), so the end-of-run total is the
     *  exact whole-frame work; interval deltas give the measured
     *  cycles-per-round ratio and pace respreadEvents(). */
    uint64_t aluRounds_ = 0;

    /** Telemetry sink; null (telemetry off) keeps every hook to one
     *  predictable branch. */
    std::unique_ptr<Telemetry> telem_;

    SnapshotPolicy snapPolicy_;
    uint64_t nextSnapshotAt_ = 0;
    /** loadState succeeded: run() continues from lastNow_ instead of
     *  starting a fresh frame. */
    bool restored_ = false;

    // ---- SM-parallel tick machinery ---------------------------------
    /** Worker pool for SM tick fan-out (absent when simThreads <= 1). */
    std::unique_ptr<TickPool> pool_;
    /** SMs due to tick this cycle; rebuilt every loop iteration. */
    std::vector<uint32_t> tickList_;
    /** True while SM ticks run (possibly on worker threads): warp
     *  completions must be buffered, not handled inline, because the
     *  handler touches scheduler state shared across SMs. */
    bool inTickPhase_ = false;
    struct DeferredDone
    {
        uint64_t token;
        std::vector<LaneHit> hits;
    };
    /** Completions buffered during the tick phase, per SM; drained in
     *  SM order after the memory commit — the order the serial SM loop
     *  would have produced. */
    std::vector<std::vector<DeferredDone>> pendingDone_;
};

} // namespace trt

#endif // TRT_GPU_GPU_HH
