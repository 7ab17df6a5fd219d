/**
 * @file
 * Sampled-simulation configuration and summary (DESIGN.md §8).
 *
 * A sampled run alternates detailed measured intervals with functional
 * fast-forward legs: measure M detailed cycles, functionally complete a
 * quantum of rays with timing models off, run K detailed warm-up cycles
 * (discarded — they refill caches, treelet queues and prefetch state
 * disturbed by the fast-forward), measure again, and so on. Whole-run
 * RunStats are extrapolated from the measured intervals with per-counter
 * 95% confidence intervals (stats/sampling.hh).
 */

#ifndef TRT_GPU_SAMPLED_HH
#define TRT_GPU_SAMPLED_HH

#include <cstdint>
#include <string>
#include <vector>

namespace trt
{

/**
 * Knobs of a sampled run: the sample* rows of the JobSpec knob table
 * (harness/job.hh), which also names their TRT_SAMPLE_* variables.
 */
struct SampleConfig
{
    /** Master switch (TRT_SAMPLE). runSampled() requires it set. */
    bool enabled = false;

    /** CTAs retired per measured interval (TRT_SAMPLE_MEASURE).
     *  Intervals *close* on retired CTAs — fixed work, not fixed
     *  cycles, so with a constant fast-forward stride the sampling
     *  fraction stays uniform across the whole frame. Fixed-cycle
     *  intervals would cover ~50x more CTAs in the cheap coherent head
     *  than in the divergent tail. Intervals must be long enough to
     *  straddle the post-warm-up transient; 32 CTAs (~2 CTAs/SM) is
     *  the tuned default. */
    uint32_t measureCtas = 32;

    /** Hard cap on the detailed warm-up after each fast-forward leg
     *  (TRT_SAMPLE_WARMUP). The warm-up normally ends on a condition —
     *  the RT-unit ray population rebuilding to its pre-drain level —
     *  and this cap only binds when the backlog cannot rebuild (e.g.
     *  during the occupancy-decay phase). 0 skips warm-up entirely and
     *  measures straight through (small scenes are exact that way). */
    uint64_t warmupCycles = 100000;

    /** Target number of measured intervals (TRT_SAMPLE_INTERVALS).
     *  Each fast-forward leg advances the frame by ~totalCtas/target
     *  finished CTAs. CTAs are fixed-size pixel blocks, so strata are
     *  uniform in work regardless of how the completion *rate* drifts
     *  between the coherent primary burst and the divergent tail —
     *  sizing legs from an observed ray rate instead systematically
     *  overshoots when the rate collapses mid-run. Fewer, longer
     *  intervals beat many short ones here: each leg disturbs the
     *  machine, and the error is dominated by that disturbance, not by
     *  sampling variance. */
    uint32_t targetIntervals = 8;

    /** Fixed fast-forward quantum in rays; overrides the CTA-stratum
     *  sizing when nonzero (TRT_SAMPLE_FF_RAYS). */
    uint64_t ffRays = 0;

    /** Hash of every sampling parameter. Folded into the run-cache
     *  fingerprint (and echoed into snapshots) so sampled and full
     *  runs — or two sampled runs with different parameters — never
     *  collide. */
    uint64_t fingerprint() const;
};

/** What the sampler did, attached to RunStats of a sampled run. */
struct SampleSummary
{
    bool enabled = false;       //!< False for full detailed runs.
    uint32_t intervals = 0;     //!< Measured intervals (incl. partial tail).
    uint64_t measuredCycles = 0; //!< Detailed cycles inside intervals.
    uint64_t measuredRounds = 0; //!< Warp rounds executed inside intervals.
    uint64_t totalRays = 0;     //!< Whole-run rays (architecturally exact).
    uint64_t ffRays = 0;        //!< Rays completed by fast-forward legs.
    double cyclesCi95 = 0.0;    //!< 95% CI half-width of run_.cycles.
    /** 95% CI half-width per extrapolated counter, in
     *  sampleCounterNames() order. */
    std::vector<double> counterCi95;
};

/** Names of the extrapolated counters, in the fixed order the sampler
 *  records deltas (for reports and CI artifacts). */
const std::vector<std::string> &sampleCounterNames();

} // namespace trt

#endif // TRT_GPU_SAMPLED_HH
