/**
 * @file
 * Sampled-simulation driver (DESIGN.md §8): Gpu::runSampled and the
 * functional fast-forward executor, plus the SampleConfig fingerprint
 * and the fixed extrapolated-counter enumeration.
 */

#include "gpu/gpu.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "geom/hash.hh"
#include "gpu/dispatch_policy.hh"
#include "telemetry/counter_registry.hh"
#include "telemetry/telemetry.hh"
#include "util/env.hh"

namespace trt
{

// ---- SampleConfig ----------------------------------------------------

uint64_t
SampleConfig::fingerprint() const
{
    Fnv1a h;
    h.pod(uint32_t(0x534d504c)); // "SMPL" schema tag
    h.pod(enabled);
    h.pod(measureCtas);
    h.pod(warmupCycles);
    h.pod(targetIntervals);
    h.pod(ffRays);
    return h.value();
}

// ---- extrapolated-counter enumeration --------------------------------

namespace
{

/**
 * The sampler extrapolates exactly the counter registry's Work-kind
 * counters, in registry order (telemetry/counter_registry.hh): those
 * are (a) monotonic during a run and (b) proportional to work, so the
 * ratio estimator applies. Exact quantities (framebuffer, raysTraced,
 * aluLaneInstrs, ctasLaunched) and high-water marks carry their own
 * registry kinds and are filtered out here: the former need no
 * estimation, the latter do not scale linearly with work.
 */
template <typename RS, typename Fn>
void
forEachSampleCounter(RS &r, Fn &&fn)
{
    forEachRunCounter(r, [&](const CounterInfo &ci, auto &v) {
        if (ci.kind != CounterKind::Work)
            return;
        // Work counters are uint64 by registry convention; the
        // constexpr guard keeps the uint32 high-water references (never
        // reached at runtime) out of this instantiation.
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     uint64_t>)
            fn(ci.name, v);
    });
}

} // anonymous namespace

const std::vector<std::string> &
sampleCounterNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        RunStats dummy;
        forEachSampleCounter(dummy,
                             [&](const std::string &name, uint64_t &) {
                                 v.push_back(name);
                             });
        return v;
    }();
    return names;
}

// ---- live counter snapshots ------------------------------------------

uint64_t
Gpu::rtBacklog() const
{
    uint64_t held = 0;
    for (const auto &u : rtUnits_)
        held += u->raysHeld();
    return held;
}

uint64_t
Gpu::totalRaysCompleted() const
{
    uint64_t total = 0;
    for (const auto &u : rtUnits_)
        total += u->stats().raysCompleted;
    return total;
}

std::vector<uint64_t>
Gpu::sampleCounters() const
{
    // Mirror finalizeStats' aggregation into a scratch RunStats so the
    // enumeration sees the same values a finished run would.
    RunStats tmp;
    for (const auto &u : rtUnits_)
        tmp.rt.accumulate(u->stats());
    for (size_t c = 0; c < tmp.mem.size(); c++)
        tmp.mem[c] = mem_.classStats(MemClass(c));
    tmp.ctaSaves = run_.ctaSaves;
    tmp.ctaRestores = run_.ctaRestores;
    tmp.ctaStateBytes = run_.ctaStateBytes;

    std::vector<uint64_t> v;
    v.reserve(sampleCounterNames().size());
    forEachSampleCounter(tmp, [&](const std::string &, uint64_t &x) {
        v.push_back(x);
    });
    return v;
}

// ---- functional fast-forward executor --------------------------------

void
Gpu::traceWarpFunctional(uint64_t now, uint32_t cta, uint32_t warp)
{
    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];
    w.pendingHits.clear();
    for (uint32_t l = 0; l < w.lanes.size(); l++) {
        LaneCtx &lane = w.lanes[l];
        lane.traced = lane.path.alive;
        if (!lane.traced)
            continue;
        run_.raysTraced++;
        // The pooled traverser produces hits bit-identical to every
        // RT-unit timing model (they all drive the same RayTraverser).
        ffTrav_.reset(&bvh_, lane.path.ray);
        finishTraversal(ffTrav_);
        w.pendingHits.push_back({uint8_t(l), ffTrav_.hit()});
        ffLegTraced_++;
        samp_.ffRaysTotal++;
    }
    shadeWarp(now, cta, warp);
}

void
Gpu::completeWarpFunctional(uint64_t now, uint32_t cta, uint32_t warp)
{
    // Accept-queue backlog absorbed at fast-forward entry: the warp
    // already counted its rays in issueTrace(), so only compute the
    // hits and deliver them through the normal completion protocol.
    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];
    w.pendingHits.clear();
    for (uint32_t l = 0; l < w.lanes.size(); l++) {
        LaneCtx &lane = w.lanes[l];
        if (!lane.traced)
            continue;
        ffTrav_.reset(&bvh_, lane.path.ray);
        finishTraversal(ffTrav_);
        w.pendingHits.push_back({uint8_t(l), ffTrav_.hit()});
    }
    if (c.state == CtaState::Resident) {
        shadeWarp(now, cta, warp);
    } else {
        w.phase = WarpPhase::TraceDone;
        maybeResumeReady(now, cta);
    }
}

void
Gpu::enterFunctional()
{
    functionalMode_ = true;
    ffLegTraced_ = 0;
    if (telem_)
        telem_->gpuChannel().event(lastNow_, TelemEventKind::PhaseBegin,
                                   uint64_t(TelemPhase::FastForward));
    // Queue depth is the machine state the drain is about to destroy;
    // record it so the post-leg warm-up knows when the units have
    // recovered (see beginWarmup).
    ffPreDrainBacklog_ = rtBacklog();
    // Drain every RT unit: in-flight rays complete exactly (the drain
    // runs outside the tick phase, so completions apply inline through
    // the normal callback) and the units end up idle.
    for (uint32_t s = 0; s < cfg_.numSms; s++) {
        rtUnits_[s]->drainFunctional(lastNow_);
        rtNextEvent_[s] = kNoEvent;
    }
    // The drain completed rays serially; commit any shared-predictor
    // trainings it queued before the leg (and any snapshot) proceeds.
    if (sharedPredict_)
        sharedPredict_->flush();
    // Absorb the accept backlog: warps the units refused (VTQ ray
    // cap). Their tokens never reached a unit, so unroute them here.
    for (uint32_t s = 0; s < cfg_.numSms; s++) {
        SmState &sm = sms_[s];
        sm.refusedAtCompleted.reset();
        while (!sm.acceptQueue.empty()) {
            auto [cta, warp] = sm.acceptQueue.front();
            sm.acceptQueue.pop_front();
            tokenMap_.erase(ctas_[cta].warps[warp].token);
            completeWarpFunctional(lastNow_, cta, warp);
        }
    }
    if (!tokenMap_.empty())
        throw std::logic_error(
            "enterFunctional: unrouted warp tokens after drain");
}

bool
Gpu::ffReachedTarget(uint32_t cta, uint32_t newFinished,
                     uint32_t capacity) const
{
    // Target progress profile of a fast-forward leg: after the leg,
    // ctasFinished_ should be newFinished and the resident window
    // [newFinished, newFinished + capacity) should hold CTAs whose
    // completed-path fraction falls off linearly with launch index —
    // the staggered age mix a long detailed run sustains. Advancing
    // every CTA to completion instead leaves the whole machine one
    // shade from retirement and the next interval measures nearly-free
    // retirements; advancing none makes the stratum unreachable. The
    // profile is the fidelity contract of the leg.
    if (cta < newFinished)
        return false; // must retire fully
    const CtaExec &c = ctas_[cta];
    uint32_t alive = 0;
    for (const auto &w : c.warps)
        alive += w.aliveLanes;
    // Every lane already terminated (paths die during the functional
    // shade): only retirement bookkeeping is left. Finish it inside
    // the leg — deferring would hand the next measured interval a
    // zero-cost retirement and bias the rate up.
    if (alive == 0)
        return false;
    if (cta >= newFinished + capacity)
        return true; // beyond the resident window: do not advance
    uint32_t dead = c.threadCount - alive;
    // progress >= targetFraction, with
    // targetFraction = (newFinished + capacity - cta) / capacity.
    return uint64_t(dead) * capacity >=
           uint64_t(newFinished + capacity - cta) * c.threadCount;
}

bool
Gpu::functionalAdvance(uint64_t rayQuantum, uint32_t ctaTarget)
{
    // The clock is frozen at lastNow_: every event is handled "now"
    // regardless of its booked cycle, so pending ALU segments, CTA
    // restores, launches and traces all complete with zero latency.
    uint64_t now = lastNow_;
    uint32_t capacity = cfg_.numSms * cfg_.maxCtasPerSm;
    // Events of CTAs that already reached their target progress (see
    // ffReachedTarget) are deferred untouched and handed back at leg
    // exit; respreadEvents() then re-staggers them in time.
    std::vector<Event> deferred;
    size_t forcedNext = 0;
    servicePass(now);
    // Four exits: frame finished, ray quantum exhausted (when one is
    // set), CTA stratum reached (when one is set), or the frame
    // entered its final wave (the drain must be simulated in detail —
    // see inFinalWave()).
    while (ctasFinished_ < ctas_.size() &&
           (rayQuantum == 0 || ffLegTraced_ < rayQuantum) &&
           (ctaTarget == 0 || ctasFinished_ < ctaTarget) &&
           !inFinalWave()) {
        bool forced = false;
        Event ev;
        if (!events_.empty()) {
            ev = events_.top();
            events_.pop();
        } else {
            servicePass(now);
            if (!events_.empty())
                continue;
            // Stall escape (ray virtualization): a below-target CTA
            // can sit suspended waiting for a slot held by an
            // at-target resident. Force the oldest deferred event
            // through so the machine keeps draining toward the
            // stratum.
            if (forcedNext < deferred.size()) {
                ev = deferred[forcedNext++];
                forced = true;
            } else {
                throw std::logic_error(
                    "functional fast-forward stalled with " +
                    std::to_string(ctas_.size() - ctasFinished_) +
                    " CTAs unfinished\n" + simStateDump(now));
            }
        }
        if (!forced && ctaTarget != 0 &&
            ffReachedTarget(ev.cta, ctaTarget, capacity)) {
            deferred.push_back(ev);
            continue;
        }
        switch (ev.type) {
          case Event::AluDone:
            onAluDone(now, ev.cta, ev.warp);
            break;
          case Event::CtaRestored: {
            CtaExec &c = ctas_[ev.cta];
            for (auto &w : c.warps)
                if (w.phase == WarpPhase::TraceDone)
                    shadeWarp(now, ev.cta, w.index);
            break;
          }
        }
        servicePass(now);
    }
    for (size_t i = forcedNext; i < deferred.size(); i++)
        pushEvent(deferred[i].cycle, deferred[i].type, deferred[i].cta,
                  deferred[i].warp);
    return ctasFinished_ == ctas_.size();
}

// ---- interval bookkeeping --------------------------------------------

void
Gpu::beginMeasure()
{
    // Close the previous interval's stratum at the midpoint (in
    // rounds) of the gap since it ended: the leg + warm-up rounds
    // between two intervals span drifting regimes, so half belong to
    // each neighbor (see SamplerState::stratumStartRounds).
    if (samp_.acc.intervals() > 0) {
        uint64_t gap = aluRounds_ - samp_.gapStartRounds;
        // Entering the drain: a tail interval's serialized straggler
        // regime (huge cycles-per-round, occurs once) must represent
        // only itself — the gap ran under mid-frame conditions and
        // belongs wholly to the previous interval. That covers both
        // the final wave proper and any interval that cannot retire
        // its CTA quota before the frame ends (it will measure
        // through the drain however it starts).
        bool tail = inFinalWave() ||
                    ctasFinished_ + sampleCfg_.measureCtas >=
                        ctas_.size();
        uint64_t boundary = tail ? aluRounds_
                                 : samp_.gapStartRounds + gap / 2;
        samp_.acc.closeStratum(boundary - samp_.stratumStartRounds);
        samp_.stratumStartRounds = boundary;
    } else {
        samp_.stratumStartRounds = aluRounds_;
    }
    samp_.phase = SamplePhase::Measure;
    samp_.inInterval = true;
    samp_.intervalStartCycle = lastNow_;
    if (telem_)
        telem_->gpuChannel().event(lastNow_, TelemEventKind::PhaseBegin,
                                   uint64_t(TelemPhase::Measure));
    // Fixed-work interval: measure until measureCtas more CTAs retire
    // (see SampleConfig::measureCtas); no cycle bound.
    samp_.phaseEndCycle = ~0ull;
    samp_.backlogTarget = 0; // warm-up condition off while measuring
    samp_.workEndTarget = sampleAllDetailed_
                              ? 0
                              : ctasFinished_ + sampleCfg_.measureCtas;
    // Work metric: warp rounds executed (aluRounds_), not CTAs retired.
    // A fast-forward leg leaves the resident cohort near retirement, so
    // the first CTAs retiring in a measured interval are subsidized by
    // work the leg already did functionally — charging cycles per
    // *retirement* would count those as nearly free and underestimate
    // wildly (scene-dependent, up to ~10x). Rounds accrue only when the
    // detailed model actually executes them, so a cheap post-leg
    // interval also books few rounds and the cycles-per-round ratio
    // stays representative. The whole-run round total is architectural
    // (same traversal work whichever executor runs it), so W is known
    // exactly at end of run: aluRounds_ accrues in both the detailed
    // path and functionalAdvance via the shared onAluDone handler.
    samp_.startWork = ctasFinished_;
    samp_.startRounds = aluRounds_;
    samp_.startCounters = sampleCounters();
}

void
Gpu::endMeasure()
{
    std::vector<uint64_t> cur = sampleCounters();
    SampleInterval iv;
    iv.cycles = lastNow_ - samp_.intervalStartCycle;
    iv.work = aluRounds_ - samp_.startRounds;
    iv.deltas.resize(cur.size());
    for (size_t i = 0; i < cur.size(); i++)
        iv.deltas[i] = cur[i] - samp_.startCounters[i];
    samp_.lastIvRounds = aluRounds_ - samp_.startRounds;
    samp_.lastIvCycles = iv.cycles;
    samp_.gapStartRounds = aluRounds_;
    samp_.acc.add(std::move(iv));
    samp_.inInterval = false;
    samp_.workEndTarget = 0;
    if (telem_)
        telem_->gpuChannel().event(lastNow_, TelemEventKind::PhaseBegin,
                                   uint64_t(TelemPhase::Detailed));
}

uint64_t
Gpu::respreadEvents()
{
    // A fast-forward leg leaves every resident warp's next event booked
    // at the frozen clock: resuming detail would retire them as one
    // synchronized convoy, and the next interval would measure the
    // coherent refill burst instead of steady-state throughput (a ~6x
    // rate overestimate on full-scale scenes). Spread the events so
    // work re-arrives at the warp-round rate the previous interval
    // measured, overdriven 2x: in steady state the RT units are the
    // bottleneck (deep warp backlog), so a saturating arrival stream
    // reproduces that regime and the interval measures true service
    // rate; an undersaturated stream would merely echo the respread
    // rate back. Pure integer arithmetic keeps runs bit-identical.
    std::vector<Event> evs;
    evs.reserve(events_.size());
    while (!events_.empty()) {
        evs.push_back(events_.top());
        events_.pop();
    }
    uint64_t num = samp_.lastIvCycles;
    uint64_t den = 2 * std::max<uint64_t>(1, samp_.lastIvRounds);
    uint64_t end = lastNow_ + 1;
    size_t i = 0;
    for (const Event &ev : evs) {
        uint64_t at = ev.cycle > lastNow_
                          // Booked before the leg froze the clock:
                          // genuinely future, still correctly
                          // staggered — keep as is.
                          ? ev.cycle
                          : lastNow_ + 1 + uint64_t(i++) * num / den;
        pushEvent(at, ev.type, ev.cta, ev.warp);
        end = std::max(end, at);
    }
    return end;
}

void
Gpu::beginWarmup(uint64_t respreadEnd)
{
    samp_.phase = SamplePhase::Warmup;
    samp_.inInterval = false;
    if (telem_)
        telem_->gpuChannel().event(lastNow_, TelemEventKind::PhaseBegin,
                                   uint64_t(TelemPhase::Warmup));
    // The warm-up ends on a *condition*, not a fixed length: the drain
    // left the RT units empty, and a warp round completes against an
    // empty queue far faster than against the steady-state backlog —
    // measuring before the queues refill reads a cycles-per-round
    // ratio biased low (VTQ, whose queues are deepest, by 2x+). Wait
    // until the held-ray population is back to 7/8 of the pre-drain
    // level. The respread window is a second floor (events re-arrive
    // on an artificial 2x schedule there), and warmupCycles is a hard
    // cap so a leg in the occupancy-decay phase — where the backlog
    // may never fully rebuild — cannot stall the run.
    samp_.backlogTarget = ffPreDrainBacklog_;
    samp_.warmupMinCycle = std::max(respreadEnd, lastNow_ + 10000);
    // Units were empty before the leg (nothing to rebuild): the
    // respread window alone bounds the warm-up.
    samp_.phaseEndCycle = samp_.backlogTarget == 0
                              ? respreadEnd
                              : lastNow_ + sampleCfg_.warmupCycles;
}

bool
Gpu::inFinalWave() const
{
    // The very end of the frame — at most one CTA per SM left — is
    // serialized straggler drain whose cost depends on exactly which
    // CTAs remain; it is always simulated (and measured) in detail.
    // The earlier, gradual occupancy decay is left to the sampler:
    // CTA retirement (the work metric) keeps accruing there, so the
    // fixed CTA strata keep landing intervals across the decay.
    uint64_t remaining = ctas_.size() - ctasFinished_;
    return remaining <= uint64_t(cfg_.numSms);
}

uint32_t
Gpu::ffCtaTarget() const
{
    // Advance one CTA stratum per leg: uniform strata in work space
    // (every CTA is a fixed-size pixel block), so measured intervals
    // land evenly across the frame however the completion rate drifts.
    if (sampleCfg_.ffRays > 0)
        return 0; // fixed ray quantum override: no CTA bound
    uint64_t stride =
        std::max<uint64_t>(1, ctas_.size() / sampleCfg_.targetIntervals);
    return uint32_t(std::min<uint64_t>(ctas_.size(),
                                       uint64_t(ctasFinished_) + stride));
}

// ---- extrapolation ---------------------------------------------------

void
Gpu::applySampleEstimates()
{
    SampleSummary &ss = run_.sampled;
    ss.enabled = true;
    ss.intervals = uint32_t(samp_.acc.intervals());
    ss.measuredCycles = samp_.acc.measuredCycles();
    ss.measuredRounds = samp_.acc.measuredWork();
    ss.totalRays = run_.raysTraced;
    ss.ffRays = samp_.ffRaysTotal;

    // Close the last interval's stratum at its own end. Rounds that ran
    // after it (a frame-ending leg or warm-up no interval followed) are
    // residual work: no interval observed that regime, so it is charged
    // at the pooled rate rather than the last interval's — the closing
    // interval often runs on a sparse machine whose cycles-per-round is
    // wildly unrepresentative. Every warp round runs exactly once, in
    // detail or fast-forward (both paths go through onAluDone), so
    // strata + residual partition the exact whole-run work.
    samp_.acc.closeStratum(samp_.gapStartRounds - samp_.stratumStartRounds);
    samp_.acc.setResidualWork(aluRounds_ - samp_.gapStartRounds);
    samp_.stratumStartRounds = samp_.gapStartRounds;

    Estimate cycles = samp_.acc.extrapolateCycles();
    run_.cycles = uint64_t(std::llround(cycles.value));
    ss.cyclesCi95 = cycles.ci95;

    std::vector<Estimate> est = samp_.acc.extrapolateCounters();
    ss.counterCi95.clear();
    ss.counterCi95.reserve(est.size());
    size_t idx = 0;
    forEachSampleCounter(run_, [&](const std::string &, uint64_t &x) {
        x = uint64_t(std::llround(est[idx].value));
        ss.counterCi95.push_back(est[idx].ci95);
        idx++;
    });
}

// ---- driver ----------------------------------------------------------

RunStats
Gpu::runSampled(const SampleConfig &sc)
{
    if (ran_)
        throw std::logic_error(
            "Gpu::runSampled() may only be called once");
    if (!sc.enabled)
        throw std::invalid_argument(
            "runSampled: SampleConfig.enabled must be set");
    ran_ = true;
    // Scenes smaller than one full sampling schedule gain nothing from
    // fast-forward; keep them entirely detailed (exact, zero CI).
    sampleAllDetailed_ = ctas_.size() <=
                         uint64_t(sc.measureCtas) * sc.targetIntervals;

    if (restored_ && samp_.active) {
        // Resuming a sampled run mid-flight: the sampler state in the
        // snapshot is only meaningful under identical parameters.
        if (samp_.cfgFp != sc.fingerprint())
            throw SnapshotError(
                "snapshot: TRT_SAMPLE_* parameters differ from the "
                "sampled run that captured this snapshot");
        sampleCfg_ = sc;
    } else {
        if (restored_)
            throw SnapshotError(
                "snapshot: full-run snapshot cannot resume under "
                "TRT_SAMPLE (fingerprints should prevent this)");
        sampleCfg_ = sc;
        samp_.active = true;
        samp_.cfgFp = sc.fingerprint();
        servicePass(lastNow_);
        beginMeasure();
    }
    if (snapPolicy_.everyCycles != 0)
        nextSnapshotAt_ = (lastNow_ / snapPolicy_.everyCycles + 1) *
                          snapPolicy_.everyCycles;

    bool finished = false;
    while (!finished) {
        finished = detailedLoop(samp_.phaseEndCycle);
        if (finished)
            break;
        if (samp_.phase == SamplePhase::Measure) {
            endMeasure();
            if (inFinalWave()) {
                // Drain tail: keep measuring back-to-back intervals
                // until the frame finishes (no more fast-forward).
                beginMeasure();
                continue;
            }
            enterFunctional();
            finished = functionalAdvance(sampleCfg_.ffRays, ffCtaTarget());
            functionalMode_ = false;
            if (finished)
                break;
            {
                uint64_t respreadEnd = respreadEvents();
                // warmupCycles == 0: no discard — measure straight
                // through the post-leg window. The nearly-free
                // retirements of the fast-forwarded cohort and the
                // catch-up ramp of its replacements then fall in the
                // same interval and offset each other.
                if (sampleCfg_.warmupCycles == 0)
                    beginMeasure();
                else
                    beginWarmup(respreadEnd);
            }
        } else {
            beginMeasure();
        }
    }
    // Close a partial tail interval (frame finished mid-measurement);
    // it carries the drain phase the schedule would otherwise miss.
    if (samp_.inInterval && lastNow_ > samp_.intervalStartCycle)
        endMeasure();

    finalizeStats();
    applySampleEstimates();

    if (envFlag("TRT_SAMPLE_DEBUG", false)) {
        for (const SampleInterval &iv : samp_.acc.samples())
            fprintf(stderr,
                    "[sample] interval cycles=%llu work=%llu stratum=%llu\n",
                    (unsigned long long)iv.cycles,
                    (unsigned long long)iv.work,
                    (unsigned long long)iv.stratumWork);
        fprintf(stderr,
                "[sample] n=%zu measured=%llu cyc / %llu rounds of %llu, "
                "ff=%llu rays, total=%llu rays, end_cycle=%llu, est=%llu\n",
                samp_.acc.intervals(),
                (unsigned long long)samp_.acc.measuredCycles(),
                (unsigned long long)samp_.acc.measuredWork(),
                (unsigned long long)aluRounds_,
                (unsigned long long)samp_.ffRaysTotal,
                (unsigned long long)run_.raysTraced,
                (unsigned long long)lastNow_,
                (unsigned long long)run_.cycles);
    }
    return run_;
}

} // namespace trt
