#include "gpu/gpu.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "gpu/dispatch_policy.hh"
#include "util/env.hh"

namespace trt
{

namespace
{

/** Base simulated address of the CTA state save area (section 4.1). */
constexpr uint64_t kCtaStateBase = 0x300000000ull;
/** Bytes reserved per CTA in the save area. */
constexpr uint64_t kCtaStateStride = 8192;

/** Resolve the SM tick-fan-out width: explicit config, else the
 *  TRT_SIM_THREADS environment variable, else serial. */
uint32_t
resolveSimThreads(uint32_t cfg_threads)
{
    if (cfg_threads > 0)
        return cfg_threads;
    uint64_t v = envUInt("TRT_SIM_THREADS", 1, 4096);
    return v > 0 ? uint32_t(v) : 1;
}

} // anonymous namespace

double
RunStats::bvhL1MissRate() const
{
    const MemClassStats &n = memClass(MemClass::BvhNode);
    const MemClassStats &t = memClass(MemClass::Triangle);
    uint64_t acc = n.l1Accesses + t.l1Accesses;
    uint64_t miss = n.l1Misses + t.l1Misses;
    return acc ? double(miss) / double(acc) : 0.0;
}

Gpu::Gpu(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
         const std::vector<Ray> *primary_rays)
    : cfg_(cfg), scene_(scene), bvh_(bvh), mem_(cfg.mem),
      tracer_(scene, bvh, cfg.maxBounces, cfg.contributionCutoff),
      customRays_(primary_rays)
{
    if (cfg_.mem.numL1s != cfg_.numSms)
        throw std::invalid_argument("mem.numL1s must equal numSms");

    if (cfg_.policy == DispatchPolicyKind::Predict && cfg_.predictShared)
        sharedPredict_ = std::make_unique<SharedPredict>(cfg_);

    if (cfg_.telem.on())
        telem_ = std::make_unique<Telemetry>(cfg_.telem, cfg_.numSms);

    sms_.resize(cfg_.numSms);
    rtUnits_.reserve(cfg_.numSms);
    for (uint32_t sm = 0; sm < cfg_.numSms; sm++) {
        auto unit = std::make_unique<BaselineRtUnit>(cfg_, mem_, bvh_, sm);
        if (sharedPredict_)
            unit->setSharedPredict(sharedPredict_.get());
        if (telem_)
            unit->setTelemetry(&telem_->channel(sm));
        // During the (possibly multi-threaded) tick phase completions
        // are buffered per SM and drained in SM order after the memory
        // commit; outside it (accept path, final drain) they are
        // handled inline as before.
        unit->setCompletion([this, sm](uint64_t token,
                                       std::vector<LaneHit> &&hits) {
            if (inTickPhase_)
                pendingDone_[sm].push_back({token, std::move(hits)});
            else
                onWarpTraceDone(lastNow_, token, std::move(hits));
        });
        rtUnits_.push_back(std::move(unit));
    }
    rtNextEvent_.assign(cfg_.numSms, kNoEvent);
    pendingDone_.resize(cfg_.numSms);
    for (auto &v : pendingDone_)
        v.reserve(16);
    tickList_.reserve(cfg_.numSms);

    uint32_t threads =
        std::min(resolveSimThreads(cfg_.simThreads), cfg_.numSms);
    if (threads > 1)
        pool_ = std::make_unique<TickPool>(threads);

    buildCtas();
}

Gpu::~Gpu() = default;

void
Gpu::buildCtas()
{
    uint32_t pixels = customRays_ ? uint32_t(customRays_->size())
                                  : cfg_.imageWidth * cfg_.imageHeight;
    uint32_t per_cta = cfg_.ctaSize;
    uint32_t n_ctas = (pixels + per_cta - 1) / per_cta;

    ctas_.resize(n_ctas);
    for (uint32_t c = 0; c < n_ctas; c++) {
        CtaExec &cta = ctas_[c];
        cta.token = c;
        cta.firstPixel = c * per_cta;
        cta.threadCount = std::min(per_cta, pixels - cta.firstPixel);
        uint32_t n_warps =
            (cta.threadCount + cfg_.warpSize - 1) / cfg_.warpSize;
        cta.warps.resize(n_warps);
        for (uint32_t w = 0; w < n_warps; w++) {
            WarpExec &warp = cta.warps[w];
            warp.index = w;
            uint32_t first = cta.firstPixel + w * cfg_.warpSize;
            uint32_t lanes = std::min(cfg_.warpSize,
                                      cta.firstPixel + cta.threadCount -
                                          first);
            warp.lanes.resize(lanes);
        }
        pendingCtas_.push_back(c);
    }
    run_.framebuffer.assign(pixels, Vec3{0, 0, 0});
    if (customRays_)
        run_.primaryHits.assign(pixels, HitRecord{});
}

uint32_t
Gpu::ctaStateBytesFor(const CtaExec &c) const
{
    // Registers (ptxas count, section 6.6) plus per-warp SIMT stack:
    // 32-bit mask + PC + reconvergence PC per stack entry.
    uint32_t reg_bytes = c.threadCount * cfg_.regsPerThread * 4;
    uint32_t stack_bytes =
        uint32_t(c.warps.size()) * cfg_.simtStackDepth * 12;
    return reg_bytes + stack_bytes;
}

void
Gpu::pushEvent(uint64_t cycle, Event::Type t, uint32_t cta, uint32_t warp)
{
    events_.push(Event{cycle, eventSeq_++, t, cta, warp});
}

void
Gpu::scheduleAlu(uint64_t now, uint32_t cta, uint32_t warp, uint32_t instrs)
{
    CtaExec &c = ctas_[cta];
    c.warps[warp].phase = WarpPhase::Alu;
    run_.aluLaneInstrs +=
        uint64_t(instrs) * std::max(1u, c.warps[warp].aliveLanes);
    if (functionalMode_) {
        // Zero latency, and no core-occupancy booking: aluBusyUntil
        // would leak frozen-clock time into the next detailed phase.
        pushEvent(now, Event::AluDone, cta, warp);
        return;
    }
    SmState &sm = sms_[c.smId];
    uint64_t start = std::max(now, sm.aluBusyUntil);
    uint64_t done = start + instrs;
    sm.aluBusyUntil = done;
    pushEvent(done, Event::AluDone, cta, warp);
}

void
Gpu::tryLaunch(uint64_t now)
{
    if (launchBlocked_)
        return; // no SM freed resources since the last failed scan
    while (!pendingCtas_.empty()) {
        uint32_t ctaIdx = pendingCtas_.front();
        CtaExec &c = ctas_[ctaIdx];
        uint32_t warps = uint32_t(c.warps.size());
        uint32_t regs = c.threadCount * cfg_.regsPerThread;

        // Pick the SM with the most free CTA slots (ties: lowest id).
        int best = -1;
        uint32_t best_free = 0;
        for (uint32_t s = 0; s < cfg_.numSms; s++) {
            const SmState &sm = sms_[s];
            if (sm.ctasResident >= cfg_.maxCtasPerSm ||
                sm.warpsUsed + warps > cfg_.maxWarpsPerSm ||
                sm.regsUsed + regs > cfg_.regsPerSm) {
                continue;
            }
            uint32_t free = cfg_.maxCtasPerSm - sm.ctasResident;
            if (int(free) > int(best_free) || best < 0) {
                best = int(s);
                best_free = free;
            }
        }
        if (best < 0) {
            launchBlocked_ = true;
            return;
        }

        pendingCtas_.pop_front();
        c.smId = uint32_t(best);
        c.state = CtaState::Resident;
        SmState &sm = sms_[c.smId];
        sm.ctasResident++;
        sm.warpsUsed += warps;
        sm.regsUsed += regs;
        run_.ctasLaunched++;

        // Initialize paths and start the raygen shader on every warp.
        for (auto &warp : c.warps) {
            warp.aliveLanes = 0;
            for (uint32_t l = 0; l < warp.lanes.size(); l++) {
                uint32_t pixel =
                    c.firstPixel + warp.index * cfg_.warpSize + l;
                if (customRays_) {
                    // Tree-traversal workload: the "raygen shader"
                    // issues a provided query ray instead.
                    PathState st;
                    st.pixel = pixel;
                    st.alive = true;
                    st.ray = (*customRays_)[pixel];
                    warp.lanes[l].path = st;
                } else {
                    warp.lanes[l].path = tracer_.startPath(
                        pixel, cfg_.imageWidth, cfg_.imageHeight);
                }
                warp.lanes[l].traced = false;
                warp.aliveLanes++;
            }
            scheduleAlu(now, ctaIdx, warp.index, cfg_.raygenAluInstrs);
        }
    }
}

void
Gpu::tryResume(uint64_t now)
{
    if (resumeQueued_ == 0)
        return;
    for (uint32_t s = 0; s < cfg_.numSms; s++) {
        SmState &sm = sms_[s];
        while (!sm.resumeQueue.empty()) {
            uint32_t ctaIdx = sm.resumeQueue.front();
            CtaExec &c = ctas_[ctaIdx];
            uint32_t warps = uint32_t(c.warps.size());
            uint32_t regs = c.threadCount * cfg_.regsPerThread;
            if (sm.ctasResident >= cfg_.maxCtasPerSm ||
                sm.warpsUsed + warps > cfg_.maxWarpsPerSm ||
                sm.regsUsed + regs > cfg_.regsPerSm) {
                break;
            }
            sm.resumeQueue.pop_front();
            resumeQueued_--;
            sm.ctasResident++;
            sm.warpsUsed += warps;
            sm.regsUsed += regs;
            c.state = CtaState::Resident;
            run_.ctaRestores++;

            uint64_t ready = now;
            uint32_t bytes = ctaStateBytesFor(c);
            run_.ctaStateBytes += bytes;
            // Functional mode keeps the save/restore counters (they are
            // architectural work) but skips the timed state read.
            if (!cfg_.virtualizationFree && !functionalMode_) {
                // Serial phase: the port resolves immediately.
                mem_.port(s).read(now,
                                  kCtaStateBase +
                                      c.token * kCtaStateStride,
                                  bytes, MemClass::CtaState, false,
                                  &ready);
            }
            pushEvent(ready, Event::CtaRestored, ctaIdx, 0);
        }
    }
}

void
Gpu::issueTrace(uint64_t now, uint32_t cta, uint32_t warp)
{
    if (functionalMode_) {
        traceWarpFunctional(now, cta, warp);
        return;
    }
    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];

    TraceRequest req;
    req.token = nextToken_++;
    req.ctaToken = cta;
    for (uint32_t l = 0; l < w.lanes.size(); l++) {
        LaneCtx &lane = w.lanes[l];
        lane.traced = lane.path.alive;
        if (lane.traced)
            req.lanes.push_back({uint8_t(l), lane.path.ray});
    }
    assert(!req.lanes.empty());
    run_.raysTraced += req.lanes.size();
    w.token = req.token;
    tokenMap_[req.token] = {cta, warp};
    w.phase = WarpPhase::WaitAccept;

    SmState &sm = sms_[c.smId];
    if (sm.acceptQueue.empty() &&
        rtUnits_[c.smId]->tryAccept(now, std::move(req))) {
        refreshRtEvent(c.smId);
        w.phase = WarpPhase::WaitTrace;
        maybeSuspendCta(now, cta);
    } else {
        // Request will be rebuilt at retry time from lane state.
        sm.acceptQueue.push_back({cta, warp});
    }
}

void
Gpu::retryAccepts(uint64_t now, uint32_t smId)
{
    SmState &sm = sms_[smId];
    while (!sm.acceptQueue.empty()) {
        auto [cta, warp] = sm.acceptQueue.front();
        CtaExec &c = ctas_[cta];
        WarpExec &w = c.warps[warp];

        TraceRequest req;
        req.token = w.token;
        req.ctaToken = cta;
        for (uint32_t l = 0; l < w.lanes.size(); l++)
            if (w.lanes[l].traced)
                req.lanes.push_back({uint8_t(l), w.lanes[l].path.ray});
        if (!rtUnits_[smId]->tryAccept(now, std::move(req)))
            return;
        refreshRtEvent(smId);
        sm.acceptQueue.pop_front();
        w.phase = WarpPhase::WaitTrace;
        maybeSuspendCta(now, cta);
    }
}

void
Gpu::maybeSuspendCta(uint64_t now, uint32_t cta)
{
    if (!cfg_.rayVirtualization)
        return;
    CtaExec &c = ctas_[cta];
    if (c.state != CtaState::Resident)
        return;

    bool any_waiting = false;
    for (const auto &w : c.warps) {
        switch (w.phase) {
          case WarpPhase::WaitTrace:
          case WarpPhase::TraceDone:
            any_waiting = true;
            break;
          case WarpPhase::Finished:
            break;
          default:
            return; // some warp still executing / not yet accepted
        }
    }
    if (!any_waiting)
        return;

    // Suspension only pays off when the freed slot can actually be
    // used (a CTA pending launch or queued for resume); otherwise keep
    // the CTA resident and skip the save/restore round trip. This is
    // the "until all raygen shader CTAs are issued" clause of 4.1.
    if (pendingCtas_.empty() && sms_[c.smId].resumeQueue.empty())
        return;

    // Terminate the raygen shader: spill CTA state and release the slot
    // so the CTA scheduler can launch more raygen CTAs (section 4.1).
    SmState &sm = sms_[c.smId];
    sm.ctasResident--;
    sm.warpsUsed -= uint32_t(c.warps.size());
    sm.regsUsed -= c.threadCount * cfg_.regsPerThread;
    launchBlocked_ = false;
    c.state = CtaState::Suspended;
    run_.ctaSaves++;
    uint32_t bytes = ctaStateBytesFor(c);
    run_.ctaStateBytes += bytes;
    if (!cfg_.virtualizationFree) {
        mem_.port(c.smId).write(now,
                                kCtaStateBase + c.token * kCtaStateStride,
                                bytes, MemClass::CtaState);
    }
    maybeResumeReady(now, cta);
}

void
Gpu::maybeResumeReady(uint64_t now, uint32_t cta)
{
    (void)now;
    CtaExec &c = ctas_[cta];
    if (c.state != CtaState::Suspended)
        return;
    for (const auto &w : c.warps) {
        if (w.phase != WarpPhase::TraceDone &&
            w.phase != WarpPhase::Finished) {
            return;
        }
    }
    // Every traced warp has its results: inject into the CTA
    // scheduler's (prioritized) resume queue via the RT unit's path.
    c.state = CtaState::ResumeQueued;
    sms_[c.smId].resumeQueue.push_back(cta);
    resumeQueued_++;
}

void
Gpu::onWarpTraceDone(uint64_t now, uint64_t token,
                     std::vector<LaneHit> &&hits)
{
    auto it = tokenMap_.find(token);
    assert(it != tokenMap_.end());
    auto [cta, warp] = it->second;
    tokenMap_.erase(it);

    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];
    w.pendingHits = std::move(hits);

    if (c.state == CtaState::Resident) {
        shadeWarp(now, cta, warp);
    } else {
        w.phase = WarpPhase::TraceDone;
        maybeResumeReady(now, cta);
    }
}

void
Gpu::shadeWarp(uint64_t now, uint32_t cta, uint32_t warp)
{
    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];

    // Functional shading: consume hits, sample next-bounce rays.
    for (const auto &lh : w.pendingHits) {
        LaneCtx &lane = w.lanes[lh.lane];
        assert(lane.traced);
        if (!run_.primaryHits.empty() && lane.path.bounce == 0)
            run_.primaryHits[lane.path.pixel] = lh.hit;
        tracer_.shade(lane.path, lh.hit);
    }
    w.pendingHits.clear();
    w.aliveLanes = 0;
    for (auto &lane : w.lanes)
        w.aliveLanes += lane.path.alive ? 1 : 0;

    scheduleAlu(now, cta, warp, cfg_.shadeAluInstrs);
}

void
Gpu::onAluDone(uint64_t now, uint32_t cta, uint32_t warp)
{
    aluRounds_++;
    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];
    assert(w.phase == WarpPhase::Alu);

    if (w.aliveLanes > 0) {
        issueTrace(now, cta, warp);
    } else {
        finishWarp(cta, warp);
        checkCtaFinished(now, cta);
    }
}

void
Gpu::finishWarp(uint32_t cta, uint32_t warp)
{
    CtaExec &c = ctas_[cta];
    WarpExec &w = c.warps[warp];
    w.phase = WarpPhase::Finished;
    for (auto &lane : w.lanes)
        run_.framebuffer[lane.path.pixel] = lane.path.radiance;
}

void
Gpu::checkCtaFinished(uint64_t now, uint32_t cta)
{
    (void)now;
    CtaExec &c = ctas_[cta];
    for (const auto &w : c.warps)
        if (w.phase != WarpPhase::Finished)
            return;
    assert(c.state == CtaState::Resident);
    SmState &sm = sms_[c.smId];
    sm.ctasResident--;
    sm.warpsUsed -= uint32_t(c.warps.size());
    sm.regsUsed -= c.threadCount * cfg_.regsPerThread;
    launchBlocked_ = false;
    c.state = CtaState::Finished;
    ctasFinished_++;
}

std::string
Gpu::simStateDump(uint64_t now) const
{
    std::ostringstream os;
    os << "  cycle=" << now << " ctas=" << ctasFinished_ << "/"
       << ctas_.size() << " finished, " << pendingCtas_.size()
       << " pending launch, " << events_.size() << " host events";
    uint32_t suspended = 0, resumeq = 0;
    for (const auto &c : ctas_) {
        if (c.state == CtaState::Suspended)
            suspended++;
        if (c.state == CtaState::ResumeQueued)
            resumeq++;
    }
    os << ", " << suspended << " suspended, " << resumeq
       << " resume-queued\n";
    for (uint32_t s = 0; s < cfg_.numSms; s++) {
        const SmState &sm = sms_[s];
        os << "  sm" << s << ": ctas=" << sm.ctasResident
           << " warps=" << sm.warpsUsed
           << " acceptQ=" << sm.acceptQueue.size()
           << " resumeQ=" << sm.resumeQueue.size() << " nextEvent=";
        if (rtNextEvent_[s] == kNoEvent)
            os << "idle";
        else
            os << rtNextEvent_[s];
        std::string rt = rtUnits_[s]->debugStatus();
        if (!rt.empty())
            os << " | " << rt;
        os << "\n";
    }
    // Hang diagnosis: the recent per-SM telemetry tail shows whether
    // occupancy or queue depth flatlined before the stall.
    if (telem_)
        telem_->recentDump(os);
    return os.str();
}

void
Gpu::servicePass(uint64_t now)
{
    for (uint32_t s = 0; s < cfg_.numSms; s++)
        retryAccepts(now, s);
    tryResume(now);
    tryLaunch(now);
}

// ---- checkpoint / restore (DESIGN.md §7) ----------------------------

void
Gpu::setSnapshotPolicy(const SnapshotPolicy &policy)
{
    if (ran_)
        throw std::logic_error(
            "Gpu::setSnapshotPolicy must be called before run()");
    snapPolicy_ = policy;
}

void
Gpu::saveState(Serializer &s) const
{
    s.beginChunk("GPU0");
    s.u64(cfg_.fingerprint());
    s.u64(lastNow_);

    // Mid-run RunStats subset; the rest (cycles, rt, mem, miss-rate
    // series) is derived after the main loop and never live mid-run.
    s.vecPod(run_.framebuffer);
    s.u64(run_.aluLaneInstrs);
    s.u64(run_.raysTraced);
    s.u64(run_.ctasLaunched);
    s.u64(run_.ctaSaves);
    s.u64(run_.ctaRestores);
    s.u64(run_.ctaStateBytes);
    s.vecPod(run_.primaryHits);

    s.u64(ctas_.size());
    for (const CtaExec &c : ctas_) {
        s.u32(c.token);
        s.u32(c.smId);
        s.u8(uint8_t(c.state));
        s.u32(c.firstPixel);
        s.u32(c.threadCount);
        s.u64(c.warps.size());
        for (const WarpExec &w : c.warps) {
            s.u32(w.index);
            s.u8(uint8_t(w.phase));
            s.u64(w.token);
            s.u32(w.aliveLanes);
            s.u64(w.pendingHits.size());
            for (const LaneHit &lh : w.pendingHits) {
                s.u8(lh.lane);
                s.pod(lh.hit);
            }
            s.u64(w.lanes.size());
            for (const LaneCtx &lane : w.lanes) {
                // PathState field by field: the struct has padding.
                s.u32(lane.path.pixel);
                s.pod(lane.path.throughput);
                s.pod(lane.path.radiance);
                s.u8(lane.path.bounce);
                s.b(lane.path.alive);
                s.pod(lane.path.ray);
                s.pod(lane.hit);
                s.b(lane.traced);
            }
        }
    }

    for (const SmState &sm : sms_) {
        s.u32(sm.ctasResident);
        s.u32(sm.warpsUsed);
        s.u32(sm.regsUsed);
        s.u64(sm.aluBusyUntil);
        s.u64(sm.acceptQueue.size());
        for (const auto &[cta, warp] : sm.acceptQueue) {
            s.u32(cta);
            s.u32(warp);
        }
        s.u64(sm.resumeQueue.size());
        for (uint32_t cta : sm.resumeQueue)
            s.u32(cta);
    }

    s.u64(pendingCtas_.size());
    for (uint32_t c : pendingCtas_)
        s.u32(c);
    s.u32(ctasFinished_);
    s.b(launchBlocked_);
    s.u32(resumeQueued_);

    // Host events: drain a copy in pop order; re-pushing on load
    // rebuilds an equivalent priority queue (ordering is a total
    // function of (cycle, seq), both preserved).
    auto events = events_;
    s.u64(events.size());
    while (!events.empty()) {
        const Event &e = events.top();
        s.u64(e.cycle);
        s.u64(e.seq);
        s.u8(uint8_t(e.type));
        s.u32(e.cta);
        s.u32(e.warp);
        events.pop();
    }
    s.u64(eventSeq_);

    // Token map sorted by token: unordered_map iteration order is
    // layout-dependent and must not leak into the file.
    std::vector<std::pair<uint64_t, std::pair<uint32_t, uint32_t>>> toks(
        tokenMap_.begin(), tokenMap_.end());
    std::sort(toks.begin(), toks.end());
    s.u64(toks.size());
    for (const auto &[tok, cw] : toks) {
        s.u64(tok);
        s.u32(cw.first);
        s.u32(cw.second);
    }
    s.u64(nextToken_);

    s.vecPod(rtNextEvent_);
    s.endChunk();

    // Sampler bookkeeping (inert — all defaults — for full runs).
    // Snapshots are only captured from detailed phases; a fast-forward
    // leg never reaches the capture point, so functionalMode_ is not
    // serialized.
    s.beginChunk("SMPL");
    s.b(samp_.active);
    s.u8(uint8_t(samp_.phase));
    s.b(samp_.inInterval);
    s.u64(samp_.phaseEndCycle);
    s.u64(samp_.workEndTarget);
    s.u64(samp_.intervalStartCycle);
    s.u64(samp_.startWork);
    s.u64(samp_.startRounds);
    s.u64(samp_.lastIvRounds);
    s.u64(samp_.lastIvCycles);
    s.u64(samp_.backlogTarget);
    s.u64(samp_.warmupMinCycle);
    s.u64(samp_.stratumStartRounds);
    s.u64(samp_.gapStartRounds);
    s.u64(aluRounds_);
    s.vecPod(samp_.startCounters);
    s.u64(samp_.ffRaysTotal);
    s.u64(samp_.cfgFp);
    samp_.acc.saveState(s);
    s.endChunk();

    mem_.saveState(s);
    for (const auto &unit : rtUnits_)
        unit->saveState(s);
    // Shared prediction table (only when enabled; predictShared is
    // part of the config fingerprint, so presence always matches).
    if (sharedPredict_)
        sharedPredict_->saveState(s);
    // Telemetry streams. cfg_.telem is deliberately outside the
    // fingerprint, so presence is NOT checked by the fingerprint guard:
    // resuming must run under the same TRT_TELEM* knobs (a mismatch
    // fails the next chunk tag check). Channels are drained — captures
    // happen only after telemCommit().
    if (telem_)
        telem_->saveState(s);
}

void
Gpu::loadState(Deserializer &d)
{
    d.beginChunk("GPU0");
    if (d.u64() != cfg_.fingerprint())
        throw SnapshotError(
            "snapshot: GpuConfig fingerprint mismatch (snapshot was "
            "taken under a different simulation configuration)");
    lastNow_ = d.u64();

    auto fb = d.vecPod<Vec3>();
    if (fb.size() != run_.framebuffer.size())
        throw SnapshotError("snapshot: framebuffer size mismatch");
    run_.framebuffer = std::move(fb);
    run_.aluLaneInstrs = d.u64();
    run_.raysTraced = d.u64();
    run_.ctasLaunched = d.u64();
    run_.ctaSaves = d.u64();
    run_.ctaRestores = d.u64();
    run_.ctaStateBytes = d.u64();
    auto hits = d.vecPod<HitRecord>();
    if (hits.size() != run_.primaryHits.size())
        throw SnapshotError("snapshot: primaryHits size mismatch");
    run_.primaryHits = std::move(hits);

    if (d.u64() != ctas_.size())
        throw SnapshotError("snapshot: CTA count mismatch");
    for (CtaExec &c : ctas_) {
        c.token = d.u32();
        c.smId = d.u32();
        uint8_t state = d.u8();
        if (state > uint8_t(CtaState::Finished))
            throw SnapshotError("snapshot: CTA state out of range");
        c.state = CtaState(state);
        c.firstPixel = d.u32();
        c.threadCount = d.u32();
        if (d.u64() != c.warps.size())
            throw SnapshotError("snapshot: warp count mismatch");
        for (WarpExec &w : c.warps) {
            w.index = d.u32();
            uint8_t phase = d.u8();
            if (phase > uint8_t(WarpPhase::Finished))
                throw SnapshotError("snapshot: warp phase out of range");
            w.phase = WarpPhase(phase);
            w.token = d.u64();
            w.aliveLanes = d.u32();
            w.pendingHits.clear();
            uint64_t nhits = d.count(1 + sizeof(HitRecord));
            w.pendingHits.reserve(nhits);
            for (uint64_t i = 0; i < nhits; i++) {
                LaneHit lh;
                lh.lane = d.u8();
                lh.hit = d.pod<HitRecord>();
                if (lh.lane >= w.lanes.size())
                    throw SnapshotError(
                        "snapshot: pending-hit lane out of range");
                w.pendingHits.push_back(lh);
            }
            if (d.u64() != w.lanes.size())
                throw SnapshotError("snapshot: lane count mismatch");
            for (LaneCtx &lane : w.lanes) {
                lane.path.pixel = d.u32();
                lane.path.throughput = d.pod<Vec3>();
                lane.path.radiance = d.pod<Vec3>();
                lane.path.bounce = d.u8();
                lane.path.alive = d.b();
                lane.path.ray = d.pod<Ray>();
                lane.hit = d.pod<HitRecord>();
                lane.traced = d.b();
            }
        }
    }

    for (SmState &sm : sms_) {
        sm.ctasResident = d.u32();
        sm.warpsUsed = d.u32();
        sm.regsUsed = d.u32();
        sm.aluBusyUntil = d.u64();
        sm.acceptQueue.clear();
        uint64_t naccept = d.u64();
        for (uint64_t i = 0; i < naccept; i++) {
            uint32_t cta = d.u32();
            uint32_t warp = d.u32();
            sm.acceptQueue.push_back({cta, warp});
        }
        sm.resumeQueue.clear();
        uint64_t nresume = d.u64();
        for (uint64_t i = 0; i < nresume; i++)
            sm.resumeQueue.push_back(d.u32());
    }

    pendingCtas_.clear();
    uint64_t npending = d.u64();
    for (uint64_t i = 0; i < npending; i++)
        pendingCtas_.push_back(d.u32());
    ctasFinished_ = d.u32();
    launchBlocked_ = d.b();
    resumeQueued_ = d.u32();

    events_ = {};
    uint64_t nevents = d.u64();
    for (uint64_t i = 0; i < nevents; i++) {
        Event e;
        e.cycle = d.u64();
        e.seq = d.u64();
        uint8_t type = d.u8();
        if (type > uint8_t(Event::CtaRestored))
            throw SnapshotError("snapshot: event type out of range");
        e.type = Event::Type(type);
        e.cta = d.u32();
        e.warp = d.u32();
        events_.push(e);
    }
    eventSeq_ = d.u64();

    tokenMap_.clear();
    uint64_t ntoks = d.u64();
    for (uint64_t i = 0; i < ntoks; i++) {
        uint64_t tok = d.u64();
        uint32_t cta = d.u32();
        uint32_t warp = d.u32();
        tokenMap_[tok] = {cta, warp};
    }
    nextToken_ = d.u64();

    auto next = d.vecPod<uint64_t>();
    if (next.size() != rtNextEvent_.size())
        throw SnapshotError("snapshot: SM count mismatch");
    rtNextEvent_ = std::move(next);
    d.endChunk();

    d.beginChunk("SMPL");
    samp_.active = d.b();
    uint8_t phase = d.u8();
    if (phase > uint8_t(SamplePhase::Warmup))
        throw SnapshotError("snapshot: sample phase out of range");
    samp_.phase = SamplePhase(phase);
    samp_.inInterval = d.b();
    samp_.phaseEndCycle = d.u64();
    samp_.workEndTarget = d.u64();
    samp_.intervalStartCycle = d.u64();
    samp_.startWork = d.u64();
    samp_.startRounds = d.u64();
    samp_.lastIvRounds = d.u64();
    samp_.lastIvCycles = d.u64();
    samp_.backlogTarget = d.u64();
    samp_.warmupMinCycle = d.u64();
    samp_.stratumStartRounds = d.u64();
    samp_.gapStartRounds = d.u64();
    aluRounds_ = d.u64();
    samp_.startCounters = d.vecPod<uint64_t>();
    samp_.ffRaysTotal = d.u64();
    samp_.cfgFp = d.u64();
    samp_.acc.loadState(d);
    d.endChunk();
    functionalMode_ = false;
    ffLegTraced_ = 0;

    mem_.loadState(d);
    for (const auto &unit : rtUnits_)
        unit->loadState(d);
    if (sharedPredict_)
        sharedPredict_->loadState(d);
    if (telem_)
        telem_->loadState(d);

    // Transients are empty at the serial commit boundary by
    // construction; reset them in case a failed earlier load ran.
    inTickPhase_ = false;
    for (auto &v : pendingDone_)
        v.clear();
    tickList_.clear();

    ran_ = false;
    restored_ = true;
}

void
Gpu::maybeSnapshot(uint64_t now)
{
    bool halt =
        snapPolicy_.haltAtCycle != 0 && now >= snapPolicy_.haltAtCycle;
    bool periodic =
        snapPolicy_.everyCycles != 0 && now >= nextSnapshotAt_;
    if (!halt && !periodic)
        return;
    if (snapPolicy_.everyCycles != 0)
        nextSnapshotAt_ = (now / snapPolicy_.everyCycles + 1) *
                          snapPolicy_.everyCycles;

    // detailedLoop already committed telemetry this boundary; the
    // channels are drained, which Telemetry::saveState insists on.
    Serializer s;
    saveState(s);
    std::filesystem::path path = writeSnapshotFile(
        snapPolicy_.dir, snapPolicy_.worldFp, now, s.bytes());
    // Trace the capture *after* serializing: the event belongs to this
    // process's live stream, not to the snapshot — a resumed run's
    // trace must be byte-identical to an uninterrupted run's, which
    // never saw a capture.
    if (telem_)
        telem_->gpuChannel().event(now, TelemEventKind::SnapshotCapture,
                                   now);
    if (halt)
        throw SimulationHalted(now, path.string());
}

void
Gpu::telemCommit(uint64_t now, bool last)
{
    if (last ? telem_->gpuTailDue(now) : telem_->gpuSampleDue(now)) {
        TelemGpuSample g;
        g.cycle = now;
        const MemClassStats &n = mem_.classStats(MemClass::BvhNode);
        const MemClassStats &t = mem_.classStats(MemClass::Triangle);
        g.bvhL1Accesses = n.l1Accesses + t.l1Accesses;
        g.bvhL1Misses = n.l1Misses + t.l1Misses;
        g.bvhL2Accesses = n.l2Accesses + t.l2Accesses;
        g.bvhL2Misses = n.l2Misses + t.l2Misses;
        MemClassStats total = mem_.totalStats();
        g.dramReadBytes = total.dramReadBytes;
        g.dramWriteBytes = total.dramWriteBytes;
        telem_->pushGpuSample(g);
    }
    telem_->commit();
}

RunStats
Gpu::run()
{
    if (ran_)
        throw std::logic_error("Gpu::run() may only be called once");
    if (samp_.active)
        throw std::logic_error(
            "Gpu::run(): restored snapshot belongs to a sampled run; "
            "resume with runSampled() under the same TRT_SAMPLE_* "
            "parameters");
    ran_ = true;

    // A restored run continues from the captured boundary: the saved
    // state already reflects the servicePass that closed that cycle
    // (and its restored telemetry already holds this phase marker).
    if (!restored_) {
        if (telem_)
            telem_->gpuChannel().event(lastNow_,
                                       TelemEventKind::PhaseBegin,
                                       uint64_t(TelemPhase::Detailed));
        servicePass(lastNow_);
    }
    if (snapPolicy_.everyCycles != 0)
        nextSnapshotAt_ = (lastNow_ / snapPolicy_.everyCycles + 1) *
                          snapPolicy_.everyCycles;

    detailedLoop(kNoEvent);
    finalizeStats();
    return run_;
}

bool
Gpu::detailedLoop(uint64_t stopAtCycle)
{
    uint64_t now = lastNow_;
    uint64_t same_cycle_iters = 0;
    uint64_t last_now = ~0ull;

    while (ctasFinished_ < ctas_.size()) {
        uint64_t next = kNoEvent;
        if (!events_.empty())
            next = events_.top().cycle;
        for (uint64_t ev : rtNextEvent_)
            next = std::min(next, ev);
        if (next == kNoEvent) {
            throw std::logic_error(
                "simulation deadlock: no pending events but " +
                std::to_string(ctas_.size() - ctasFinished_) +
                " CTAs unfinished\n" + simStateDump(now));
        }

        now = std::max(now, next);
        if (now == last_now) {
            if (++same_cycle_iters > 100000)
                throw std::logic_error("simulation livelock at cycle " +
                                       std::to_string(now) + "\n" +
                                       simStateDump(now));
        } else {
            same_cycle_iters = 0;
            last_now = now;
        }
        lastNow_ = now;

        while (!events_.empty() && events_.top().cycle <= now) {
            Event ev = events_.top();
            events_.pop();
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
        }

        // Tick due SMs. Ticks are mutually independent once memory
        // traffic is deferred (two-phase protocol, memsys.hh), so they
        // may run on worker threads; commitIssuePhase() then resolves
        // all recorded requests in (sm, seq) order — exactly what the
        // old serial SM loop produced — and the buffered completions
        // drain in the same SM order. RunStats is bit-identical at any
        // thread count.
        tickList_.clear();
        for (uint32_t s = 0; s < cfg_.numSms; s++)
            if (rtNextEvent_[s] <= now)
                tickList_.push_back(s);

        if (!tickList_.empty()) {
            mem_.beginIssuePhase();
            inTickPhase_ = true;
            if (pool_) {
                pool_->run(uint32_t(tickList_.size()),
                           [this, now](uint32_t i) {
                               rtUnits_[tickList_[i]]->tick(now);
                           });
            } else {
                for (uint32_t s : tickList_)
                    rtUnits_[s]->tick(now);
            }
            mem_.commitIssuePhase();
            for (uint32_t s : tickList_)
                rtUnits_[s]->onMemCommit(now);
            inTickPhase_ = false;
            for (uint32_t s : tickList_) {
                for (auto &d : pendingDone_[s])
                    onWarpTraceDone(now, d.token, std::move(d.hits));
                pendingDone_[s].clear();
            }
            for (uint32_t s : tickList_)
                refreshRtEvent(s);
        }
        servicePass(now);

        // Shared-predictor commit: apply the trainings the tick phase
        // buffered, in SM order — lookups see them from the next cycle
        // on, identically at any thread count.
        if (sharedPredict_)
            sharedPredict_->flush();

        // Serial commit boundary: every transient is quiescent here,
        // the only legal capture point (DESIGN.md §7) and the only
        // legal telemetry merge point (DESIGN.md §12). Telemetry first,
        // so a snapshot serializes fully drained channels.
        if (telem_)
            telemCommit(now);
        if (snapPolicy_.captureEnabled())
            maybeSnapshot(now);
        if (now >= stopAtCycle)
            return false;
        // Fixed-work measured intervals (sampled mode): close the
        // interval once the target number of CTAs has retired.
        if (samp_.workEndTarget != 0 &&
            ctasFinished_ >= samp_.workEndTarget)
            return false;
        // Condition-based warm-up end (sampled mode): the fast-forward
        // drain emptied the RT units; measurement may start once their
        // ray population has rebuilt to the pre-drain level (and the
        // respread window has passed).
        if (samp_.backlogTarget != 0 && now >= samp_.warmupMinCycle &&
            rtBacklog() >= samp_.backlogTarget)
            return false;
        // The backlog can never rebuild once the machine enters its
        // final wave; stop warming up and let the exact tail run.
        if (samp_.backlogTarget != 0 && inFinalWave())
            return false;
    }
    return true;
}

void
Gpu::finalizeStats()
{
    // Final tick so trailing intervals are accounted.
    for (uint32_t s = 0; s < cfg_.numSms; s++)
        rtUnits_[s]->tick(lastNow_);

    run_.cycles = lastNow_;
    for (const auto &u : rtUnits_)
        run_.rt.accumulate(u->stats());
    for (size_t c = 0; c < run_.mem.size(); c++)
        run_.mem[c] = mem_.classStats(MemClass(c));

    // Drain whatever the final ticks staged and close the GPU series at
    // the last cycle, then write the trace files. This is the only
    // write site: a halted (snapshot-resume) run leaves no partial
    // file, and the resumed run emits the complete streams it restored
    // plus its own.
    if (telem_) {
        telemCommit(lastNow_, true);
        telem_->writeFiles();
    }
}

} // namespace trt
