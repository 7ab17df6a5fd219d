#include "telemetry/telemetry.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/env.hh"

namespace trt
{

namespace
{

constexpr uint32_t kBinMagic = 0x54545254u; // 'TRTT'
constexpr uint32_t kBinVersion = 1;
/** readBinary's bound on the SM count, which sizes its channels. */
constexpr uint32_t kMaxBinSms = 1u << 16;

} // anonymous namespace

const char *
telemEventKindName(TelemEventKind k)
{
    switch (k) {
      case TelemEventKind::WarpFormed:
        return "warp_formed";
      case TelemEventKind::TreeletSwitch:
        return "treelet_switch";
      case TelemEventKind::QueueDrained:
        return "queue_drained";
      case TelemEventKind::QueueOverflow:
        return "queue_overflow";
      case TelemEventKind::SpeculationVerdict:
        return "spec_verdict";
      case TelemEventKind::PrefetchIssue:
        return "prefetch_issue";
      case TelemEventKind::TreeletPhaseEntered:
        return "treelet_phase_entered";
      case TelemEventKind::SnapshotCapture:
        return "snapshot_capture";
      case TelemEventKind::PhaseBegin:
        return "phase_begin";
      default:
        return "unknown";
    }
}

const char *
telemPhaseName(TelemPhase p)
{
    switch (p) {
      case TelemPhase::Detailed:
        return "detailed";
      case TelemPhase::Measure:
        return "measure";
      case TelemPhase::FastForward:
        return "fast_forward";
      case TelemPhase::Warmup:
        return "warmup";
      default:
        return "unknown";
    }
}

TelemetryConfig
TelemetryConfig::fromEnv()
{
    TelemetryConfig c;
    c.enabled = envFlag("TRT_TELEM", false);
    c.trace = envFlag("TRT_TELEM_TRACE", false);
    // Tracing implies sampling: a trace without the counter series
    // would render empty tracks in Perfetto, and every documented
    // workflow wants both.
    if (c.trace)
        c.enabled = true;
    c.everyCycles = envUInt("TRT_TELEM_EVERY", c.everyCycles);
    if (c.everyCycles == 0)
        throw EnvError("TRT_TELEM_EVERY: must be > 0");
    c.outDir = envString("TRT_TELEM_OUT", c.outDir);
    return c;
}

Telemetry::Telemetry(const TelemetryConfig &cfg, uint32_t num_sms)
    : cfg_(cfg), numSms_(num_sms), channels_(num_sms + 1)
{
    for (uint32_t i = 0; i < num_sms + 1; i++) {
        TelemChannel &ch = channels_[i];
        ch.sm = i;
        ch.samplingOn = cfg_.enabled;
        ch.eventsOn = cfg_.trace;
        ch.every = cfg_.everyCycles;
        ch.nextSampleAt = 0;
    }
    // The gpu track never self-samples; the Gpu pushes its samples
    // directly at the commit boundary.
    channels_[num_sms].samplingOn = false;
}

void
Telemetry::commit()
{
    for (TelemChannel &ch : channels_) {
        if (!ch.samples.empty()) {
            samples_.insert(samples_.end(), ch.samples.begin(),
                            ch.samples.end());
            ch.samples.clear();
        }
        if (!ch.events.empty()) {
            events_.insert(events_.end(), ch.events.begin(),
                           ch.events.end());
            ch.events.clear();
        }
    }
}

std::string
Telemetry::binPath() const
{
    std::string base = cfg_.outBase.empty() ? "telem" : cfg_.outBase;
    return cfg_.outDir + "/" + base + ".tsbin";
}

std::string
Telemetry::jsonPath() const
{
    std::string base = cfg_.outBase.empty() ? "telem" : cfg_.outBase;
    return cfg_.outDir + "/" + base + ".trace.json";
}

void
Telemetry::writeFiles() const
{
    std::filesystem::create_directories(cfg_.outDir);
    writeBinary(binPath());
    if (cfg_.trace)
        writeJson(jsonPath());
}

void
Telemetry::writeBinary(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("telemetry: cannot write " + path);

    Serializer s(os);
    s.u32(kBinMagic);
    s.u32(kBinVersion);
    s.u64(cfg_.everyCycles);
    s.u32(numSms_);
    s.b(cfg_.trace);
    saveStreams(s);
}

Telemetry
Telemetry::readBinary(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("telemetry: cannot read " + path);

    Deserializer d(is);
    if (d.u32() != kBinMagic)
        throw SnapshotError("telemetry: " + path + " is not a .tsbin file");
    if (d.u32() != kBinVersion)
        throw SnapshotError("telemetry: " + path + ": unknown version");
    TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.everyCycles = d.u64();
    uint32_t num_sms = d.u32();
    cfg.trace = d.b();
    if (cfg.everyCycles == 0 || num_sms > kMaxBinSms)
        throw SnapshotError("telemetry: " + path + ": bad header");
    Telemetry t(cfg, num_sms);
    t.loadStreams(d);
    if (!d.atEnd())
        throw SnapshotError("telemetry: " + path + ": trailing bytes");
    return t;
}

void
Telemetry::writeJson(const std::string &path) const
{
    // Hand-rolled, integer-only JSON: byte determinism is part of the
    // format contract (the CI/test matrix byte-compares traces across
    // thread counts), so no floats, no locale, no wall-clock.
    std::ostringstream js;
    js << "{\"traceEvents\":[\n";
    bool first = true;
    auto emit = [&](const std::string &line) {
        if (!first)
            js << ",\n";
        first = false;
        js << line;
    };

    // Track metadata: one thread per SM plus the gpu track, sorted in
    // SM order.
    emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"trt-sim\"}}");
    for (uint32_t sm = 0; sm <= numSms_; sm++) {
        std::ostringstream m;
        std::string tname =
            sm == numSms_ ? std::string("gpu")
                          : "SM" + std::to_string(sm);
        m << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
          << sm << ",\"args\":{\"name\":\"" << tname << "\"}}";
        emit(m.str());
        std::ostringstream so;
        so << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << sm << ",\"args\":{\"sort_index\":" << sm
           << "}}";
        emit(so.str());
    }

    // Per-SM counter tracks from the time series. Cumulative fields
    // are differentiated against the SM's previous sample so the
    // tracks read as per-interval rates.
    std::vector<TelemSample> prev(numSms_ + 1);
    for (const TelemSample &s : samples_) {
        const TelemSample &p = prev[s.sm];
        std::ostringstream c;
        c << "{\"name\":\"occupancy\",\"ph\":\"C\",\"ts\":" << s.cycle
          << ",\"pid\":0,\"tid\":" << s.sm << ",\"args\":{\"rays\":"
          << s.raysHeld << "}}";
        emit(c.str());
        std::ostringstream q;
        q << "{\"name\":\"queueDepth\",\"ph\":\"C\",\"ts\":" << s.cycle
          << ",\"pid\":0,\"tid\":" << s.sm << ",\"args\":{"
          << "\"q0\":" << s.queueDepth[0] << ",\"q1\":"
          << s.queueDepth[1] << ",\"q2\":" << s.queueDepth[2]
          << ",\"q3\":" << s.queueDepth[3] << ",\"rest\":"
          << (s.queuedRays - std::min(s.queuedRays,
                                      s.queueDepth[0] + s.queueDepth[1] +
                                          s.queueDepth[2] +
                                          s.queueDepth[3]))
          << "}}";
        emit(q.str());
        std::ostringstream qc;
        qc << "{\"name\":\"liveQueues\",\"ph\":\"C\",\"ts\":" << s.cycle
           << ",\"pid\":0,\"tid\":" << s.sm << ",\"args\":{\"queues\":"
           << s.queueCount << "}}";
        emit(qc.str());
        std::ostringstream w;
        w << "{\"name\":\"work\",\"ph\":\"C\",\"ts\":" << s.cycle
          << ",\"pid\":0,\"tid\":" << s.sm << ",\"args\":{"
          << "\"treeletSwitches\":" << (s.treeletSwitches -
                                        p.treeletSwitches)
          << ",\"nodeVisits\":" << (s.nodeVisits - p.nodeVisits)
          << ",\"raysCompleted\":" << (s.raysCompleted - p.raysCompleted)
          << "}}";
        emit(w.str());
        uint64_t dLook = s.predictLookups - p.predictLookups;
        if (dLook) {
            uint64_t dHit = s.predictHits - p.predictHits;
            std::ostringstream pr;
            pr << "{\"name\":\"predictHitRate\",\"ph\":\"C\",\"ts\":"
               << s.cycle << ",\"pid\":0,\"tid\":" << s.sm
               << ",\"args\":{\"pct\":" << (100 * dHit / dLook) << "}}";
            emit(pr.str());
        }
        prev[s.sm] = s;
    }

    // GPU-level memory counters, differentiated the same way.
    TelemGpuSample gprev;
    for (const TelemGpuSample &s : gpuSamples_) {
        std::ostringstream l1;
        l1 << "{\"name\":\"bvhL1\",\"ph\":\"C\",\"ts\":" << s.cycle
           << ",\"pid\":0,\"tid\":" << numSms_ << ",\"args\":{"
           << "\"accesses\":" << (s.bvhL1Accesses - gprev.bvhL1Accesses)
           << ",\"misses\":" << (s.bvhL1Misses - gprev.bvhL1Misses)
           << "}}";
        emit(l1.str());
        std::ostringstream l2;
        l2 << "{\"name\":\"bvhL2\",\"ph\":\"C\",\"ts\":" << s.cycle
           << ",\"pid\":0,\"tid\":" << numSms_ << ",\"args\":{"
           << "\"accesses\":" << (s.bvhL2Accesses - gprev.bvhL2Accesses)
           << ",\"misses\":" << (s.bvhL2Misses - gprev.bvhL2Misses)
           << "}}";
        emit(l2.str());
        std::ostringstream dr;
        dr << "{\"name\":\"dramBytes\",\"ph\":\"C\",\"ts\":" << s.cycle
           << ",\"pid\":0,\"tid\":" << numSms_ << ",\"args\":{"
           << "\"read\":" << (s.dramReadBytes - gprev.dramReadBytes)
           << ",\"write\":" << (s.dramWriteBytes - gprev.dramWriteBytes)
           << "}}";
        emit(dr.str());
        gprev = s;
    }

    // Events. PhaseBegin markers on the gpu track are turned into
    // begin/end duration pairs here (pairing at export time cannot
    // leave an unbalanced B dangling mid-stream); everything else is
    // an instant on its SM's track.
    bool phaseOpen = false;
    uint64_t lastCycle = 0;
    for (const TelemEvent &e : events_) {
        lastCycle = std::max(lastCycle, e.cycle);
        if (e.kind == TelemEventKind::PhaseBegin) {
            if (phaseOpen) {
                std::ostringstream pe;
                pe << "{\"ph\":\"E\",\"ts\":" << e.cycle
                   << ",\"pid\":0,\"tid\":" << numSms_ << "}";
                emit(pe.str());
            }
            std::ostringstream pb;
            pb << "{\"name\":\""
               << telemPhaseName(TelemPhase(uint8_t(e.a0)))
               << "\",\"ph\":\"B\",\"ts\":" << e.cycle
               << ",\"pid\":0,\"tid\":" << numSms_ << "}";
            emit(pb.str());
            phaseOpen = true;
            continue;
        }
        std::ostringstream ev;
        ev << "{\"name\":\"" << telemEventKindName(e.kind)
           << "\",\"ph\":\"i\",\"ts\":" << e.cycle
           << ",\"pid\":0,\"tid\":" << e.sm << ",\"s\":\"t\","
           << "\"args\":{\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << "}}";
        emit(ev.str());
    }
    for (const TelemSample &s : samples_)
        lastCycle = std::max(lastCycle, s.cycle);
    if (phaseOpen) {
        std::ostringstream pe;
        pe << "{\"ph\":\"E\",\"ts\":" << lastCycle
           << ",\"pid\":0,\"tid\":" << numSms_ << "}";
        emit(pe.str());
    }

    js << "\n]}\n";

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("telemetry: cannot write " + path);
    os << js.str();
}

void
Telemetry::recentDump(std::ostream &os, size_t per_sm) const
{
    os << "telemetry: last " << per_sm
       << " samples per SM (cycle: rays queued queues switches)\n";
    for (uint32_t sm = 0; sm < numSms_; sm++) {
        std::vector<const TelemSample *> recent;
        for (size_t i = samples_.size(); i-- > 0 &&
                                         recent.size() < per_sm;) {
            if (samples_[i].sm == sm)
                recent.push_back(&samples_[i]);
        }
        os << "  sm" << sm << ":";
        if (recent.empty()) {
            os << " (no samples)\n";
            continue;
        }
        for (size_t i = recent.size(); i-- > 0;) {
            const TelemSample &s = *recent[i];
            os << "  " << s.cycle << ": " << s.raysHeld << " "
               << s.queuedRays << " " << s.queueCount << " "
               << s.treeletSwitches;
        }
        os << "\n";
    }
}

void
Telemetry::saveStreams(Serializer &s) const
{
    s.u64(samples_.size());
    for (const TelemSample &sm : samples_) {
        s.u64(sm.cycle);
        s.u32(sm.sm);
        s.u32(sm.raysHeld);
        s.u32(sm.queuedRays);
        s.u32(sm.queueCount);
        for (uint32_t d : sm.queueDepth)
            s.u32(d);
        s.u64(sm.treeletSwitches);
        s.u64(sm.predictLookups);
        s.u64(sm.predictHits);
        s.u64(sm.nodeVisits);
        s.u64(sm.raysCompleted);
    }
    s.u64(gpuSamples_.size());
    for (const TelemGpuSample &g : gpuSamples_) {
        s.u64(g.cycle);
        s.u64(g.bvhL1Accesses);
        s.u64(g.bvhL1Misses);
        s.u64(g.bvhL2Accesses);
        s.u64(g.bvhL2Misses);
        s.u64(g.dramReadBytes);
        s.u64(g.dramWriteBytes);
    }
    s.u64(events_.size());
    for (const TelemEvent &e : events_) {
        s.u64(e.cycle);
        s.u32(e.sm);
        s.u8(uint8_t(e.kind));
        s.u64(e.a0);
        s.u64(e.a1);
    }
}

void
Telemetry::loadStreams(Deserializer &d)
{
    samples_.clear();
    gpuSamples_.clear();
    events_.clear();
    // Each count is bounded by its elements' encoded size.
    uint64_t n = d.count(6 * 8 + 4 * 4 + sizeof(TelemSample::queueDepth));
    samples_.reserve(n);
    for (uint64_t i = 0; i < n; i++) {
        TelemSample sm;
        sm.cycle = d.u64();
        sm.sm = d.u32();
        sm.raysHeld = d.u32();
        sm.queuedRays = d.u32();
        sm.queueCount = d.u32();
        for (uint32_t &dep : sm.queueDepth)
            dep = d.u32();
        sm.treeletSwitches = d.u64();
        sm.predictLookups = d.u64();
        sm.predictHits = d.u64();
        sm.nodeVisits = d.u64();
        sm.raysCompleted = d.u64();
        samples_.push_back(sm);
    }
    n = d.count(7 * 8);
    gpuSamples_.reserve(n);
    for (uint64_t i = 0; i < n; i++) {
        TelemGpuSample g;
        g.cycle = d.u64();
        g.bvhL1Accesses = d.u64();
        g.bvhL1Misses = d.u64();
        g.bvhL2Accesses = d.u64();
        g.bvhL2Misses = d.u64();
        g.dramReadBytes = d.u64();
        g.dramWriteBytes = d.u64();
        gpuSamples_.push_back(g);
    }
    n = d.count(8 + 4 + 1 + 8 + 8);
    events_.reserve(n);
    for (uint64_t i = 0; i < n; i++) {
        TelemEvent e;
        e.cycle = d.u64();
        e.sm = d.u32();
        uint8_t kind = d.u8();
        if (kind >= uint8_t(TelemEventKind::NumKinds))
            throw SnapshotError("telemetry: bad event kind");
        e.kind = TelemEventKind(kind);
        e.a0 = d.u64();
        e.a1 = d.u64();
        events_.push_back(e);
    }
}

void
Telemetry::saveState(Serializer &s) const
{
    s.beginChunk("TELM");
    s.u32(numSms_);
    s.u64(nextGpuSampleAt_);
    for (const TelemChannel &ch : channels_) {
        // commit() must precede saveState; staged data would vanish.
        if (!ch.samples.empty() || !ch.events.empty())
            throw SnapshotError("telemetry: channel not drained before "
                                "snapshot");
        s.u64(ch.nextSampleAt);
    }
    saveStreams(s);
    s.endChunk();
}

void
Telemetry::loadState(Deserializer &d)
{
    d.beginChunk("TELM");
    if (d.u32() != numSms_)
        throw SnapshotError("telemetry: SM count mismatch");
    nextGpuSampleAt_ = d.u64();
    for (TelemChannel &ch : channels_) {
        ch.nextSampleAt = d.u64();
        ch.samples.clear();
        ch.events.clear();
    }
    loadStreams(d);
    d.endChunk();
}

std::vector<double>
bvhL1MissSeries(const std::vector<TelemGpuSample> &samples, size_t buckets)
{
    std::vector<double> out;
    if (buckets == 0 || samples.empty())
        return out;
    // The first sample is taken at the first commit, so window i runs
    // from samples[i] to samples[i + 1], and the first window also
    // takes what came before samples[0]. The counters are cumulative:
    // windows [s, e) hold samples[e] minus samples[s] (zero for s = 0).
    const size_t n = std::max<size_t>(samples.size() - 1, 1);
    out.reserve(buckets);
    double per = double(n) / double(buckets);
    for (size_t b = 0; b < buckets; b++) {
        size_t s = static_cast<size_t>(double(b) * per);
        size_t e = std::max(s + 1, static_cast<size_t>(double(b + 1) * per));
        e = std::min(e, n);
        const TelemGpuSample &last = samples[std::min(e, samples.size() - 1)];
        uint64_t acc = last.bvhL1Accesses;
        uint64_t miss = last.bvhL1Misses;
        if (s > 0) {
            acc -= samples[s].bvhL1Accesses;
            miss -= samples[s].bvhL1Misses;
        }
        out.push_back(acc ? double(miss) / double(acc) : 0.0);
    }
    return out;
}

} // namespace trt
