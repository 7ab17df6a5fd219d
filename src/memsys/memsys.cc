#include "memsys/memsys.hh"

#include <algorithm>
#include <cassert>

namespace trt
{

const char *
memClassName(MemClass c)
{
    switch (c) {
      case MemClass::BvhNode:
        return "bvh_node";
      case MemClass::Triangle:
        return "triangle";
      case MemClass::RayData:
        return "ray_data";
      case MemClass::CtaState:
        return "cta_state";
      case MemClass::Shader:
        return "shader";
      case MemClass::QueueTable:
        return "queue_table";
      default:
        return "unknown";
    }
}

MemorySystem::MemorySystem(const MemConfig &cfg)
    : cfg_(cfg),
      l2_(std::max<uint64_t>(cfg.lineBytes * cfg.l2Ways,
                             cfg.l2Bytes - cfg.l2ReservedBytes),
          cfg.l2Ways, cfg.lineBytes),
      dramCyclesPerByte_(1.0 / cfg.dramBytesPerCycle)
{
    l1s_.reserve(cfg.numL1s);
    ports_.reserve(cfg.numL1s);
    for (uint32_t i = 0; i < cfg.numL1s; i++) {
        l1s_.emplace_back(cfg.l1Bytes, cfg.l1Ways, cfg.lineBytes);
        ports_.emplace_back(*this, i);
        // Steady-state capacity so per-tick recording never allocates.
        ports_.back().requests_.reserve(256);
        ports_.back().flags_.reserve(512);
        ports_.back().results_.reserve(256);
    }
    scratchFlags_.reserve(64);
    if (cfg.l2ReservedBytes > 0) {
        // Reserved partition is fully associative: it holds a known
        // working set (ray data) and should not suffer conflict misses.
        l2Reserved_ = std::make_unique<Cache>(cfg.l2ReservedBytes, 0,
                                              cfg.lineBytes);
    }
}

uint64_t
MemorySystem::dramService(uint64_t now, uint32_t bytes, MemClass cls,
                          bool is_write)
{
    auto &st = stats_[size_t(cls)];
    st.dramAccesses++;
    if (is_write)
        st.dramWriteBytes += bytes;
    else
        st.dramReadBytes += bytes;

    uint64_t service =
        std::max<uint64_t>(1, uint64_t(double(bytes) * dramCyclesPerByte_));
    uint64_t start = std::max(now, dramBusyUntil_);
    dramBusyUntil_ = start + service;
    // Completion = queueing delay + array latency + service.
    return start + cfg_.dramLatency + service;
}

void
MemorySystem::notePending(PendingLineTable &map, uint64_t key,
                          uint64_t ready)
{
    map.put(key, ready);
    if (++pendingSweep_ >= 65536) {
        pendingSweep_ = 0;
        // Sweep threshold deliberately stays the just-inserted ready
        // cycle (not "now"): entries completing before this fill does
        // can no longer stall anyone issued after it.
        pendingL1_.clean(ready);
        pendingL2_.clean(ready);
    }
}

uint64_t
MemorySystem::pendingReady(const PendingLineTable &map, uint64_t key,
                           uint64_t now) const
{
    uint64_t ready = map.get(key);
    return ready > now ? ready : 0;
}

uint64_t
MemorySystem::finishLine(uint64_t now, uint32_t sm, uint64_t line_addr,
                         MemClass cls, bool bypass_l1, bool l1_hit)
{
    auto &st = stats_[size_t(cls)];
    uint64_t l1_key = (uint64_t(sm) << 48) | (line_addr & 0xffffffffffffull);

    if (!bypass_l1) {
        st.l1Accesses++;
        if (l1_hit) {
            // If the line's fill is still in flight, wait for it.
            uint64_t pend = pendingReady(pendingL1_, l1_key, now);
            return std::max(now + cfg_.l1HitLatency, pend);
        }
        st.l1Misses++;
    }

    // L2 lookup. Ray data goes to the reserved partition when present.
    Cache *l2 = &l2_;
    if (cls == MemClass::RayData && l2Reserved_)
        l2 = l2Reserved_.get();
    st.l2Accesses++;
    bool l2_hit = l2->access(line_addr);
    uint64_t ready;
    if (l2_hit) {
        uint64_t pend = pendingReady(pendingL2_, line_addr, now);
        ready = std::max(now + cfg_.l2HitLatency, pend);
    } else {
        st.l2Misses++;
        ready = dramService(now + cfg_.l2HitLatency, cfg_.lineBytes, cls,
                            false);
        notePending(pendingL2_, line_addr, ready);
    }
    if (!bypass_l1)
        notePending(pendingL1_, l1_key, ready);
    return ready;
}

void
MemorySystem::issueReadTags(uint32_t sm, uint64_t addr, uint32_t bytes,
                            bool bypass_l1, std::vector<uint8_t> &flags)
{
    if (bypass_l1)
        return;
    uint64_t first = l1s_[sm].lineAddr(addr);
    uint64_t last = l1s_[sm].lineAddr(addr + (bytes ? bytes - 1 : 0));
    for (uint64_t a = first; a <= last; a += cfg_.lineBytes)
        flags.push_back(l1s_[sm].access(a) ? kLineHit : kLineMiss);
}

MemorySystem::Access
MemorySystem::commitRead(uint32_t sm, const SmPort::Request &r,
                         const std::vector<uint8_t> &flags)
{
    Access acc;
    uint64_t first = l1s_[sm].lineAddr(r.addr);
    uint64_t last = l1s_[sm].lineAddr(r.addr + (r.bytes ? r.bytes - 1 : 0));

    // Multi-line requests issue back to back; completion is the max.
    uint64_t ready = r.now;
    uint32_t line = 0;
    for (uint64_t a = first; a <= last; a += cfg_.lineBytes, line++) {
        bool hit = !r.bypassL1 && flags[r.flagOff + line] == kLineHit;
        uint64_t rr = finishLine(r.now + line, sm, a, r.cls, r.bypassL1,
                                 hit);
        ready = std::max(ready, rr);
        if (line == 0) {
            // Report hit levels of the first line (diagnostics only).
            acc.l1Hit = rr <= r.now + cfg_.l1HitLatency;
            acc.l2Hit = rr <= r.now + cfg_.l2HitLatency;
        }
    }
    acc.readyCycle = ready;
    return acc;
}

MemorySystem::Access
MemorySystem::read(uint64_t now, uint32_t sm, uint64_t addr, uint32_t bytes,
                   MemClass cls, bool bypass_l1)
{
    assert(sm < l1s_.size());
    assert(!issuePhase_ && "use port(sm) during an issue phase");
    scratchFlags_.clear();
    issueReadTags(sm, addr, bytes, bypass_l1, scratchFlags_);
    SmPort::Request r;
    r.kind = SmPort::Request::Read;
    r.bypassL1 = bypass_l1;
    r.cls = cls;
    r.bytes = bytes;
    r.now = now;
    r.addr = addr;
    return commitRead(sm, r, scratchFlags_);
}

void
MemorySystem::write(uint64_t now, uint32_t sm, uint64_t addr, uint32_t bytes,
                    MemClass cls)
{
    (void)sm;
    (void)addr;
    auto &st = stats_[size_t(cls)];
    st.writes++;
    // Write-through, no-allocate: consume DRAM bandwidth only. The
    // requester does not wait (stores retire through a write queue).
    dramService(now, bytes, cls, true);
}

void
MemorySystem::issuePrefetchTags(uint32_t sm, uint64_t addr, uint32_t bytes,
                                std::vector<uint8_t> &flags)
{
    uint64_t first = l1s_[sm].lineAddr(addr);
    uint64_t last = l1s_[sm].lineAddr(addr + (bytes ? bytes - 1 : 0));
    for (uint64_t a = first; a <= last; a += cfg_.lineBytes) {
        if (l1s_[sm].probe(a)) {
            flags.push_back(kLineResident);
        } else {
            l1s_[sm].install(a);
            flags.push_back(kLineMiss);
        }
    }
}

uint64_t
MemorySystem::commitPrefetch(uint32_t sm, const SmPort::Request &r,
                             const std::vector<uint8_t> &flags)
{
    uint64_t first = l1s_[sm].lineAddr(r.addr);
    uint64_t last = l1s_[sm].lineAddr(r.addr + (r.bytes ? r.bytes - 1 : 0));

    uint64_t ready = r.now;
    uint32_t line = 0;
    for (uint64_t a = first; a <= last; a += cfg_.lineBytes, line++) {
        uint64_t l1_key = (uint64_t(sm) << 48) | (a & 0xffffffffffffull);
        if (flags[r.flagOff + line] == kLineResident) {
            // Already resident; maybe still in flight from earlier.
            ready = std::max(ready,
                             pendingReady(pendingL1_, l1_key, r.now));
            continue;
        }
        uint64_t rr = finishLine(r.now + line, sm, a, r.cls, false, false);
        notePending(pendingL1_, l1_key, rr);
        ready = std::max(ready, rr);
    }
    return ready;
}

uint64_t
MemorySystem::prefetchL1(uint64_t now, uint32_t sm, uint64_t addr,
                         uint32_t bytes, MemClass cls)
{
    assert(sm < l1s_.size());
    assert(!issuePhase_ && "use port(sm) during an issue phase");
    scratchFlags_.clear();
    issuePrefetchTags(sm, addr, bytes, scratchFlags_);
    SmPort::Request r;
    r.kind = SmPort::Request::Prefetch;
    r.cls = cls;
    r.bytes = bytes;
    r.now = now;
    r.addr = addr;
    return commitPrefetch(sm, r, scratchFlags_);
}

MemTicket
MemorySystem::SmPort::read(uint64_t now, uint64_t addr, uint32_t bytes,
                           MemClass cls, bool bypass_l1,
                           uint64_t *ready_dst)
{
    if (!owner_->issuePhase_) {
        Access a = owner_->read(now, sm_, addr, bytes, cls, bypass_l1);
        if (ready_dst)
            *ready_dst = a.readyCycle;
        results_.push_back(a);
        return MemTicket(results_.size() - 1);
    }
    Request r;
    r.kind = Request::Read;
    r.bypassL1 = bypass_l1;
    r.cls = cls;
    r.bytes = bytes;
    r.now = now;
    r.addr = addr;
    r.flagOff = uint32_t(flags_.size());
    r.readyDst = ready_dst;
    owner_->issueReadTags(sm_, addr, bytes, bypass_l1, flags_);
    requests_.push_back(r);
    return MemTicket(requests_.size() - 1);
}

void
MemorySystem::SmPort::write(uint64_t now, uint64_t addr, uint32_t bytes,
                            MemClass cls)
{
    if (!owner_->issuePhase_) {
        owner_->write(now, sm_, addr, bytes, cls);
        return;
    }
    Request r;
    r.kind = Request::Write;
    r.cls = cls;
    r.bytes = bytes;
    r.now = now;
    r.addr = addr;
    requests_.push_back(r);
}

MemTicket
MemorySystem::SmPort::prefetchL1(uint64_t now, uint64_t addr,
                                 uint32_t bytes, MemClass cls)
{
    if (!owner_->issuePhase_) {
        Access a;
        a.readyCycle = owner_->prefetchL1(now, sm_, addr, bytes, cls);
        results_.push_back(a);
        return MemTicket(results_.size() - 1);
    }
    Request r;
    r.kind = Request::Prefetch;
    r.cls = cls;
    r.bytes = bytes;
    r.now = now;
    r.addr = addr;
    r.flagOff = uint32_t(flags_.size());
    owner_->issuePrefetchTags(sm_, addr, bytes, flags_);
    requests_.push_back(r);
    return MemTicket(requests_.size() - 1);
}

void
MemorySystem::beginIssuePhase()
{
    assert(!issuePhase_);
    issuePhase_ = true;
    for (auto &p : ports_) {
        p.requests_.clear();
        p.flags_.clear();
        p.results_.clear();
    }
}

void
MemorySystem::commitIssuePhase()
{
    assert(issuePhase_);
    issuePhase_ = false;
    // Drain in (sm, seq) order: the exact global order the old serial
    // SM loop produced, so every MSHR merge, L2 eviction and DRAM
    // queueing decision is reproduced bit for bit.
    for (auto &p : ports_) {
        p.results_.reserve(p.requests_.size());
        for (const SmPort::Request &r : p.requests_) {
            Access a;
            switch (r.kind) {
              case SmPort::Request::Read:
                a = commitRead(p.sm_, r, p.flags_);
                break;
              case SmPort::Request::Write:
                write(r.now, p.sm_, r.addr, r.bytes, r.cls);
                break;
              case SmPort::Request::Prefetch:
                a.readyCycle = commitPrefetch(p.sm_, r, p.flags_);
                break;
            }
            if (r.readyDst)
                *r.readyDst = a.readyCycle;
            p.results_.push_back(a);
        }
        p.requests_.clear();
    }
}

bool
MemorySystem::l1Probe(uint32_t sm, uint64_t addr) const
{
    return l1s_[sm].probe(addr);
}

MemClassStats
MemorySystem::totalStats() const
{
    MemClassStats t;
    for (const auto &s : stats_) {
        t.l1Accesses += s.l1Accesses;
        t.l1Misses += s.l1Misses;
        t.l2Accesses += s.l2Accesses;
        t.l2Misses += s.l2Misses;
        t.dramAccesses += s.dramAccesses;
        t.dramReadBytes += s.dramReadBytes;
        t.dramWriteBytes += s.dramWriteBytes;
        t.writes += s.writes;
    }
    return t;
}

void
MemorySystem::saveState(Serializer &s) const
{
    assert(!issuePhase_);
    s.beginChunk("MSYS");
    s.u32(uint32_t(l1s_.size()));
    for (const Cache &c : l1s_)
        c.saveState(s);
    l2_.saveState(s);
    s.b(l2Reserved_ != nullptr);
    if (l2Reserved_)
        l2Reserved_->saveState(s);
    pendingL1_.saveState(s);
    pendingL2_.saveState(s);
    s.u64(pendingSweep_);
    s.u64(dramBusyUntil_);
    for (const MemClassStats &st : stats_) {
        s.u64(st.l1Accesses);
        s.u64(st.l1Misses);
        s.u64(st.l2Accesses);
        s.u64(st.l2Misses);
        s.u64(st.dramAccesses);
        s.u64(st.dramReadBytes);
        s.u64(st.dramWriteBytes);
        s.u64(st.writes);
    }
    s.endChunk();
}

void
MemorySystem::loadState(Deserializer &d)
{
    assert(!issuePhase_);
    d.beginChunk("MSYS");
    if (d.u32() != l1s_.size())
        throw SnapshotError("snapshot: L1 count mismatch");
    for (Cache &c : l1s_)
        c.loadState(d);
    l2_.loadState(d);
    bool has_reserved = d.b();
    if (has_reserved != (l2Reserved_ != nullptr))
        throw SnapshotError("snapshot: reserved-L2 presence mismatch");
    if (l2Reserved_)
        l2Reserved_->loadState(d);
    pendingL1_.loadState(d);
    pendingL2_.loadState(d);
    pendingSweep_ = d.u64();
    dramBusyUntil_ = d.u64();
    for (MemClassStats &st : stats_) {
        st.l1Accesses = d.u64();
        st.l1Misses = d.u64();
        st.l2Accesses = d.u64();
        st.l2Misses = d.u64();
        st.dramAccesses = d.u64();
        st.dramReadBytes = d.u64();
        st.dramWriteBytes = d.u64();
        st.writes = d.u64();
    }
    d.endChunk();
}

} // namespace trt
