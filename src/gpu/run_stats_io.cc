#include "gpu/run_stats_io.hh"

#include "geom/hash.hh"
#include "snapshot/serializer.hh"
#include "telemetry/counter_registry.hh"

namespace trt
{

namespace
{

constexpr uint32_t kMagic = 0x54525452u; // 'TRTR'

} // anonymous namespace

void
RunStatsIo::save(std::ostream &os, const RunStats &st)
{
    Serializer s(os);
    save(s, st);
}

void
RunStatsIo::save(Serializer &s, const RunStats &st)
{
    s.u32(kMagic);
    s.u32(kVersion);

    s.u64(st.cycles);
    s.vecPod(st.framebuffer);
    // Every scalar counter (RT, per-class memory, GPU-level) in
    // registry order, field by field, so that uninitialized padding
    // between the uint32 high-water fields never reaches the blob:
    // cache blobs stay byte-deterministic, and every registered counter
    // round-trips by construction (v4; telemetry/counter_registry.hh).
    // MemClassStats stays all-uint64 so the per-field walk writes the
    // same bytes a whole-struct write would.
    static_assert(sizeof(MemClassStats) == 8 * sizeof(uint64_t));
    forEachRunCounter(st, [&](const CounterInfo &, const auto &v) {
        s.pod(v);
    });
    s.vecPod(st.primaryHits);

    // v2: sampled-run summary (all zeros for full runs).
    s.b(st.sampled.enabled);
    s.pod(st.sampled.intervals);
    s.pod(st.sampled.measuredCycles);
    s.pod(st.sampled.measuredRounds);
    s.pod(st.sampled.totalRays);
    s.pod(st.sampled.ffRays);
    s.pod(st.sampled.cyclesCi95);
    s.vecPod(st.sampled.counterCi95);
}

bool
RunStatsIo::load(std::istream &is, RunStats &st)
{
    Deserializer d(is);
    return load(d, st);
}

bool
RunStatsIo::load(Deserializer &d, RunStats &st)
{
    try {
        if (d.u32() != kMagic || d.u32() != kVersion)
            return false;
        st.cycles = d.u64();
        st.framebuffer = d.vecPod<Vec3>();
        forEachRunCounter(st, [&](const CounterInfo &, auto &v) {
            v = d.pod<std::remove_reference_t<decltype(v)>>();
        });
        st.primaryHits = d.vecPod<HitRecord>();

        st.sampled.enabled = d.b();
        st.sampled.intervals = d.pod<decltype(st.sampled.intervals)>();
        st.sampled.measuredCycles = d.u64();
        st.sampled.measuredRounds = d.u64();
        st.sampled.totalRays = d.u64();
        st.sampled.ffRays = d.u64();
        st.sampled.cyclesCi95 = d.pod<double>();
        st.sampled.counterCi95 = d.vecPod<double>();
    } catch (const SnapshotError &) {
        return false;
    }
    // The blob must end exactly here; trailing bytes mean a schema skew
    // that kVersion failed to catch.
    return d.atEnd();
}

uint64_t
RunStatsIo::fingerprint(const RunStats &st)
{
    // Hash the exact serialized form: anything save() covers is covered
    // here, and padding can never leak in (save() writes field by
    // field).
    Serializer s;
    save(s, st);
    Fnv1a h;
    h.bytes(s.bytes().data(), s.bytes().size());
    return h.value();
}

} // namespace trt
