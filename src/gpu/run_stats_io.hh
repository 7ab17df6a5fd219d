/**
 * @file
 * Versioned binary serialization of RunStats, used by the harness run
 * cache (.trt_cache/runs/) to memoize cycle-level simulations across
 * bench invocations.
 */

#ifndef TRT_GPU_RUN_STATS_IO_HH
#define TRT_GPU_RUN_STATS_IO_HH

#include <iosfwd>

#include "gpu/gpu.hh"

namespace trt
{

class Serializer;
class Deserializer;

struct RunStatsIo
{
    /** Bump on any RunStats/RtStats/MemClassStats layout change. */
    static constexpr uint32_t kVersion = 5; //!< v5: counters only (no
                                            //!< stored miss rate/series)

    static void save(std::ostream &os, const RunStats &st);
    static void save(Serializer &s, const RunStats &st);

    /** Returns false (leaving @p st unspecified) on magic/version
     *  mismatch, truncation, a bad length prefix or trailing bytes (the
     *  blob must end the input). */
    static bool load(std::istream &is, RunStats &st);
    static bool load(Deserializer &d, RunStats &st);

    /**
     * FNV-1a over the serialized bytes of @p st: covers every field
     * save() covers (cycles, framebuffer, all counters, primary hits,
     * sampling summary),
     * with no padding leakage. Used by the determinism tests and CI to
     * compare runs across TRT_SIM_THREADS settings.
     */
    static uint64_t fingerprint(const RunStats &st);
};

} // namespace trt

#endif // TRT_GPU_RUN_STATS_IO_HH
