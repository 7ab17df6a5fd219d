/**
 * @file
 * Snapshot files: atomic on-disk capture of a full simulator state at
 * a cycle boundary, keyed by the same GpuConfig+BvhConfig+scene
 * fingerprint the run cache uses so a stale snapshot can never resume
 * against the wrong world (DESIGN.md §7).
 *
 * File layout (little-endian, encoded by the shared codec):
 *
 *   [0]  u32 magic   'TRTS'
 *   [4]  u32 version kSnapshotVersion
 *   [8]  u64 worldFp runFingerprint(cfg, scene, scale)
 *   [16] u64 cycle   capture cycle (== Gpu lastNow_)
 *   [24] u64 bytes   payload size
 *   [32] u32 crc     CRC-32 of the payload
 *   [36] u32 hcrc    CRC-32 of bytes [0, 36)
 *   [40] payload     Serializer stream of nested chunks
 *
 * Writes are temp-file + rename so a crash mid-write never leaves a
 * half snapshot under the final name; reads reject bad magic/version,
 * mismatched fingerprints, truncation and CRC failures with a
 * SnapshotError the caller turns into a cold-run fallback.
 */

#ifndef TRT_SNAPSHOT_SNAPSHOT_HH
#define TRT_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "snapshot/serializer.hh"

namespace trt
{

/** Bump on any incompatible change to the payload schema. Old
 *  snapshots are rejected (and fall back to a cold run), never
 *  migrated — they are caches, not archives. */
constexpr uint32_t kSnapshotVersion = 7; //!< v7: MSYS without the
                                         //!< Fig. 11 windowed series

/** Thrown out of Gpu::run when SnapshotPolicy::haltAtCycle fires: the
 *  deterministic stand-in for a crash/preemption, used by tests and
 *  the CI crash-resume job. The snapshot has already been written. */
class SimulationHalted : public std::runtime_error
{
  public:
    SimulationHalted(uint64_t cycle, std::string path)
        : std::runtime_error("simulation halted at cycle " +
                             std::to_string(cycle) + " after snapshot " +
                             path),
          cycle(cycle), snapshotPath(std::move(path))
    {
    }

    uint64_t cycle;
    std::string snapshotPath;
};

/** When/where Gpu::run captures snapshots. Default-constructed =
 *  disabled (a single predictable-false branch per simulated cycle
 *  boundary). */
struct SnapshotPolicy
{
    /** Capture every N simulated cycles; 0 disables capture. */
    uint64_t everyCycles = 0;
    /** If nonzero: capture at the first boundary >= this cycle, then
     *  throw SimulationHalted. */
    uint64_t haltAtCycle = 0;
    /** Snapshot directory (created on first write). */
    std::string dir = ".trt_snapshots";
    /** World identity: runFingerprint(cfg, scene, scale). */
    uint64_t worldFp = 0;
    /** Keep snapshots after a successful run (default: the harness
     *  deletes them once the run completes). */
    bool keep = false;

    bool
    captureEnabled() const
    {
        return everyCycles != 0 || haltAtCycle != 0;
    }

    /** Read TRT_SNAPSHOT_EVERY / TRT_SNAPSHOT_DIR /
     *  TRT_SNAPSHOT_HALT_AT / TRT_SNAPSHOT_KEEP. */
    static SnapshotPolicy fromEnv(uint64_t worldFp);
};

/** File name a snapshot of @p worldFp at @p cycle is stored under. */
std::string snapshotFileName(uint64_t worldFp, uint64_t cycle);

/** Atomically write a snapshot file; returns the final path. Throws
 *  SnapshotError on I/O failure. */
std::filesystem::path writeSnapshotFile(const std::string &dir,
                                        uint64_t worldFp, uint64_t cycle,
                                        const std::vector<uint8_t> &payload);

/** Read and fully validate a snapshot file, returning its payload.
 *  Throws SnapshotError on bad magic/version, fingerprint mismatch,
 *  truncation, or CRC failure. */
std::vector<uint8_t> readSnapshotPayload(const std::filesystem::path &path,
                                         uint64_t expectedWorldFp);

/** Newest (highest-cycle) snapshot of @p worldFp in @p dir that passes
 *  full validation; corrupt candidates are skipped. nullopt when none
 *  survive. */
std::optional<std::filesystem::path>
findNewestValidSnapshot(const std::string &dir, uint64_t worldFp);

/** Delete every snapshot of @p worldFp in @p dir (post-run cleanup).
 *  Returns the number removed; I/O errors are ignored. */
size_t removeSnapshotsFor(const std::string &dir, uint64_t worldFp);

} // namespace trt

#endif // TRT_SNAPSHOT_SNAPSHOT_HH
