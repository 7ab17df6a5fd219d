/**
 * @file
 * The farm's worker protocol: length-prefixed framed messages over
 * anonymous pipes (DESIGN.md §13).
 *
 * Every frame is a 16-byte header — magic 'TRTF', a message type, and
 * the payload length — followed by the payload bytes. The scheduler
 * writes Job frames down a worker's job pipe; the worker answers with
 * Heartbeat frames while simulating and exactly one Result or Error
 * frame per job. A worker that dies mid-job simply truncates the
 * stream: the scheduler sees EOF (or a frame that never completes) and
 * reschedules the job. Framing means a half-written frame from a
 * SIGKILLed worker can never be mistaken for a short-but-valid one.
 *
 * Payloads:
 *   Job:       u64 job index (echoed in replies), u64 resume flag,
 *              then JobSpec::serialize() text.
 *   Result:    u64 job index, u64 run-cache fingerprint the worker
 *              used, u64 wall ms, u64 cache-hit flag, then
 *              RunStatsIo::save() bytes.
 *   Error:     u64 job index + UTF-8 message text.
 *   Heartbeat: u64 job index the worker is currently simulating.
 *   Shutdown:  empty (scheduler → worker; the worker exits cleanly).
 *
 * Headers and payloads are encoded by the shared codec
 * (snapshot/serializer.hh): little-endian, every read bounded by the
 * bytes left. A flag is 0 or 1 in its u64.
 */

#ifndef TRT_FARM_PROTOCOL_HH
#define TRT_FARM_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "harness/job.hh"

namespace trt
{

enum class FarmMsg : uint32_t
{
    Job = 1,
    Result = 2,
    Error = 3,
    Heartbeat = 4,
    Shutdown = 5,
};

constexpr uint32_t kFarmMagic = 0x54525446; // "TRTF"

/**
 * Write one frame (header + payload) to @p fd, retrying short writes
 * and EINTR. Returns false on error (e.g. EPIPE from a dead peer).
 */
bool writeFrame(int fd, FarmMsg type, const std::string &payload);

/**
 * Incremental frame decoder. pump() appends whatever bytes @p fd has
 * ready; next() extracts complete frames. Usable on both blocking
 * (worker) and non-blocking (scheduler) descriptors.
 */
class FrameReader
{
  public:
    /** Read once from @p fd into the buffer.
     *  @return bytes appended (> 0); 0 when nothing is ready right now
     *          (EAGAIN on a non-blocking fd, or EINTR); -1 on EOF or a
     *          read error — the peer is gone. */
    int pump(int fd);

    /** Extract the next complete frame into @p type / @p payload.
     *  Throws EnvError on a corrupt header (bad magic). */
    bool next(FarmMsg &type, std::string &payload);

  private:
    std::string buf_;
};

// ---- payload encode/decode -------------------------------------------

std::string encodeJob(uint64_t index, const JobSpec &spec, bool resume);
/** Throws EnvError on a malformed payload. */
void decodeJob(const std::string &payload, uint64_t &index,
               JobSpec &spec, bool &resume);

std::string encodeResult(uint64_t index, const JobOutcome &out);
/** Returns false on truncated/corrupt RunStats bytes. */
bool decodeResult(const std::string &payload, uint64_t &index,
                  JobOutcome &out);

std::string encodeError(uint64_t index, const std::string &message);
void decodeError(const std::string &payload, uint64_t &index,
                 std::string &message);

std::string encodeHeartbeat(uint64_t index);
bool decodeHeartbeat(const std::string &payload, uint64_t &index);

} // namespace trt

#endif // TRT_FARM_PROTOCOL_HH
