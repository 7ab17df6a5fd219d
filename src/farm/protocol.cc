#include "farm/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>

#include <unistd.h>

#include "gpu/run_stats_io.hh"
#include "snapshot/serializer.hh"
#include "util/env.hh"

namespace trt
{

namespace
{

constexpr size_t kHeaderBytes = 16; //!< u32 magic, u32 type, u64 length

/** Payloads are RunStats blobs at most (a few MB for a framebuffer);
 *  anything larger is a corrupt length from a torn stream. */
constexpr uint64_t kMaxPayload = 1ull << 30;

bool
writeAll(int fd, const char *data, size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= size_t(n);
    }
    return true;
}

std::string
bytesOf(const Serializer &s)
{
    return std::string(s.bytes().begin(), s.bytes().end());
}

} // anonymous namespace

bool
writeFrame(int fd, FarmMsg type, const std::string &payload)
{
    Serializer h;
    h.u32(kFarmMagic);
    h.u32(uint32_t(type));
    h.u64(payload.size());
    std::string head = bytesOf(h);
    return writeAll(fd, head.data(), head.size()) &&
           writeAll(fd, payload.data(), payload.size());
}

int
FrameReader::pump(int fd)
{
    char chunk[65536];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
        buf_.append(chunk, size_t(n));
        return int(std::min<ssize_t>(n, INT32_MAX));
    }
    if (n == 0)
        return -1; // EOF: peer closed (or died).
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        return 0;
    return -1;
}

bool
FrameReader::next(FarmMsg &type, std::string &payload)
{
    if (buf_.size() < kHeaderBytes)
        return false;
    Deserializer h(buf_);
    uint32_t magic = h.u32();
    uint32_t msg = h.u32();
    uint64_t length = h.u64();
    if (magic != kFarmMagic || length > kMaxPayload)
        throw EnvError("farm protocol: corrupt frame header");
    if (buf_.size() < kHeaderBytes + length)
        return false;
    type = FarmMsg(msg);
    payload.assign(buf_, kHeaderBytes, length);
    buf_.erase(0, kHeaderBytes + length);
    return true;
}

// ---- payload encode/decode -------------------------------------------

// A u8 flag travels as the low byte of a u64 (its 7 pad bytes zero),
// so every head field is a u64.

std::string
encodeJob(uint64_t index, const JobSpec &spec, bool resume)
{
    Serializer s;
    s.u64(index);
    s.u64(resume ? 1 : 0);
    return bytesOf(s) + spec.serialize();
}

void
decodeJob(const std::string &payload, uint64_t &index, JobSpec &spec,
          bool &resume)
{
    if (payload.size() < 16)
        throw EnvError("farm protocol: truncated Job payload");
    Deserializer d(payload);
    index = d.u64();
    resume = d.u64() != 0;
    spec = JobSpec::deserialize(payload.substr(16), "farm job");
}

std::string
encodeResult(uint64_t index, const JobOutcome &out)
{
    Serializer s;
    s.u64(index);
    s.u64(out.fingerprint);
    s.u64(out.wallMs);
    s.u64(out.cacheHit ? 1 : 0);
    RunStatsIo::save(s, out.stats);
    return bytesOf(s);
}

bool
decodeResult(const std::string &payload, uint64_t &index, JobOutcome &out)
{
    if (payload.size() < 32)
        return false;
    Deserializer d(payload);
    index = d.u64();
    out.fingerprint = d.u64();
    out.wallMs = d.u64();
    out.cacheHit = d.u64() != 0;
    return RunStatsIo::load(d, out.stats);
}

std::string
encodeError(uint64_t index, const std::string &message)
{
    return encodeHeartbeat(index) + message;
}

void
decodeError(const std::string &payload, uint64_t &index,
            std::string &message)
{
    if (!decodeHeartbeat(payload, index))
        throw EnvError("farm protocol: truncated Error payload");
    message = payload.substr(8);
}

std::string
encodeHeartbeat(uint64_t index)
{
    Serializer s;
    s.u64(index);
    return bytesOf(s);
}

bool
decodeHeartbeat(const std::string &payload, uint64_t &index)
{
    if (payload.size() < 8)
        return false;
    index = Deserializer(payload).u64();
    return true;
}

} // namespace trt
