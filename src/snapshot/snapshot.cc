#include "snapshot/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/env.hh"

namespace trt
{

namespace
{

constexpr uint32_t kMagic = 0x54525453u; // 'TRTS' (LE "STRT" on disk)

/** Bytes of the file header; its CRC covers the bytes before it. */
constexpr size_t kHeaderBytes = 40;
constexpr size_t kHeaderCrcAt = 36;

std::string
fpHex(uint64_t fp)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)fp);
    return buf;
}

/** Parse "snap_<hexfp>_c<cycle>.trtsnap"; false if not a snapshot of
 *  @p worldFp. */
bool
parseSnapshotName(const std::string &name, uint64_t worldFp,
                  uint64_t &cycleOut)
{
    const std::string prefix = "snap_" + fpHex(worldFp) + "_c";
    const std::string suffix = ".trtsnap";
    if (name.size() <= prefix.size() + suffix.size())
        return false;
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0)
        return false;
    std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty())
        return false;
    uint64_t c = 0;
    for (char ch : digits) {
        if (ch < '0' || ch > '9')
            return false;
        c = c * 10 + uint64_t(ch - '0');
    }
    cycleOut = c;
    return true;
}

} // namespace

SnapshotPolicy
SnapshotPolicy::fromEnv(uint64_t worldFp)
{
    SnapshotPolicy p;
    p.everyCycles = envUInt("TRT_SNAPSHOT_EVERY", 0);
    p.haltAtCycle = envUInt("TRT_SNAPSHOT_HALT_AT", 0);
    p.dir = envString("TRT_SNAPSHOT_DIR", p.dir);
    p.keep = envFlag("TRT_SNAPSHOT_KEEP", false);
    p.worldFp = worldFp;
    return p;
}

std::string
snapshotFileName(uint64_t worldFp, uint64_t cycle)
{
    std::ostringstream ss;
    ss << "snap_" << fpHex(worldFp) << "_c" << cycle << ".trtsnap";
    return ss.str();
}

std::filesystem::path
writeSnapshotFile(const std::string &dir, uint64_t worldFp, uint64_t cycle,
                  const std::vector<uint8_t> &payload)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec); // best effort; open() reports failure

    Serializer h;
    h.u32(kMagic);
    h.u32(kSnapshotVersion);
    h.u64(worldFp);
    h.u64(cycle);
    h.u64(payload.size());
    h.u32(crc32(payload.data(), payload.size()));
    h.u32(crc32(h.bytes().data(), kHeaderCrcAt));

    fs::path final_path = fs::path(dir) / snapshotFileName(worldFp, cycle);
    fs::path tmp_path =
        final_path.string() + ".tmp." + std::to_string(getpid());
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os)
            throw SnapshotError("snapshot: cannot open " +
                                tmp_path.string() + " for writing");
        os.write(reinterpret_cast<const char *>(h.bytes().data()),
                 std::streamsize(kHeaderBytes));
        os.write(reinterpret_cast<const char *>(payload.data()),
                 std::streamsize(payload.size()));
        os.flush();
        if (!os) {
            os.close();
            fs::remove(tmp_path, ec);
            throw SnapshotError("snapshot: short write to " +
                                tmp_path.string());
        }
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        throw SnapshotError("snapshot: rename to " + final_path.string() +
                            " failed");
    }
    return final_path;
}

std::vector<uint8_t>
readSnapshotPayload(const std::filesystem::path &path,
                    uint64_t expectedWorldFp)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw SnapshotError("snapshot: cannot open " + path.string());

    Deserializer file(is);
    uint8_t head[kHeaderBytes];
    if (file.remaining() < kHeaderBytes)
        throw SnapshotError("snapshot: truncated header in " +
                            path.string());
    file.raw(head, kHeaderBytes);
    Deserializer h(head, kHeaderBytes);
    uint32_t magic = h.u32();
    uint32_t version = h.u32();
    uint64_t world_fp = h.u64();
    h.u64(); // cycle: the file name carries it
    uint64_t payload_bytes = h.u64();
    uint32_t payload_crc = h.u32();
    if (magic != kMagic)
        throw SnapshotError("snapshot: bad magic in " + path.string());
    if (crc32(head, kHeaderCrcAt) != h.u32())
        throw SnapshotError("snapshot: header CRC mismatch in " +
                            path.string());
    if (version != kSnapshotVersion)
        throw SnapshotError("snapshot: version " + std::to_string(version) +
                            " != " + std::to_string(kSnapshotVersion) +
                            " in " + path.string());
    if (world_fp != expectedWorldFp)
        throw SnapshotError("snapshot: fingerprint mismatch in " +
                            path.string() + " (snapshot " + fpHex(world_fp) +
                            ", world " + fpHex(expectedWorldFp) + ")");
    if (payload_bytes > file.remaining())
        throw SnapshotError("snapshot: truncated payload in " +
                            path.string());

    std::vector<uint8_t> payload(static_cast<size_t>(payload_bytes));
    file.raw(payload.data(), payload.size());
    if (crc32(payload.data(), payload.size()) != payload_crc)
        throw SnapshotError("snapshot: payload CRC mismatch in " +
                            path.string());
    return payload;
}

std::optional<std::filesystem::path>
findNewestValidSnapshot(const std::string &dir, uint64_t worldFp)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return std::nullopt;

    // Collect candidates sorted newest-first, then take the first one
    // that passes full validation (corrupt files are skipped, so a
    // torn newest snapshot falls back to the previous one).
    std::vector<std::pair<uint64_t, fs::path>> candidates;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        uint64_t cycle = 0;
        if (parseSnapshotName(entry.path().filename().string(), worldFp,
                              cycle))
            candidates.emplace_back(cycle, entry.path());
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    for (const auto &[cycle, path] : candidates) {
        try {
            (void)readSnapshotPayload(path, worldFp);
            return path;
        } catch (const SnapshotError &e) {
            std::fprintf(stderr, "[snapshot] skipping %s: %s\n",
                         path.string().c_str(), e.what());
        }
    }
    return std::nullopt;
}

size_t
removeSnapshotsFor(const std::string &dir, uint64_t worldFp)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec))
        return 0;
    size_t removed = 0;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        uint64_t cycle = 0;
        if (parseSnapshotName(entry.path().filename().string(), worldFp,
                              cycle)) {
            std::error_code rec;
            if (fs::remove(entry.path(), rec))
                removed++;
        }
    }
    return removed;
}

} // namespace trt
