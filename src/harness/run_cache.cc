#include "harness/run_cache.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <iomanip>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "geom/hash.hh"
#include "gpu/run_stats_io.hh"
#include "harness/harness.hh"
#include "util/env.hh"

namespace trt
{

/** SHA-256 of the simulator sources (source_stamp.cmake). */
extern const char kSourceStamp[];

namespace
{

std::once_flag summary_armed;

void
printSummaryAtExit()
{
    const HarnessTiming &t = harnessTiming();
    if (t.sceneBuildMs == 0 && t.simulateMs == 0 && t.runCacheHits == 0 &&
        t.runCacheMisses == 0 && t.bundleCacheHits == 0 &&
        t.bundleCacheMisses == 0 && t.runCachePrunedBlobs == 0)
        return;
    std::cout << harnessTimingSummary() << "\n";
}

/** Size cap for the runs directory in bytes; 0 = pruning disabled.
 *  Negative or non-numeric values are a hard error (util/env.hh). */
uint64_t
runCacheCapBytes()
{
    uint64_t mb = envUInt("TRT_RUN_CACHE_MAX_MB", 512,
                          UINT64_MAX / (1024 * 1024));
    return mb * 1024 * 1024;
}

/**
 * Cross-process prune lock: an O_CREAT|O_EXCL sentinel file in the
 * runs directory. Concurrent farm workers all store results into the
 * same cache; two of them scanning + removing LRU blobs at once could
 * delete far past the cap (each computes its own eviction list from a
 * stale total). The sentinel serializes pruning across processes; a
 * holder that died mid-prune is recovered by age (a prune takes
 * milliseconds, so a sentinel older than kPruneLockStaleS seconds is
 * orphaned and safe to break).
 */
class PruneLock
{
  public:
    explicit PruneLock(const std::filesystem::path &dir)
        : path_(dir / ".prune.lock")
    {
        for (int attempt = 0; attempt < 2; attempt++) {
            int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_EXCL,
                            0644);
            if (fd >= 0) {
                ::close(fd);
                held_ = true;
                return;
            }
            if (errno != EEXIST)
                return; // Unwritable directory: skip pruning.
            // Another process holds it — or died holding it. Break
            // stale locks once, then give up (the live holder prunes).
            struct stat st{};
            if (attempt == 0 && ::stat(path_.c_str(), &st) == 0 &&
                ::time(nullptr) - st.st_mtime > kPruneLockStaleS) {
                std::error_code ec;
                std::filesystem::remove(path_, ec);
                continue;
            }
            return;
        }
    }

    ~PruneLock()
    {
        if (held_) {
            std::error_code ec;
            std::filesystem::remove(path_, ec);
        }
    }

    bool held() const { return held_; }

  private:
    static constexpr time_t kPruneLockStaleS = 120;
    std::filesystem::path path_;
    bool held_ = false;
};

/**
 * Evict least-recently-used blobs until the directory fits the cap.
 * mtime is the recency signal (loadCachedRun touches it on every hit);
 * ties break on path for determinism. Serialized within the process by
 * a mutex and across processes by PruneLock, so concurrent farm
 * workers never compound their evictions; racing file removals are
 * still tolerated via error_code.
 */
void
pruneRunCache(const std::filesystem::path &dir)
{
    uint64_t cap = runCacheCapBytes();
    if (cap == 0)
        return;

    static std::mutex prune_mtx;
    std::lock_guard<std::mutex> lk(prune_mtx);
    PruneLock cross_process_lock(dir);
    if (!cross_process_lock.held())
        return; // Another process is pruning this directory right now.

    struct Blob
    {
        std::filesystem::path path;
        std::filesystem::file_time_type mtime;
        uint64_t size;
    };
    std::vector<Blob> blobs;
    uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : std::filesystem::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec) || de.path().extension() != ".bin")
            continue;
        uint64_t size = de.file_size(ec);
        if (ec)
            continue;
        blobs.push_back({de.path(), de.last_write_time(ec), size});
        total += size;
    }
    if (total <= cap)
        return;

    std::sort(blobs.begin(), blobs.end(),
              [](const Blob &a, const Blob &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    for (const Blob &b : blobs) {
        if (total <= cap)
            break;
        std::filesystem::remove(b.path, ec);
        if (ec)
            continue;
        total -= b.size;
        harnessTiming().runCachePrunedBlobs++;
        harnessTiming().runCachePrunedBytes += b.size;
    }
}

std::filesystem::path
runCachePath(uint64_t fp, const std::string &scene)
{
    std::ostringstream ss;
    ss << scene << "_" << std::hex << fp << "_v" << std::dec
       << RunStatsIo::kVersion << ".bin";
    return std::filesystem::path(cacheRootDir()) / "runs" / ss.str();
}

} // anonymous namespace

HarnessTiming &
harnessTiming()
{
    static HarnessTiming timing;
    std::call_once(summary_armed,
                   []() { std::atexit(printSummaryAtExit); });
    return timing;
}

void
resetHarnessTiming()
{
    HarnessTiming &t = harnessTiming();
    t.sceneBuildMs = 0;
    t.simulateMs = 0;
    t.simulatedCycles = 0;
    t.simulatedRays = 0;
    t.bundleCacheHits = 0;
    t.bundleCacheMisses = 0;
    t.runCacheHits = 0;
    t.runCacheMisses = 0;
    t.runCachePrunedBlobs = 0;
    t.runCachePrunedBytes = 0;
}

std::string
harnessTimingSummary()
{
    const HarnessTiming &t = harnessTiming();
    std::ostringstream ss;
    ss << "[harness] scene build " << t.sceneBuildMs << " ms, simulate "
       << t.simulateMs << " ms | bundle cache " << t.bundleCacheHits
       << " hit " << t.bundleCacheMisses << " miss | run cache "
       << t.runCacheHits << " hit " << t.runCacheMisses << " miss";
    if (t.simulateMs > 0 && t.simulatedCycles > 0) {
        double s = double(t.simulateMs) / 1000.0;
        ss << " | sim rate " << std::fixed << std::setprecision(2)
           << double(t.simulatedCycles) / s / 1e6 << " Mcycles/s, "
           << double(t.simulatedRays) / s / 1e6 << " Mrays/s";
    }
    if (t.runCachePrunedBlobs > 0) {
        ss << ", pruned " << t.runCachePrunedBlobs << " blobs ("
           << (t.runCachePrunedBytes / 1024) << " KB)";
    }
    return ss.str();
}

bool
runCacheEnabled()
{
    if (cacheRootDir().empty())
        return false;
    return envFlag("TRT_RUN_CACHE", true);
}

uint64_t
runFingerprint(const GpuConfig &cfg, const std::string &scene, float scale,
               const BvhConfig &bvhCfg, uint64_t modeFp)
{
    Fnv1a h;
    h.pod(uint32_t(0x52554E01)); // schema tag
    h.pod(cfg.fingerprint());
    h.str(scene);
    h.pod(scale);
    // Execution-mode fingerprint (sampled vs full, and the sampling
    // parameters themselves). Hashed unconditionally so full runs
    // (modeFp == 0) key differently from any sampled run.
    h.pod(modeFp);
    // The BVH build parameters change simulated addresses and must
    // invalidate runs.
    h.pod(bvhCfg.fingerprint());
    h.pod(uint32_t(RunStatsIo::kVersion));
    // Source stamp: simulator code changes invalidate old results
    // even when no schema version was bumped.
    h.str(kSourceStamp);
    return h.value();
}

uint64_t
runFingerprint(const GpuConfig &cfg, const std::string &scene, float scale,
               uint64_t modeFp)
{
    return runFingerprint(cfg, scene, scale, BvhConfig{}, modeFp);
}

bool
cachedRunExists(uint64_t fp, const std::string &scene)
{
    if (!runCacheEnabled())
        return false;
    std::error_code ec;
    return std::filesystem::exists(runCachePath(fp, scene), ec);
}

bool
loadCachedRun(uint64_t fp, const std::string &scene, RunStats &st)
{
    if (!runCacheEnabled())
        return false;
    std::filesystem::path path = runCachePath(fp, scene);
    std::ifstream is(path, std::ios::binary);
    if (is && RunStatsIo::load(is, st)) {
        harnessTiming().runCacheHits++;
        // Touch the blob so LRU pruning keeps hot entries.
        std::error_code ec;
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now(), ec);
        return true;
    }
    harnessTiming().runCacheMisses++;
    return false;
}

void
storeCachedRun(uint64_t fp, const std::string &scene, const RunStats &st)
{
    if (!runCacheEnabled())
        return;
    std::filesystem::path path = runCachePath(fp, scene);
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);

    // Write to a private temp file and rename so concurrent bench
    // processes never observe a half-written blob. The name carries
    // pid + a process-wide counter: two threads of one process (or a
    // forked farm worker reusing a recycled pid) storing the same
    // fingerprint must never interleave writes into one temp file.
    static std::atomic<uint64_t> tmp_seq{0};
    std::ostringstream tmp_name;
    tmp_name << path.string() << ".tmp." << ::getpid() << "."
             << tmp_seq.fetch_add(1);
    std::filesystem::path tmp(tmp_name.str());
    {
        std::ofstream os(tmp, std::ios::binary);
        if (!os)
            return;
        RunStatsIo::save(os, st);
        if (!os) {
            os.close();
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
    pruneRunCache(path.parent_path());
}

} // namespace trt
