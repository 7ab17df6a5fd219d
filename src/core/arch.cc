#include "core/arch.hh"

#include <cstdio>

namespace trt
{

namespace
{

/**
 * Arm @p gpu with @p policy and, when @p resume is set, restore the
 * newest valid snapshot of policy.worldFp under policy.dir (none found
 * = a cold run). False when a corrupt or stale snapshot threw midway:
 * the partial loadState left @p gpu inconsistent, and a warning has
 * been printed. @p what names the run kind in the resume message.
 */
bool
restoreNewest(Gpu &gpu, const SnapshotPolicy &policy, bool resume,
              const char *what)
{
    gpu.setSnapshotPolicy(policy);
    if (!resume)
        return true;
    auto path = findNewestValidSnapshot(policy.dir, policy.worldFp);
    if (!path)
        return true;
    try {
        std::vector<uint8_t> payload =
            readSnapshotPayload(*path, policy.worldFp);
        Deserializer d(payload);
        gpu.loadState(d);
        fprintf(stderr, "[snapshot] resuming %sfrom %s (cycle %llu)\n",
                what, path->string().c_str(),
                (unsigned long long)gpu.restoredCycle());
    } catch (const SnapshotError &e) {
        fprintf(stderr, "[snapshot] %s: %s; falling back to a cold run\n",
                path->string().c_str(), e.what());
        return false;
    }
    return true;
}

/** Run @p run on a Gpu resumed as restoreNewest() describes, or on a
 *  freshly built one when the restore failed. */
template <typename Run>
RunStats
runResumable(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
             const SnapshotPolicy &policy, bool resume, const char *what,
             Run run)
{
    Gpu gpu(cfg, scene, bvh);
    if (restoreNewest(gpu, policy, resume, what))
        return run(gpu);
    Gpu cold(cfg, scene, bvh);
    cold.setSnapshotPolicy(policy);
    return run(cold);
}

} // anonymous namespace

RunStats
simulate(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh)
{
    Gpu gpu(cfg, scene, bvh);
    return gpu.run();
}

RunStats
simulateRays(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
             const std::vector<Ray> &rays)
{
    GpuConfig c = cfg;
    c.maxBounces = 0; // queries are a single trace per thread
    Gpu gpu(c, scene, bvh, &rays);
    return gpu.run();
}

RunStats
simulateWithSnapshots(const GpuConfig &cfg, const Scene &scene,
                      const Bvh &bvh, const SnapshotPolicy &policy,
                      bool resume)
{
    return runResumable(cfg, scene, bvh, policy, resume, "",
                        [](Gpu &gpu) { return gpu.run(); });
}

RunStats
simulateSampled(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh,
                const SampleConfig &sample, const SnapshotPolicy &policy,
                bool resume)
{
    return runResumable(cfg, scene, bvh, policy, resume, "sampled run ",
                        [&sample](Gpu &gpu) {
                            return gpu.runSampled(sample);
                        });
}

} // namespace trt
