/**
 * @file
 * The one-call simulation entry points used by examples, tests and the
 * benchmark harness. GpuConfig::policy selects everything the RT
 * units do (DESIGN.md §9).
 */

#ifndef TRT_CORE_ARCH_HH
#define TRT_CORE_ARCH_HH

#include "gpu/gpu.hh"

namespace trt
{

/**
 * Build a Gpu for @p cfg over @p scene / @p bvh and simulate the frame.
 * This is the main public entry point of the library.
 */
RunStats simulate(const GpuConfig &cfg, const Scene &scene, const Bvh &bvh);

/**
 * Simulate a general tree-traversal workload (section 8): trace the
 * given rays through the RT unit(s) instead of camera-generated path
 * tracing rays. One thread per ray, no bounces; per-ray closest hits
 * come back in RunStats::primaryHits.
 */
RunStats simulateRays(const GpuConfig &cfg, const Scene &scene,
                      const Bvh &bvh, const std::vector<Ray> &rays);

/**
 * simulate() with checkpoint/restore (DESIGN.md §7): arms the Gpu with
 * @p policy and, when @p resume is set, first looks for the newest
 * valid snapshot of policy.worldFp under policy.dir and restores it.
 * A corrupt, stale or missing snapshot falls back to a cold run (a
 * warning is printed for corrupt ones). Throws SimulationHalted when
 * policy.haltAtCycle fires.
 */
RunStats simulateWithSnapshots(const GpuConfig &cfg, const Scene &scene,
                               const Bvh &bvh, const SnapshotPolicy &policy,
                               bool resume);

/**
 * Sampled simulation (DESIGN.md §8): Gpu::runSampled under @p sample,
 * with optional snapshot capture/resume exactly as
 * simulateWithSnapshots (pass a default SnapshotPolicy and
 * resume=false to disable). RunStats comes back extrapolated, with
 * confidence intervals in RunStats::sampled.
 */
RunStats simulateSampled(const GpuConfig &cfg, const Scene &scene,
                         const Bvh &bvh, const SampleConfig &sample,
                         const SnapshotPolicy &policy = {},
                         bool resume = false);

} // namespace trt

#endif // TRT_CORE_ARCH_HH
