/**
 * @file
 * GpuConfig fingerprinting for the harness run cache. Every field that
 * can change simulation results is hashed individually; bump the schema
 * tag whenever a field is added, removed or reordered so stale cache
 * entries can never be mistaken for fresh ones.
 */

#include "gpu/config.hh"

#include "geom/hash.hh"

namespace trt
{

const char *
dispatchPolicyName(DispatchPolicyKind k)
{
    switch (k) {
      case DispatchPolicyKind::Fifo:
        return "fifo";
      case DispatchPolicyKind::Vtq:
        return "vtq";
      case DispatchPolicyKind::Reorder:
        return "reorder";
      case DispatchPolicyKind::Predict:
        return "predict";
      case DispatchPolicyKind::Prefetch:
        return "prefetch";
      default:
        return "unknown";
    }
}

bool
parseDispatchPolicy(const std::string &name, DispatchPolicyKind &out)
{
    if (name == "baseline" || name == "fifo")
        out = DispatchPolicyKind::Fifo;
    else if (name == "prefetch")
        out = DispatchPolicyKind::Prefetch;
    else if (name == "vtq")
        out = DispatchPolicyKind::Vtq;
    else if (name == "reorder")
        out = DispatchPolicyKind::Reorder;
    else if (name == "predict")
        out = DispatchPolicyKind::Predict;
    else
        return false;
    return true;
}

GpuConfig
GpuConfig::forPolicy(DispatchPolicyKind kind)
{
    if (kind == DispatchPolicyKind::Vtq)
        return virtualizedTreeletQueues();
    GpuConfig c;
    c.policy = kind;
    return c;
}

uint64_t
GpuConfig::fingerprint() const
{
    Fnv1a h;
    h.pod(uint32_t(0x6C0F0004)); // schema tag (v4: the policy is the
                                 // only RT-unit selector, no arch)

    h.pod(numSms);
    h.pod(maxWarpsPerSm);
    h.pod(warpSize);
    h.pod(maxCtasPerSm);
    h.pod(regsPerSm);
    h.pod(rtUnitsPerSm);
    h.pod(warpBufferSize);

    h.pod(mem.lineBytes);
    h.pod(mem.numL1s);
    h.pod(mem.l1Bytes);
    h.pod(mem.l1Ways);
    h.pod(mem.l1HitLatency);
    h.pod(mem.l2Bytes);
    h.pod(mem.l2Ways);
    h.pod(mem.l2HitLatency);
    h.pod(mem.l2ReservedBytes);
    h.pod(mem.dramLatency);
    h.pod(mem.dramBytesPerCycle);

    h.pod(ctaSize);
    h.pod(raygenAluInstrs);
    h.pod(shadeAluInstrs);
    h.pod(regsPerThread);
    h.pod(simtStackDepth);

    h.pod(rtMemIssuePerCycle);
    h.pod(isectBoxLatency);
    h.pod(isectTriLatency);
    h.pod(isectIssuePerCycle);
    h.pod(nodeDecodeLatency);
    h.pod(wideBoxExtraLatency);

    h.pod(imageWidth);
    h.pod(imageHeight);
    h.pod(maxBounces);
    h.pod(contributionCutoff);

    h.pod(uint8_t(rayVirtualization));
    h.pod(uint8_t(virtualizationFree));
    h.pod(maxVirtualRaysPerSm);
    h.pod(queueThreshold);
    h.pod(uint8_t(groupUnderpopulated));
    h.pod(repackThreshold);
    h.pod(uint8_t(preloadEnabled));
    h.pod(initialDivergeThreshold);
    h.pod(uint8_t(skipTreeletPhase));

    h.pod(policy);
    h.pod(reorderBinBits);
    h.pod(predictTableBits);
    h.pod(uint8_t(predictShared));

    h.pod(prefetchCooldown);
    h.pod(prefetchMinRays);

    // simThreads is deliberately not hashed: it changes wall-clock
    // behavior only, never RunStats, so cached runs stay valid across
    // thread counts. telem likewise: sampling and tracing observe the
    // simulation without steering it, so a config with telemetry on
    // still maps to the same cached RunStats.

    return h.value();
}

} // namespace trt
