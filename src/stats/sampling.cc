#include "stats/sampling.hh"

#include <cmath>
#include <stdexcept>

namespace trt
{

double
studentT95(size_t df)
{
    // Two-sided 95% critical values for df = 1..30; the normal
    // approximation beyond that.
    static const double kTable[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df - 1];
    return 1.96;
}

Estimate
stratifiedExtrapolate(const std::vector<uint64_t> &xs,
                      const std::vector<uint64_t> &ws,
                      const std::vector<uint64_t> &strata,
                      uint64_t residualWork)
{
    if (xs.size() != ws.size() || xs.size() != strata.size())
        throw std::invalid_argument(
            "stratifiedExtrapolate: length mismatch");

    Estimate est;
    double sum_x = 0.0, sum_w = 0.0, sum_s = 0.0;
    for (size_t i = 0; i < xs.size(); i++) {
        sum_x += double(xs[i]);
        sum_w += double(ws[i]);
        sum_s += double(strata[i]);
    }
    if (sum_w == 0.0) {
        // No work observed: nothing to scale by. Report the raw
        // measured total; callers treat this as a degenerate run.
        est.value = sum_x;
        est.ci95 = 0.0;
        return est;
    }

    // Per-stratum contribution: the interval's own rate when it
    // observed work, the pooled rate otherwise.
    double pooled = sum_x / sum_w;
    double value = 0.0;
    for (size_t i = 0; i < xs.size(); i++) {
        double rate = ws[i] ? double(xs[i]) / double(ws[i]) : pooled;
        value += rate * double(strata[i]);
    }
    // Work no interval represents (frame-ending warm-up after the last
    // interval): the pooled rate is the least-bad stand-in — any one
    // interval's rate would impose that interval's regime on it.
    value += pooled * double(residualWork);
    est.value = value;

    // All-detailed degenerate case: every unit of work was measured,
    // the "estimate" is the exact sum.
    if (sum_s == sum_w && residualWork == 0) {
        est.value = sum_x;
        est.ci95 = 0.0;
        return est;
    }

    // One observation per stratum admits no per-stratum variance;
    // treat the observed rates as draws from a common distribution.
    size_t n_r = 0;
    double mean_r = 0.0;
    for (size_t i = 0; i < xs.size(); i++)
        if (ws[i]) {
            mean_r += double(xs[i]) / double(ws[i]);
            n_r++;
        }
    if (n_r < 2) {
        est.ci95 = 0.0;
        return est;
    }
    mean_r /= double(n_r);
    double ss = 0.0;
    for (size_t i = 0; i < xs.size(); i++)
        if (ws[i]) {
            double d = double(xs[i]) / double(ws[i]) - mean_r;
            ss += d * d;
        }
    double sd = std::sqrt(ss / double(n_r - 1));
    double s2 = 0.0;
    for (size_t i = 0; i < strata.size(); i++)
        s2 += double(strata[i]) * double(strata[i]);
    est.ci95 = studentT95(n_r - 1) * sd * std::sqrt(s2);
    return est;
}

void
SampleAccumulator::add(SampleInterval iv)
{
    if (intervals_.empty())
        counterCount_ = iv.deltas.size();
    else if (iv.deltas.size() != counterCount_)
        throw std::invalid_argument(
            "SampleAccumulator: interval counter-count mismatch");
    measuredCycles_ += iv.cycles;
    measuredWork_ += iv.work;
    intervals_.push_back(std::move(iv));
}

void
SampleAccumulator::closeStratum(uint64_t stratumWork)
{
    if (intervals_.empty())
        return;
    intervals_.back().stratumWork = stratumWork;
}

std::vector<uint64_t>
SampleAccumulator::strata() const
{
    std::vector<uint64_t> ss;
    ss.reserve(intervals_.size());
    for (const SampleInterval &iv : intervals_)
        ss.push_back(iv.stratumWork);
    return ss;
}

Estimate
SampleAccumulator::extrapolateCycles() const
{
    std::vector<uint64_t> xs, ws;
    xs.reserve(intervals_.size());
    ws.reserve(intervals_.size());
    for (const SampleInterval &iv : intervals_) {
        xs.push_back(iv.cycles);
        ws.push_back(iv.work);
    }
    return stratifiedExtrapolate(xs, ws, strata(), residualWork_);
}

std::vector<Estimate>
SampleAccumulator::extrapolateCounters() const
{
    std::vector<Estimate> out;
    out.reserve(counterCount_);
    std::vector<uint64_t> xs(intervals_.size()), ws(intervals_.size());
    std::vector<uint64_t> ss = strata();
    for (size_t i = 0; i < intervals_.size(); i++)
        ws[i] = intervals_[i].work;
    for (size_t c = 0; c < counterCount_; c++) {
        for (size_t i = 0; i < intervals_.size(); i++)
            xs[i] = intervals_[i].deltas[c];
        out.push_back(stratifiedExtrapolate(xs, ws, ss, residualWork_));
    }
    return out;
}

void
SampleAccumulator::saveState(Serializer &s) const
{
    s.beginChunk("SACC");
    s.u64(counterCount_);
    s.u64(measuredCycles_);
    s.u64(measuredWork_);
    s.u64(residualWork_);
    s.u64(intervals_.size());
    for (const SampleInterval &iv : intervals_) {
        s.u64(iv.cycles);
        s.u64(iv.work);
        s.u64(iv.stratumWork);
        s.vecPod(iv.deltas);
    }
    s.endChunk();
}

void
SampleAccumulator::loadState(Deserializer &d)
{
    d.beginChunk("SACC");
    counterCount_ = size_t(d.u64());
    measuredCycles_ = d.u64();
    measuredWork_ = d.u64();
    residualWork_ = d.u64();
    uint64_t n = d.count(4 * 8); // 3 u64 + the deltas prefix
    intervals_.clear();
    intervals_.reserve(size_t(n));
    for (uint64_t i = 0; i < n; i++) {
        SampleInterval iv;
        iv.cycles = d.u64();
        iv.work = d.u64();
        iv.stratumWork = d.u64();
        iv.deltas = d.vecPod<uint64_t>();
        if (iv.deltas.size() != counterCount_)
            throw SnapshotError(
                "snapshot: SampleAccumulator counter-count mismatch");
        intervals_.push_back(std::move(iv));
    }
    d.endChunk();
}

} // namespace trt
