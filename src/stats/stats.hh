/**
 * @file
 * Lightweight statistics primitives used by every simulator component.
 * Components embed these directly (no global registry lookup on the fast
 * path); the harness walks component stat structs when printing reports.
 */

#ifndef TRT_STATS_STATS_HH
#define TRT_STATS_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace trt
{

/**
 * Running scalar distribution: count, sum, min, max, mean. Constant
 * memory; suitable for per-cycle updates.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        count_++;
        sum_ += v;
        minv_ = std::min(minv_, v);
        maxv_ = std::max(maxv_, v);
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        minv_ = std::numeric_limits<double>::max();
        maxv_ = std::numeric_limits<double>::lowest();
    }

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? minv_ : 0.0; }
    double maxValue() const { return count_ ? maxv_ : 0.0; }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double minv_ = std::numeric_limits<double>::max();
    double maxv_ = std::numeric_limits<double>::lowest();
};

/** Ratio of two event counters (e.g. misses / accesses). */
struct Ratio
{
    uint64_t num = 0;
    uint64_t den = 0;

    void add(bool in_num) { den++; num += in_num ? 1 : 0; }
    double value() const { return den ? double(num) / double(den) : 0.0; }
};

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &values);

} // namespace trt

#endif // TRT_STATS_STATS_HH
