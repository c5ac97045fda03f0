/**
 * @file
 * Lightweight statistics: scalar counters, histograms and means. The
 * core's named lists of them live in core/activity.h.
 */

#ifndef TH_COMMON_STATS_H
#define TH_COMMON_STATS_H

#include <cstdint>
#include <vector>

namespace th {

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A fixed-bucket histogram over a [lo, hi) range with uniform buckets. */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 10) {}

    /**
     * @param lo       Lower bound of the tracked range.
     * @param hi       Upper bound (samples >= hi land in the last bucket).
     * @param buckets  Number of uniform buckets (>= 1).
     */
    Histogram(double lo, double hi, int buckets);

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double mean() const;
    double min() const { return min_; }
    double max() const { return max_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    double sum() const { return sum_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /**
     * Reconstitute from serialized state (io/serialize). Returns false
     * and leaves the histogram untouched when the state is invalid
     * (empty buckets or hi <= lo).
     */
    bool restore(double lo, double hi,
                 std::vector<std::uint64_t> buckets, std::uint64_t count,
                 double sum, double min, double max);

    /** Fraction of samples in bucket @p i. */
    double fraction(int i) const;

    void reset();

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0, max_ = 0.0;
};

/**
 * Fixed-bucket log-scale latency histogram for service-time metrics
 * (net/metrics.h). Buckets are power-of-two microsecond bins — bucket
 * i counts samples in [2^i, 2^(i+1)) microseconds — so recording is a
 * clz and quantile estimation needs no stored samples. Deliberately
 * wall-clock-free: callers sample durations; this only counts them.
 */
class LatencyHistogram
{
  public:
    /** Number of power-of-two buckets: covers up to ~2^27 us (~134 s). */
    static constexpr int kBuckets = 28;

    /** Record one duration (clamped into the first/last bucket). */
    void sample(std::uint64_t micros);

    std::uint64_t count() const { return count_; }

    /**
     * Upper bound (in microseconds) of the bucket containing the
     * q-quantile sample, q in [0, 1]. 0 when empty. An upper bound is
     * reported (rather than a midpoint) so p99 never understates.
     */
    std::uint64_t quantileUpperBoundUs(double q) const;

    const std::uint64_t *buckets() const { return buckets_; }

    /** Merge @p other into this (for per-thread shards). */
    void merge(const LatencyHistogram &other);

    void reset();

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
};

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &vals);

/** Arithmetic mean; 0 if empty. */
double mean(const std::vector<double> &vals);

} // namespace th

#endif // TH_COMMON_STATS_H
