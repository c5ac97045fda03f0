#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace th {

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), buckets_(static_cast<size_t>(std::max(1, buckets)), 0)
{
    if (hi <= lo)
        panic("Histogram range must be non-empty (lo=%f hi=%f)", lo, hi);
}

void
Histogram::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;

    const double t = (v - lo_) / (hi_ - lo_);
    int idx = static_cast<int>(t * static_cast<double>(buckets_.size()));
    idx = std::clamp(idx, 0, static_cast<int>(buckets_.size()) - 1);
    ++buckets_[static_cast<size_t>(idx)];
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
Histogram::fraction(int i) const
{
    if (count_ == 0 || i < 0 || i >= static_cast<int>(buckets_.size()))
        return 0.0;
    return static_cast<double>(buckets_[static_cast<size_t>(i)]) /
           static_cast<double>(count_);
}

bool
Histogram::restore(double lo, double hi,
                   std::vector<std::uint64_t> buckets,
                   std::uint64_t count, double sum, double min,
                   double max)
{
    if (buckets.empty() || !(hi > lo))
        return false;
    lo_ = lo;
    hi_ = hi;
    buckets_ = std::move(buckets);
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
    return true;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0.0;
}

void
LatencyHistogram::sample(std::uint64_t micros)
{
    int idx = 0;
    while (idx < kBuckets - 1 && micros >= (1ULL << (idx + 1)))
        ++idx;
    ++buckets_[idx];
    ++count_;
}

std::uint64_t
LatencyHistogram::quantileUpperBoundUs(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-quantile sample, 1-based; ceil so p100 = last.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return 1ULL << (i + 1);
    }
    return 1ULL << kBuckets;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

void
LatencyHistogram::reset()
{
    std::fill(buckets_, buckets_ + kBuckets, 0);
    count_ = 0;
}

double
geomean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : vals)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(vals.size()));
}

double
mean(const std::vector<double> &vals)
{
    if (vals.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : vals)
        sum += v;
    return sum / static_cast<double>(vals.size());
}

} // namespace th
