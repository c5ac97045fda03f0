#include "common/rng.h"

#include <cmath>

namespace th {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::int64_t
Rng::rangeInclusive(std::int64_t lo, std::int64_t hi)
{
    return lo + static_cast<std::int64_t>(
        range(static_cast<std::uint64_t>(hi - lo + 1)));
}

int
Rng::runLength(double mean)
{
    if (mean <= 1.0)
        return 1;
    // Geometric with success probability 1/mean, support {1, 2, ...}.
    const double p = 1.0 / mean;
    const double u = uniform();
    const double len = std::log(1.0 - u) / std::log(1.0 - p);
    return 1 + static_cast<int>(len);
}

int
Rng::sampleCdf(const double *cdf, int n)
{
    const double u = uniform();
    for (int i = 0; i < n; ++i) {
        if (u < cdf[i])
            return i;
    }
    return n - 1;
}

double
Rng::gaussian(double mean, double stddev)
{
    // Irwin-Hall with 4 samples: variance 4/12 = 1/3, so scale by
    // sqrt(3) to get unit variance.
    const double sum = uniform() + uniform() + uniform() + uniform();
    const double unit = (sum - 2.0) * 1.7320508075688772;
    return mean + stddev * unit;
}

} // namespace th
