/**
 * @file
 * Deterministic pseudo-random number generation for synthetic trace
 * generation. xoshiro256** — fast, high quality, and reproducible across
 * platforms (unlike std::default_random_engine).
 */

#ifndef TH_COMMON_RNG_H
#define TH_COMMON_RNG_H

#include <cstdint>

namespace th {

/**
 * xoshiro256** PRNG with splitmix64 seeding.
 *
 * All synthetic workload generation derives from this generator so a
 * (suite, benchmark, seed) triple always produces the same trace.
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit sample. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t range(std::uint64_t bound)
    {
        // Multiply-shift; bias is negligible for our bounds (<< 2^64).
        return static_cast<std::uint64_t>(uniform() *
                                          static_cast<double>(bound));
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t rangeInclusive(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Sample a geometric-ish run length with mean @p mean (>= 1).
     * Used for burst lengths in branch/value-width processes.
     */
    int runLength(double mean);

    /**
     * Sample from a discrete distribution given cumulative weights.
     * @param cdf Array of cumulative probabilities ending at 1.0.
     * @param n   Number of entries.
     * @return Index in [0, n).
     */
    int sampleCdf(const double *cdf, int n);

    /** Approximately normal sample (Irwin-Hall of 4) scaled/shifted. */
    double gaussian(double mean, double stddev);

  private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace th

#endif // TH_COMMON_RNG_H
