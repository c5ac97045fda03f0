#include <gtest/gtest.h>

#include "common/stats.h"

namespace th {
namespace {

TEST(Counter, StartsAtZero)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, IncrementAndSet)
{
    Counter c;
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.set(100);
    EXPECT_EQ(c.value(), 100u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, CountsAndMean)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(1.0);
    h.sample(3.0);
    h.sample(5.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Histogram, BucketPlacement)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(0.5);
    h.sample(9.5);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
}

TEST(Histogram, OutOfRangeClamped)
{
    Histogram h(0.0, 1.0, 4);
    h.sample(-5.0);
    h.sample(42.0);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(Histogram, FractionSumsToOne)
{
    Histogram h(0.0, 1.0, 5);
    for (int i = 0; i < 100; ++i)
        h.sample(i / 100.0);
    double total = 0.0;
    for (int b = 0; b < 5; ++b)
        total += h.fraction(b);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, Reset)
{
    Histogram h(0.0, 1.0, 2);
    h.sample(0.3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Mean, KnownValues)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Geomean, BelowArithmeticMean)
{
    const std::vector<double> v{1.0, 10.0, 100.0};
    EXPECT_LT(geomean(v), mean(v));
}

} // namespace
} // namespace th
