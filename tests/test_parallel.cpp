/**
 * @file
 * Tests for the parallel execution layer: thread-pool determinism,
 * the memoizing CoreResult cache, and multigrid bit-identity across
 * thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "common/threadpool.h"
#include "sim/experiments.h"
#include "thermal/hotspot.h"

namespace th {
namespace {

TEST(ThreadPool, MapIsIndexOrdered)
{
    ThreadPool pool(4);
    const auto out = pool.parallelMap(
        1000, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(257);
    pool.parallelFor(counts.size(), [&](std::size_t i) {
        counts[i].fetch_add(1);
    });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    int sum = 0; // no synchronisation: must run on this thread
    pool.parallelFor(100, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        // Nested fan-out from a worker must not deadlock.
        pool.parallelFor(16, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(64,
                         [](std::size_t i) {
                             if (i == 33)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

TEST(ThreadPool, ParseThreadsEnvOverride)
{
    // Unset/empty means "use the default" and is not an error.
    EXPECT_EQ(ThreadPool::parseThreads(nullptr, 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("", 7), 7);

    // In-range values, including both ends of the accepted interval.
    EXPECT_EQ(ThreadPool::parseThreads("4", 7), 4);
    EXPECT_EQ(ThreadPool::parseThreads("1", 7), 1);
    EXPECT_EQ(ThreadPool::parseThreads("1024", 7), 1024);

    // Rejected values fall back (and warn, once per process).
    EXPECT_EQ(ThreadPool::parseThreads("1025", 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("0", 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("-2", 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("-3", 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("abc", 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("4x", 7), 7);
    EXPECT_EQ(ThreadPool::parseThreads("99999999999999999999", 7), 7);
}

class ParallelExperimentsTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        SimOptions opts;
        opts.instructions = 20000;
        opts.warmupInstructions = 10000;
        sys_ = new System(opts);
    }

    static void TearDownTestSuite()
    {
        delete sys_;
        sys_ = nullptr;
    }

    static System *sys_;
};

System *ParallelExperimentsTest::sys_ = nullptr;

TEST_F(ParallelExperimentsTest, Figure8MatchesSerialBitExact)
{
    const std::vector<std::string> names = {"gzip", "crafty", "swim"};
    const Fig8Data par = runFigure8(*sys_, names);

    // Hand-rolled serial sweep over the same grid: the pooled figure
    // must be bit-identical regardless of thread count.
    const auto configs = figure8Configs();
    ASSERT_EQ(par.benchmarks.size(), names.size());
    for (size_t b = 0; b < names.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            const CoreResult r = sys_->runCore(names[b], configs[c]);
            EXPECT_EQ(par.benchmarks[b].ipc[c], r.perf.ipc())
                << names[b] << " config " << c;
            EXPECT_EQ(par.benchmarks[b].ipns[c], r.ipns())
                << names[b] << " config " << c;
        }
    }

    // And a repeat of the whole figure is bit-identical too.
    const Fig8Data again = runFigure8(*sys_, names);
    for (size_t b = 0; b < names.size(); ++b)
        for (size_t c = 0; c < configs.size(); ++c)
            EXPECT_EQ(par.benchmarks[b].ipc[c],
                      again.benchmarks[b].ipc[c]);
    EXPECT_EQ(par.speedupMeanOfMeans, again.speedupMeanOfMeans);
}

TEST_F(ParallelExperimentsTest, CoreCacheHitsAndMisses)
{
    SimOptions opts;
    opts.instructions = 20000;
    opts.warmupInstructions = 10000;
    System sys(opts);

    EXPECT_EQ(sys.coreCacheStats().hits, 0u);
    EXPECT_EQ(sys.coreCacheStats().misses, 0u);

    sys.runCore("gzip", ConfigKind::Base);
    auto s = sys.coreCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);

    sys.runCore("gzip", ConfigKind::Base);
    s = sys.coreCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);

    // A different config is a different key...
    sys.runCore("gzip", ConfigKind::ThreeD);
    s = sys.coreCacheStats();
    EXPECT_EQ(s.misses, 2u);

    // ...and so is a tweaked explicit config (ablation variants).
    CoreConfig cfg = makeConfig(ConfigKind::ThreeD, sys.circuits());
    cfg.pamEnabled = false;
    sys.runCore("gzip", cfg);
    s = sys.coreCacheStats();
    EXPECT_EQ(s.misses, 3u);

    sys.clearCoreCache();
    EXPECT_EQ(sys.coreCacheStats().hits, 0u);
    EXPECT_EQ(sys.coreCacheStats().misses, 0u);
    sys.runCore("gzip", ConfigKind::Base);
    EXPECT_EQ(sys.coreCacheStats().misses, 1u);
}

TEST_F(ParallelExperimentsTest, FiguresShareCachedRuns)
{
    // Fig 9 and Fig 10 re-evaluate configurations Fig 8 already ran;
    // the memoizing cache must turn those into hits.
    SimOptions opts;
    opts.instructions = 20000;
    opts.warmupInstructions = 10000;
    System sys(opts);

    runFigure8(sys, {"mpeg2enc"});
    const auto after8 = sys.coreCacheStats();
    runFigure9(sys, {"mpeg2enc"});
    const auto after9 = sys.coreCacheStats();
    // Base and 3D were cached by Fig 8; calibration reuses Base too.
    EXPECT_GT(after9.hits, after8.hits);
    runFigure10(sys, {"mpeg2enc"});
    const auto after10 = sys.coreCacheStats();
    EXPECT_GT(after10.hits, after9.hits);
    // Fig 10's three configs all hit (Base/3D from Fig 8, 3D-noTH
    // from Fig 9): no new simulations at all.
    EXPECT_EQ(after10.misses, after9.misses);
}

/** Solve one multigrid steady state at a given global-pool size. */
ThermalField
solveMultigridAt(int threads, ThermalGrid::SolveStats *stats = nullptr)
{
    ThreadPool::setGlobalThreads(threads);
    ThermalParams p;
    p.gridN = 48; // big enough that the solver actually fans out
    p.solver = SolverKind::Multigrid;
    ThermalGrid grid(p, HotspotModel::stackedStack(), 6.0, 6.0);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 3.0, 3.0, 10.0);
    grid.addPower(kNumDies - 1, 4.0, 4.0, 1.5, 1.5, 8.0);
    return grid.solve(stats);
}

TEST(Multigrid, BitIdenticalAcrossThreadCounts)
{
    // The red-black line smoother's colour sweeps are race-free and
    // every reduction is index-ordered, so a 1-thread and a 4-thread
    // solve must agree to the last bit.
    ThermalGrid::SolveStats s1, s4;
    const ThermalField f1 = solveMultigridAt(1, &s1);
    const ThermalField f4 = solveMultigridAt(4, &s4);
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());

    EXPECT_EQ(s1.iterations, s4.iterations);
    ASSERT_EQ(f1.layers(), f4.layers());
    for (int l = 0; l < f1.layers(); ++l)
        for (int iy = 0; iy < f1.gridN(); ++iy)
            for (int ix = 0; ix < f1.gridN(); ++ix)
                ASSERT_EQ(f1.at(l, ix, iy), f4.at(l, ix, iy))
                    << "layer " << l << " (" << ix << "," << iy << ")";
}

TEST(Multigrid, SolveStatsReportVCycles)
{
    ThermalParams p;
    p.gridN = 16;
    p.solver = SolverKind::Multigrid;
    ThermalGrid grid(p, HotspotModel::planarStack(), 6.0, 6.0);
    grid.addPower(0, 0.0, 0.0, 6.0, 6.0, 30.0);
    ThermalGrid::SolveStats stats;
    grid.solve(&stats);
    EXPECT_GT(stats.iterations, 0);
    EXPECT_LT(stats.residualK, p.maxResidualK);
}

} // namespace
} // namespace th
