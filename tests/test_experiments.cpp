#include <gtest/gtest.h>

#include "sim/experiments.h"

namespace th {
namespace {

class ExperimentsTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        SimOptions opts;
        opts.instructions = 40000;
        opts.warmupInstructions = 25000;
        sys_ = new System(opts);
    }

    static void TearDownTestSuite()
    {
        delete sys_;
        sys_ = nullptr;
    }

    static System *sys_;
};

System *ExperimentsTest::sys_ = nullptr;

TEST_F(ExperimentsTest, Figure8ShapesAndGroups)
{
    const Fig8Data data =
        runFigure8(*sys_, {"gzip", "crafty", "swim", "susan"});
    ASSERT_EQ(data.benchmarks.size(), 4u);
    // Two SPECint, one SPECfp, one MiBench group.
    ASSERT_EQ(data.groups.size(), 3u);
    for (const auto &b : data.benchmarks) {
        for (int c = 0; c < kNumFig8Configs; ++c) {
            EXPECT_GT(b.ipc[static_cast<size_t>(c)], 0.0) << b.name;
            EXPECT_GT(b.ipns[static_cast<size_t>(c)], 0.0) << b.name;
        }
        EXPECT_GT(b.speedup, 0.0) << b.name;
    }
    EXPECT_GT(data.speedupMeanOfMeans, 0.0);
    EXPECT_GE(data.maxSpeedup, data.minSpeedup);
}

TEST_F(ExperimentsTest, Figure8GroupGeomeanBetweenMembers)
{
    const Fig8Data data = runFigure8(*sys_, {"gzip", "crafty"});
    ASSERT_EQ(data.groups.size(), 1u);
    const double lo = std::min(data.benchmarks[0].ipc[0],
                               data.benchmarks[1].ipc[0]);
    const double hi = std::max(data.benchmarks[0].ipc[0],
                               data.benchmarks[1].ipc[0]);
    EXPECT_GE(data.groups[0].ipcGeomean[0], lo);
    EXPECT_LE(data.groups[0].ipcGeomean[0], hi);
}

TEST_F(ExperimentsTest, Figure9BreakdownSumsUp)
{
    const Fig9Data data = runFigure9(*sys_, {"gzip"});
    const PowerBreakdown &b = data.planar;
    double block_sum = b.l2W;
    for (double w : b.blockW)
        block_sum += w;
    EXPECT_NEAR(b.totalW, b.clockW + b.leakW + b.dynamicW, 1e-6);
    EXPECT_NEAR(b.dynamicW, block_sum, 1e-6);
    ASSERT_EQ(data.savings.size(), 1u);
    EXPECT_EQ(data.minSaving.name, data.maxSaving.name);
}

TEST_F(ExperimentsTest, Figure10CasesPopulated)
{
    const Fig10Data data = runFigure10(*sys_, {"mpeg2enc"});
    EXPECT_EQ(data.worstPlanar.app, "mpeg2enc");
    EXPECT_EQ(data.worstPlanar.config, "Base");
    EXPECT_EQ(data.worstNoTh3d.config, "3D-noTH");
    EXPECT_EQ(data.worstTh3d.config, "3D");
    EXPECT_EQ(data.isoPower.config, "3D-isoPower");
    EXPECT_GT(data.worstPlanar.report.peakK, 320.0);
    // Iso-power case burns the planar wattage on the 3D stack.
    EXPECT_NEAR(data.isoPower.totalW, data.worstPlanar.totalW, 0.5);
    EXPECT_EQ(data.sameApp, data.worstPlanar.app);
}

TEST_F(ExperimentsTest, WidthStudyRowsComplete)
{
    const WidthStudyData data =
        runWidthStudy(*sys_, {"mpeg2enc", "yacr2"});
    ASSERT_EQ(data.rows.size(), 2u);
    for (const auto &row : data.rows) {
        EXPECT_GT(row.accuracy, 0.5);
        EXPECT_LE(row.accuracy, 1.0);
        EXPECT_GE(row.pamHitRate, 0.0);
        EXPECT_LE(row.pamHitRate, 1.0);
        EXPECT_GE(row.pveEncodable, 0.0);
        EXPECT_LE(row.pveEncodable, 1.0);
    }
    // The media benchmark herds far more D-cache reads than the
    // pointer benchmark.
    EXPECT_GT(data.rows[0].lowWidthFrac, data.rows[1].lowWidthFrac);
}

TEST_F(ExperimentsTest, SchedulerAblationChangesTopDieShare)
{
    // Top-die-first allocation is what herds scheduler activity; the
    // round-robin ablation spreads it out.
    System &sys = *sys_;
    CoreConfig herd = makeConfig(ConfigKind::ThreeD, sys.circuits());
    CoreConfig rr = herd;
    rr.schedAlloc = SchedAllocPolicy::RoundRobin;
    const CoreResult r_herd = sys.runCore("gzip", herd);
    const CoreResult r_rr = sys.runCore("gzip", rr);
    EXPECT_GT(r_herd.activity.schedAllocDie[0].value(),
              r_rr.activity.schedAllocDie[0].value());
    // Broadcast gating: herded runs touch lower dies far less often.
    EXPECT_LT(r_herd.activity.schedWakeupDie[3].value(),
              r_rr.activity.schedWakeupDie[3].value());
}

TEST_F(ExperimentsTest, PamAblationLosesMemoization)
{
    System &sys = *sys_;
    CoreConfig on = makeConfig(ConfigKind::ThreeD, sys.circuits());
    CoreConfig off = on;
    off.pamEnabled = false;
    const CoreResult r_on = sys.runCore("gzip", on);
    const CoreResult r_off = sys.runCore("gzip", off);
    EXPECT_GT(r_on.perf.pamHits.value(), 0u);
    EXPECT_EQ(r_off.perf.pamHits.value(), 0u);
    EXPECT_GT(r_on.activity.lsqSearchLow.value(),
              r_off.activity.lsqSearchLow.value());
}

TEST_F(ExperimentsTest, AblationRowsFollowTheFull3DBaseline)
{
    System &sys = *sys_;
    const AblationData data = runAblation(sys);
    const std::vector<std::string> apps{"mpeg2enc", "gzip", "yacr2"};
    ASSERT_EQ(data.apps, apps);
    ASSERT_EQ(data.rows.size(), 9 * apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        SCOPED_TRACE(apps[a]);
        // Each app's first variant is the untouched 3D preset, so it
        // is the same memoized run as runCore on that preset.
        const AblationRow &full = data.rows[9 * a];
        EXPECT_EQ(full.ipc,
                  sys.runCore(apps[a], ConfigKind::ThreeD).perf.ipc());
        // Without width prediction nothing is herded: the top die
        // loses its share of the dynamic power and the chip burns more.
        const AblationRow &no_herding = data.rows[9 * a + 8];
        EXPECT_LT(no_herding.topDieFrac, full.topDieFrac);
        EXPECT_GT(no_herding.totalW, full.totalW);
    }
}

} // namespace
} // namespace th
