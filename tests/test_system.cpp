#include <gtest/gtest.h>

#include "sim/system.h"

namespace th {
namespace {

class SystemTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        SimOptions opts;
        opts.instructions = 50000;
        opts.warmupInstructions = 30000;
        sys_ = new System(opts);
    }

    static void TearDownTestSuite()
    {
        delete sys_;
        sys_ = nullptr;
    }

    static System *sys_;
};

System *SystemTest::sys_ = nullptr;

TEST_F(SystemTest, CircuitFrequenciesExposed)
{
    EXPECT_NEAR(sys_->circuits().frequency2dGhz(), 2.66, 1e-9);
    EXPECT_GT(sys_->circuits().frequency3dGhz(), 3.7);
}

TEST_F(SystemTest, RunCoreProducesCommits)
{
    const CoreResult r = sys_->runCore("gzip", ConfigKind::Base);
    // The commit stage retires up to 4 per cycle, so the run may
    // overshoot the target by a fraction of one group.
    EXPECT_GE(r.perf.committedInsts.value(), 50000u);
    EXPECT_LE(r.perf.committedInsts.value(), 50003u);
    EXPECT_GT(r.perf.ipc(), 0.05);
}

TEST_F(SystemTest, EvaluateProducesPower)
{
    System &sys = *sys_;
    const Evaluation ev = sys.evaluate("gzip", ConfigKind::Base);
    EXPECT_GT(ev.power.totalW(), 20.0);
    EXPECT_LT(ev.power.totalW(), 150.0);
    EXPECT_EQ(ev.benchmark, "gzip");
}

TEST_F(SystemTest, ThermalReportSane)
{
    System &sys = *sys_;
    const Evaluation ev = sys.evaluate("gzip", ConfigKind::Base);
    const ThermalReport rep = sys.thermal(ev);
    EXPECT_GT(rep.peakK, kAmbientK);
    EXPECT_LT(rep.peakK, 500.0);
}

TEST_F(SystemTest, FloorplansMatchConfigs)
{
    EXPECT_GT(sys_->planarFloorplan().chipW,
              sys_->stackedFloorplan().chipW);
}

TEST_F(SystemTest, IpnsCombinesIpcAndClock)
{
    const CoreResult base = sys_->runCore("susan", ConfigKind::Base);
    EXPECT_NEAR(base.ipns(), base.perf.ipc() * 2.66, 1e-9);
}

} // namespace
} // namespace th
