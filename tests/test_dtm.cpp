#include <gtest/gtest.h>

#include "dtm/engine.h"
#include "dtm/policy.h"
#include "io/serialize.h"
#include "sim/configs.h"
#include "sim/experiments.h"
#include "sim/system.h"

namespace th {
namespace {

// ---------------------------------------------------------------------
// Policies.
// ---------------------------------------------------------------------

DtmTriggers
triggers()
{
    DtmTriggers t;
    t.triggerK = 350.0;
    t.hysteresisK = 1.5;
    return t;
}

TEST(DtmPolicy, Names)
{
    EXPECT_STREQ(dtmPolicyName(DtmPolicyKind::None), "none");
    EXPECT_STREQ(dtmPolicyName(DtmPolicyKind::ClockGate), "clockgate");
    EXPECT_STREQ(dtmPolicyName(DtmPolicyKind::FetchThrottle), "fetch");

    DtmPolicyKind k = DtmPolicyKind::None;
    EXPECT_TRUE(dtmPolicyByName("clockgate", k));
    EXPECT_EQ(k, DtmPolicyKind::ClockGate);
    EXPECT_TRUE(dtmPolicyByName("fetch", k));
    EXPECT_EQ(k, DtmPolicyKind::FetchThrottle);
    EXPECT_TRUE(dtmPolicyByName("none", k));
    EXPECT_EQ(k, DtmPolicyKind::None);
    k = DtmPolicyKind::ClockGate;
    EXPECT_FALSE(dtmPolicyByName("bogus", k));
    EXPECT_EQ(k, DtmPolicyKind::ClockGate) << "out untouched on failure";
}

TEST(DtmPolicy, NoneNeverThrottles)
{
    auto p = makeDtmPolicy(DtmPolicyKind::None, triggers());
    for (double t : {300.0, 350.0, 400.0, 1000.0}) {
        const DtmControl c = p->decide(t);
        EXPECT_FALSE(c.throttled()) << t;
        EXPECT_EQ(c.dutyFraction(), 1.0);
    }
}

TEST(DtmPolicy, ClockGateLadderEscalatesOneLevelPerInterval)
{
    auto p = makeDtmPolicy(DtmPolicyKind::ClockGate, triggers());
    EXPECT_EQ(p->decide(340.0).clockDuty, 1.0);
    // Above trigger: one rung per decision, down to the floor.
    EXPECT_EQ(p->decide(351.0).clockDuty, 0.75);
    EXPECT_EQ(p->decide(351.0).clockDuty, 0.5);
    EXPECT_EQ(p->decide(351.0).clockDuty, 0.25);
    EXPECT_EQ(p->decide(351.0).clockDuty, 0.25) << "floor holds";
}

TEST(DtmPolicy, ClockGateHysteresisHoldsInTheDeadBand)
{
    auto p = makeDtmPolicy(DtmPolicyKind::ClockGate, triggers());
    p->decide(351.0); // -> 0.75
    p->decide(351.0); // -> 0.5

    // Inside (trigger - hysteresis, trigger]: hold the current level.
    EXPECT_EQ(p->decide(349.5).clockDuty, 0.5);
    EXPECT_EQ(p->decide(348.6).clockDuty, 0.5);

    // Below trigger - hysteresis: release one rung per decision.
    EXPECT_EQ(p->decide(348.0).clockDuty, 0.75);
    EXPECT_EQ(p->decide(348.0).clockDuty, 1.0);
    EXPECT_EQ(p->decide(348.0).clockDuty, 1.0) << "unthrottled holds";
}

TEST(DtmPolicy, FetchThrottleLadderAndDuty)
{
    auto p = makeDtmPolicy(DtmPolicyKind::FetchThrottle, triggers());
    const DtmControl free = p->decide(340.0);
    EXPECT_FALSE(free.throttled());
    EXPECT_EQ(free.fetchOn, free.fetchPeriod);

    const DtmControl l1 = p->decide(351.0);
    EXPECT_TRUE(l1.throttled());
    EXPECT_EQ(l1.clockDuty, 1.0) << "fetch policy leaves the clock on";
    EXPECT_NEAR(l1.dutyFraction(), 0.75, 1e-12);
    EXPECT_NEAR(p->decide(351.0).dutyFraction(), 0.5, 1e-12);
    EXPECT_NEAR(p->decide(351.0).dutyFraction(), 0.25, 1e-12);
    EXPECT_NEAR(p->decide(351.0).dutyFraction(), 0.25, 1e-12);
}

// ---------------------------------------------------------------------
// DtmReport serialization.
// ---------------------------------------------------------------------

DtmReport
sampleReport()
{
    DtmReport r;
    r.benchmark = "mpeg2enc";
    r.config = "3D-noTH";
    r.policy = "clockgate";
    r.triggerK = 360.0;
    r.freqGhz = 3.875;
    r.startPeakK = 364.8;
    r.peakK = 365.1;
    r.finalPeakK = 356.2;
    r.totalTimeS = 0.3;
    r.timeAboveTriggerS = 0.08;
    r.throttleDuty = 0.36;
    r.perfLost = 0.21;
    r.ipcFree = 1.9;
    r.ipcEffective = 1.5;
    r.wallCycles = 2000000;
    r.committed = 3000000;
    for (int i = 0; i < 5; ++i) {
        DtmIntervalSample s;
        s.timeS = 0.0076 * (i + 1);
        s.peakK = 360.0 + i;
        s.clockDuty = i % 2 ? 0.75 : 1.0;
        s.fetchOn = 1;
        s.fetchPeriod = 1;
        s.cycles = 50000 - static_cast<std::uint64_t>(i);
        s.committed = 90000 + static_cast<std::uint64_t>(i) * 7;
        s.powerW = 88.5 - i;
        s.throttled = (i % 2) != 0;
        r.intervals.push_back(s);
    }
    return r;
}

TEST(DtmSerialize, ReportRoundTripsBitIdentical)
{
    const DtmReport r = sampleReport();
    Encoder enc;
    encodeDtmReport(enc, r);

    Decoder dec(enc.data());
    DtmReport back;
    ASSERT_TRUE(decodeDtmReport(dec, back));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(serializeDtmReport(back), serializeDtmReport(r));
    EXPECT_EQ(back.benchmark, r.benchmark);
    EXPECT_EQ(back.policy, r.policy);
    ASSERT_EQ(back.intervals.size(), r.intervals.size());
    EXPECT_EQ(back.intervals[3].cycles, r.intervals[3].cycles);
    EXPECT_EQ(back.intervals[1].throttled, r.intervals[1].throttled);
    EXPECT_EQ(back.wallCycles, r.wallCycles);
}

TEST(DtmSerialize, TruncatedReportFailsDecodeAtEveryLength)
{
    Encoder enc;
    encodeDtmReport(enc, sampleReport());
    const std::vector<std::uint8_t> bytes = enc.data();
    for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<long>(cut));
        Decoder dec(prefix);
        DtmReport back;
        EXPECT_FALSE(decodeDtmReport(dec, back)) << "cut=" << cut;
    }
}

TEST(DtmSerialize, AbsurdIntervalCountRejected)
{
    // A corrupt count must not trigger a giant allocation: the decoder
    // cross-checks the claimed count against the remaining payload.
    Encoder enc;
    encodeDtmReport(enc, sampleReport());
    std::vector<std::uint8_t> bytes = enc.data();
    // The interval count is the u32 right before the first sample:
    // find it by re-encoding with zero intervals and diffing lengths.
    DtmReport empty = sampleReport();
    empty.intervals.clear();
    Encoder enc0;
    encodeDtmReport(enc0, empty);
    const std::size_t count_off = enc0.size() - 4;
    bytes[count_off + 3] = 0x7F; // count |= 0x7F000000
    Decoder dec(bytes);
    DtmReport back;
    EXPECT_FALSE(decodeDtmReport(dec, back));
}

// ---------------------------------------------------------------------
// Store keys.
// ---------------------------------------------------------------------

TEST(DtmConfigHash, SensitiveToEveryKnob)
{
    const CoreConfig cfg;
    const DtmOptions base;
    const std::uint64_t h0 = dtmConfigHash(cfg, base);

    DtmOptions o = base;
    o.intervalCycles += 1;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "intervalCycles";
    o = base;
    o.maxIntervals += 1;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "maxIntervals";
    o = base;
    o.warmupInstructions += 1;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "warmupInstructions";
    o = base;
    o.policy = DtmPolicyKind::FetchThrottle;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "policy";
    o = base;
    o.triggers.triggerK += 0.5;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "triggerK";
    o = base;
    o.triggers.hysteresisK += 0.5;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "hysteresisK";
    o = base;
    o.timeDilation *= 2.0;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "timeDilation";
    o = base;
    o.gridN += 4;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "gridN";
    o = base;
    o.maxDtS *= 0.5;
    EXPECT_NE(dtmConfigHash(cfg, o), h0) << "maxDtS";

    // And to the underlying core configuration.
    CoreConfig other = cfg;
    other.robSize += 8;
    EXPECT_NE(dtmConfigHash(other, base), h0) << "core config";
}

// ---------------------------------------------------------------------
// Engine integration (small windows to stay fast).
// ---------------------------------------------------------------------

class DtmEngineTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        SimOptions opts;
        opts.instructions = 20000;
        opts.warmupInstructions = 5000;
        ::unsetenv("TH_STORE_DIR");
        sys_ = new System(opts);
    }

    static void TearDownTestSuite()
    {
        delete sys_;
        sys_ = nullptr;
    }

    static DtmOptions tinyOptions()
    {
        DtmOptions o;
        o.intervalCycles = 20000;
        o.maxIntervals = 6;
        o.warmupInstructions = 5000;
        o.gridN = 8;
        return o;
    }

    static System *sys_;
};

System *DtmEngineTest::sys_ = nullptr;

TEST_F(DtmEngineTest, FreeRunReportIsConsistent)
{
    DtmOptions o = tinyOptions();
    o.policy = DtmPolicyKind::None;
    const DtmReport r =
        sys_->runDtm("mpeg2enc", ConfigKind::ThreeDNoTH, o);

    EXPECT_EQ(r.benchmark, "mpeg2enc");
    EXPECT_EQ(r.config, "3D-noTH");
    EXPECT_EQ(r.policy, "none");
    EXPECT_GT(r.freqGhz, 0.0);
    EXPECT_GT(r.startPeakK, 300.0);
    EXPECT_GE(r.peakK, r.finalPeakK - 1e-9);
    ASSERT_GT(r.intervals.size(), 0u);
    ASSERT_LE(r.intervals.size(), 6u);
    EXPECT_EQ(r.throttleDuty, 0.0) << "none policy never throttles";
    // ipcFree is measured on the first interval alone, so ordinary
    // interval-to-interval IPC variation keeps perfLost near (not
    // necessarily exactly) zero for an unthrottled run.
    EXPECT_LT(r.perfLost, 0.15);
    EXPECT_GT(r.ipcFree, 0.0);
    EXPECT_GT(r.committed, 0u);
    EXPECT_EQ(r.wallCycles,
              o.intervalCycles * r.intervals.size());
    for (const auto &s : r.intervals) {
        EXPECT_FALSE(s.throttled);
        EXPECT_EQ(s.clockDuty, 1.0);
        EXPECT_GT(s.powerW, 0.0);
        EXPECT_GT(s.peakK, 300.0);
    }
    // Sample times advance monotonically.
    for (std::size_t i = 1; i < r.intervals.size(); ++i)
        EXPECT_GT(r.intervals[i].timeS, r.intervals[i - 1].timeS);
    EXPECT_NEAR(r.totalTimeS, r.intervals.back().timeS, 1e-12);
}

TEST_F(DtmEngineTest, LowTriggerForcesThrottlingAndCostsPerformance)
{
    DtmOptions o = tinyOptions();
    o.policy = DtmPolicyKind::ClockGate;
    o.triggers.triggerK = 310.0; // Far below any operating point.
    const DtmReport r = sys_->runDtm("mpeg2enc", ConfigKind::ThreeD, o);

    EXPECT_GT(r.throttleDuty, 0.0);
    EXPECT_GT(r.perfLost, 0.0);
    EXPECT_GT(r.timeAboveTriggerS, 0.0);
    EXPECT_LT(r.ipcEffective, r.ipcFree);
    bool any_throttled = false;
    for (const auto &s : r.intervals)
        any_throttled = any_throttled || s.throttled;
    EXPECT_TRUE(any_throttled);
}

TEST_F(DtmEngineTest, HighTriggerNeverEngages)
{
    DtmOptions o = tinyOptions();
    o.policy = DtmPolicyKind::ClockGate;
    o.triggers.triggerK = 1000.0;
    const DtmReport r = sys_->runDtm("mpeg2enc", ConfigKind::Base, o);
    EXPECT_EQ(r.throttleDuty, 0.0);
    EXPECT_EQ(r.timeAboveTriggerS, 0.0);
    for (const auto &s : r.intervals)
        EXPECT_FALSE(s.throttled);
}

TEST_F(DtmEngineTest, RepeatRunsAreDeterministic)
{
    DtmOptions o = tinyOptions();
    o.policy = DtmPolicyKind::FetchThrottle;
    o.triggers.triggerK = 330.0;
    const DtmReport a = sys_->runDtm("gzip", ConfigKind::ThreeD, o);
    const DtmReport b = sys_->runDtm("gzip", ConfigKind::ThreeD, o);
    EXPECT_EQ(serializeDtmReport(a), serializeDtmReport(b));
}

TEST_F(DtmEngineTest, StudyCoversTheThreeThermalConfigs)
{
    DtmOptions o = tinyOptions();
    o.maxIntervals = 3;
    const DtmStudyData data = runDtmStudy(*sys_, "mpeg2enc", o);
    ASSERT_EQ(data.cases.size(), 3u);
    EXPECT_EQ(data.cases[0].config, ConfigKind::Base);
    EXPECT_EQ(data.cases[1].config, ConfigKind::ThreeDNoTH);
    EXPECT_EQ(data.cases[2].config, ConfigKind::ThreeD);
    for (const auto &c : data.cases) {
        EXPECT_EQ(c.report.benchmark, "mpeg2enc");
        EXPECT_FALSE(c.report.intervals.empty());
    }
}

} // namespace
} // namespace th
