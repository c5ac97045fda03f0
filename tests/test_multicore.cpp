#include <gtest/gtest.h>

#include "common/threadpool.h"
#include "io/serialize.h"
#include "multicore/contention.h"
#include "multicore/multicore.h"
#include "sim/configs.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "sim/system.h"

namespace th {
namespace {

// ---------------------------------------------------------------------
// Banked-L2 contention model.
// ---------------------------------------------------------------------

TEST(BankedL2, SingleCoreSeesNoContention)
{
    BankedL2Model m(4, 4, 8);
    for (const std::uint64_t load : {0ull, 100ull, 5000ull}) {
        const auto c = m.step({load}, 20000);
        ASSERT_EQ(c.size(), 1u);
        EXPECT_EQ(c[0].extraPerAccess, 0.0) << load;
        EXPECT_EQ(c[0].stallCycles, 0.0) << load;
    }
}

TEST(BankedL2, ContentionGrowsWithSharers)
{
    const auto extra_at = [](int cores) {
        BankedL2Model m(4, 4, 8);
        const std::vector<std::uint64_t> acc(
            static_cast<size_t>(cores), 2000);
        return m.step(acc, 20000)[0].extraPerAccess;
    };
    const double two = extra_at(2);
    const double four = extra_at(4);
    const double eight = extra_at(8);
    EXPECT_GT(two, 0.0);
    EXPECT_GT(four, two);
    EXPECT_GT(eight, four);
}

TEST(BankedL2, MoreBanksRelieveContention)
{
    const auto extra_with = [](int banks) {
        BankedL2Model m(banks, 4, 8);
        return m.step({2000, 2000, 2000, 2000}, 20000)[0].extraPerAccess;
    };
    EXPECT_GT(extra_with(1), extra_with(4));
    EXPECT_GT(extra_with(4), extra_with(16));
}

TEST(BankedL2, RoundRobinSplitConservesAccesses)
{
    BankedL2Model m(4, 4, 8);
    m.step({10, 11}, 20000); // 21 = 4*5 + 1: one bank gets the extra.
    std::uint64_t total = 0;
    for (int b = 0; b < m.banks(); ++b) {
        total += m.bankAccesses(b);
        EXPECT_GE(m.bankAccesses(b), 5u);
        EXPECT_LE(m.bankAccesses(b), 6u);
    }
    EXPECT_EQ(total, 21u);
}

TEST(BankedL2, OccupancyStatsAccumulate)
{
    BankedL2Model m(2, 4, 8);
    m.step({4000, 4000}, 20000); // busy: 8000*4/2 per bank = 16000/20000
    m.step({0, 0}, 20000);
    for (int b = 0; b < 2; ++b) {
        EXPECT_NEAR(m.bankPeakOccupancy(b), 0.8, 1e-12);
        EXPECT_NEAR(m.bankOccupancy(b), 0.4, 1e-12);
    }
}

TEST(BankedL2, PureFunctionOfAccessCounts)
{
    BankedL2Model a(4, 4, 8), b(4, 4, 8);
    const std::vector<std::uint64_t> acc = {1234, 0, 987, 4321};
    const auto ca = a.step(acc, 20000);
    const auto cb = b.step(acc, 20000);
    ASSERT_EQ(ca.size(), cb.size());
    for (size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].extraPerAccess, cb[i].extraPerAccess) << i;
        EXPECT_EQ(ca[i].stallCycles, cb[i].stallCycles) << i;
    }
}

// ---------------------------------------------------------------------
// MulticoreReport serialization + store round trip.
// ---------------------------------------------------------------------

MulticoreReport
sampleReport()
{
    MulticoreReport r;
    r.config = "3D";
    r.policy = "fetch";
    r.triggerK = 360.0;
    r.freqGhz = 3.875;
    r.numCores = 2;
    r.l2Banks = 2;
    r.intervals = 6;
    r.startPeakK = 355.2;
    r.peakK = 364.9;
    r.finalPeakK = 358.3;
    r.totalTimeS = 0.12;
    r.timeAboveTriggerS = 0.03;
    r.throughputIpc = 3.1;
    for (int c = 0; c < 2; ++c) {
        MulticoreCoreStats cs;
        cs.benchmark = c ? "gzip" : "mpeg2enc";
        cs.ipcFree = 1.8 - c * 0.3;
        cs.ipcEffective = 1.6 - c * 0.3;
        cs.throttleDuty = 0.1 * c;
        cs.perfLost = 0.05 * c;
        cs.startPeakK = 352.0 + c;
        cs.peakK = 362.0 + c;
        cs.finalPeakK = 356.0 + c;
        cs.timeAboveTriggerS = 0.01 * c;
        cs.wallCycles = 120000 + static_cast<std::uint64_t>(c);
        cs.committed = 190000 - static_cast<std::uint64_t>(c) * 7;
        cs.l2Accesses = 4200 + static_cast<std::uint64_t>(c) * 13;
        cs.extraMissCycles = 1.7 + c;
        cs.contentionStallFrac = 0.02 * (c + 1);
        r.cores.push_back(cs);
    }
    for (int b = 0; b < 2; ++b) {
        MulticoreBankStats bs;
        bs.accesses = 2100 + static_cast<std::uint64_t>(b);
        bs.occupancy = 0.3 + 0.1 * b;
        bs.peakOccupancy = 0.6 + 0.1 * b;
        r.banks.push_back(bs);
    }
    return r;
}

TEST(MulticoreSerialize, ReportRoundTripsBitIdentical)
{
    const MulticoreReport r = sampleReport();
    Encoder enc;
    encodeMulticoreReport(enc, r);

    Decoder dec(enc.data());
    MulticoreReport back;
    ASSERT_TRUE(decodeMulticoreReport(dec, back));
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(serializeMulticoreReport(back), serializeMulticoreReport(r));
    ASSERT_EQ(back.cores.size(), 2u);
    ASSERT_EQ(back.banks.size(), 2u);
    EXPECT_EQ(back.cores[1].benchmark, "gzip");
    EXPECT_EQ(back.cores[1].l2Accesses, r.cores[1].l2Accesses);
    EXPECT_EQ(back.cores[0].timeAboveTriggerS, r.cores[0].timeAboveTriggerS);
    EXPECT_EQ(back.banks[1].accesses, r.banks[1].accesses);
}

TEST(MulticoreSerialize, TruncatedReportFailsDecodeAtEveryLength)
{
    Encoder enc;
    encodeMulticoreReport(enc, sampleReport());
    const std::vector<std::uint8_t> bytes = enc.data();
    for (std::size_t cut = 0; cut < bytes.size(); cut += 5) {
        std::vector<std::uint8_t> prefix(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<long>(cut));
        Decoder dec(prefix);
        MulticoreReport back;
        EXPECT_FALSE(decodeMulticoreReport(dec, back)) << "cut=" << cut;
    }
}

// ---------------------------------------------------------------------
// Config hash.
// ---------------------------------------------------------------------

TEST(MulticoreConfigHash, SensitiveToEveryKnob)
{
    const CoreConfig cfg;
    const MulticoreConfig base;
    const std::uint64_t h0 = multicoreConfigHash(cfg, base);

    MulticoreConfig m = base;
    m.numCores += 1;
    EXPECT_NE(multicoreConfigHash(cfg, m), h0) << "numCores";
    m = base;
    m.l2Banks += 1;
    EXPECT_NE(multicoreConfigHash(cfg, m), h0) << "l2Banks";
    m = base;
    m.l2BankServiceCycles += 1;
    EXPECT_NE(multicoreConfigHash(cfg, m), h0) << "l2BankServiceCycles";
    m = base;
    m.l2MshrPerCore += 1;
    EXPECT_NE(multicoreConfigHash(cfg, m), h0) << "l2MshrPerCore";
    m = base;
    m.benchmarks = {"gzip"};
    EXPECT_NE(multicoreConfigHash(cfg, m), h0) << "benchmarks";
    m = base;
    m.dtm.triggers.triggerK += 0.5;
    EXPECT_NE(multicoreConfigHash(cfg, m), h0) << "dtm knobs";

    CoreConfig other = cfg;
    other.robSize += 8;
    EXPECT_NE(multicoreConfigHash(other, base), h0) << "core config";
}

// ---------------------------------------------------------------------
// Engine integration (small windows to stay fast).
// ---------------------------------------------------------------------

class MulticoreEngineTest : public ::testing::Test
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

    static MulticoreConfig tinyConfig(int cores)
    {
        MulticoreConfig mc;
        mc.numCores = cores;
        mc.benchmarks = {"mpeg2enc"};
        mc.dtm.intervalCycles = 20000;
        mc.dtm.maxIntervals = 6;
        mc.dtm.warmupInstructions = 5000;
        mc.dtm.gridN = 8;
        mc.dtm.policy = DtmPolicyKind::None;
        return mc;
    }

    static System *sys_;
};

System *MulticoreEngineTest::sys_ = nullptr;

TEST_F(MulticoreEngineTest, SingleCoreRunsContentionFree)
{
    const MulticoreReport r =
        sys_->runMulticore(ConfigKind::ThreeDNoTH, tinyConfig(1));
    EXPECT_EQ(r.numCores, 1u);
    ASSERT_EQ(r.cores.size(), 1u);
    ASSERT_EQ(r.banks.size(), 4u);
    EXPECT_EQ(r.cores[0].benchmark, "mpeg2enc");
    EXPECT_EQ(r.cores[0].extraMissCycles, 0.0)
        << "a core alone on the stack must queue behind nobody";
    EXPECT_EQ(r.cores[0].contentionStallFrac, 0.0);
    EXPECT_GT(r.cores[0].ipcFree, 0.0);
    EXPECT_GT(r.peakK, 300.0);
    EXPECT_GE(r.peakK, r.finalPeakK - 1e-9);
}

TEST_F(MulticoreEngineTest, DegenerateDualCoreMatchesDtmPerfStats)
{
    // The N=2 stack is the paper's dual-core chip: with contention
    // never perturbing the cycle cores and the same trace stream, the
    // per-core perf stats must be byte-identical to the single-core
    // DTM engine's run of the same benchmark.
    DtmOptions o;
    o.intervalCycles = 20000;
    o.maxIntervals = 6;
    o.warmupInstructions = 5000;
    o.gridN = 8;
    o.policy = DtmPolicyKind::None;
    const DtmReport d =
        sys_->runDtm("mpeg2enc", ConfigKind::ThreeDNoTH, o);
    const MulticoreReport m =
        sys_->runMulticore(ConfigKind::ThreeDNoTH, tinyConfig(2));

    ASSERT_EQ(m.cores.size(), 2u);
    for (const auto &c : m.cores) {
        EXPECT_EQ(c.committed, d.committed);
        EXPECT_EQ(c.wallCycles, d.wallCycles);
        EXPECT_EQ(c.ipcFree, d.ipcFree);
        EXPECT_EQ(c.ipcEffective, d.ipcEffective);
        EXPECT_EQ(c.throttleDuty, 0.0);
    }
}

TEST_F(MulticoreEngineTest, NeighborCouplingHeatsTheStack)
{
    const MulticoreReport one =
        sys_->runMulticore(ConfigKind::ThreeDNoTH, tinyConfig(1));
    const MulticoreReport four =
        sys_->runMulticore(ConfigKind::ThreeDNoTH, tinyConfig(4));
    double hot1 = 0.0, hot4 = 0.0;
    for (const auto &c : one.cores)
        hot1 = std::max(hot1, c.peakK);
    for (const auto &c : four.cores)
        hot4 = std::max(hot4, c.peakK);
    EXPECT_GT(hot4, hot1 + 1.0)
        << "neighbour cores must be visible through the silicon";
}

TEST_F(MulticoreEngineTest, BitIdenticalAcrossThreadCounts)
{
    const int restore = ThreadPool::global().threads();
    MulticoreConfig mc = tinyConfig(4);
    mc.benchmarks = {"mpeg2enc", "gzip"};

    SimOptions opts;
    opts.instructions = 20000;
    opts.warmupInstructions = 5000;

    ThreadPool::setGlobalThreads(1);
    System s1(opts);
    const MulticoreReport r1 =
        s1.runMulticore(ConfigKind::ThreeD, mc);

    ThreadPool::setGlobalThreads(4);
    System s4(opts);
    const MulticoreReport r4 =
        s4.runMulticore(ConfigKind::ThreeD, mc);

    ThreadPool::setGlobalThreads(restore);
    EXPECT_EQ(serializeMulticoreReport(r1), serializeMulticoreReport(r4));
}

TEST_F(MulticoreEngineTest, RepeatRunsHitTheMemoryCache)
{
    const MulticoreReport a =
        sys_->runMulticore(ConfigKind::ThreeD, tinyConfig(2));
    const MulticoreReport b =
        sys_->runMulticore(ConfigKind::ThreeD, tinyConfig(2));
    EXPECT_EQ(serializeMulticoreReport(a), serializeMulticoreReport(b));
}

TEST_F(MulticoreEngineTest, StudyGridIsCountMajorConfigMinor)
{
    MulticoreConfig mc = tinyConfig(1);
    const MulticoreStudyData data =
        runMulticoreStudy(*sys_, mc, {1, 2});
    ASSERT_EQ(data.cases.size(), 4u);
    EXPECT_EQ(data.cases[0].cores, 1);
    EXPECT_EQ(data.cases[0].config, ConfigKind::ThreeDNoTH);
    EXPECT_EQ(data.cases[1].cores, 1);
    EXPECT_EQ(data.cases[1].config, ConfigKind::ThreeD);
    EXPECT_EQ(data.cases[2].cores, 2);
    EXPECT_EQ(data.cases[3].cores, 2);

    const std::string text = renderMulticoreStudy(data);
    EXPECT_NE(text.find("Many-core neighbor coupling"), std::string::npos);
    EXPECT_NE(text.find("neighbor coupling (no herding)"),
              std::string::npos);
}

TEST_F(MulticoreEngineTest, RenderListsEveryCoreAndBank)
{
    const MulticoreReport r =
        sys_->runMulticore(ConfigKind::ThreeD, tinyConfig(2));
    const std::string text = renderMulticore(r);
    EXPECT_NE(text.find("Many-core stack"), std::string::npos);
    EXPECT_NE(text.find("0:mpeg2enc"), std::string::npos);
    EXPECT_NE(text.find("1:mpeg2enc"), std::string::npos);
    EXPECT_NE(text.find("stack"), std::string::npos);
    EXPECT_NE(text.find("Bank"), std::string::npos);
}

} // namespace
} // namespace th
