#include <gtest/gtest.h>

#include <iterator>

#include "core/pipeline.h"
#include "io/serialize.h"
#include "sim/configs.h"
#include "test_util.h"
#include "trace/suites.h"

namespace th {
namespace {

using test::VectorTrace;

CoreConfig
baseCfg()
{
    CoreConfig cfg;
    return cfg;
}

CoreConfig
thCfg()
{
    CoreConfig cfg;
    cfg.thermalHerding = true;
    return cfg;
}

TEST(Pipeline, IndependentAlusApproachCommitWidth)
{
    VectorTrace trace(test::independentAlus(20000));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 20000);
    EXPECT_EQ(r.perf.committedInsts.value(), 20000u);
    // Independent single-cycle ALU ops: bounded by the 3 integer
    // ALUs (Table 1), approached closely.
    EXPECT_GT(r.perf.ipc(), 2.5);
    EXPECT_LE(r.perf.ipc(), 3.05);
}

TEST(Pipeline, DependentChainSerializes)
{
    VectorTrace trace(test::dependentChain(5000));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 5000);
    // One op per cycle through the chain.
    EXPECT_GT(r.perf.ipc(), 0.85);
    EXPECT_LT(r.perf.ipc(), 1.15);
}

TEST(Pipeline, DrainsWhenTraceEnds)
{
    VectorTrace trace(test::independentAlus(100));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 100000);
    EXPECT_EQ(r.perf.committedInsts.value(), 100u);
}

TEST(Pipeline, NopsCommit)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 200; ++i) {
        TraceRecord r;
        r.pc = 0x1000 + static_cast<Addr>(i) * 4;
        r.op = OpClass::Nop;
        recs.push_back(r);
    }
    VectorTrace trace(std::move(recs));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 200);
    EXPECT_EQ(r.perf.committedInsts.value(), 200u);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    VectorTrace t1(test::independentAlus(5000));
    VectorTrace t2(test::independentAlus(5000));
    Core c1(baseCfg()), c2(baseCfg());
    EXPECT_EQ(c1.run(t1, 5000).perf.cycles.value(),
              c2.run(t2, 5000).perf.cycles.value());
}

TEST(Pipeline, MispredictedBranchCostsPenalty)
{
    // Alternating taken/not-taken branch with an unpredictable-ish
    // pattern vs no branches at all.
    std::vector<TraceRecord> with_branches;
    std::uint64_t x = 42;
    for (int i = 0; i < 8000; ++i) {
        if (i % 4 == 3) {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            // Random direction, sequential fall-through target so a
            // taken outcome redirects.
            const Addr pc = 0x1000 + static_cast<Addr>(i % 64) * 4;
            with_branches.push_back(
                test::branchOp(pc, (x & 1) != 0, pc + 4));
        } else {
            with_branches.push_back(test::aluOp(
                0x1000 + static_cast<Addr>(i % 64) * 4,
                static_cast<RegIndex>(i % 16), 3));
        }
    }
    VectorTrace bt(std::move(with_branches));
    Core bc(baseCfg());
    const CoreResult br = bc.run(bt, 8000);

    VectorTrace at(test::independentAlus(8000));
    Core ac(baseCfg());
    const CoreResult ar = ac.run(at, 8000);

    EXPECT_GT(br.perf.branchMispredicts.value(), 100u);
    EXPECT_LT(br.perf.ipc(), ar.perf.ipc() * 0.6);

    // Each mispredict costs at least the minimum penalty.
    const double extra_cycles =
        static_cast<double>(br.perf.cycles.value()) -
        static_cast<double>(ar.perf.cycles.value());
    EXPECT_GT(extra_cycles,
              0.8 * baseCfg().bmispredMin() *
              static_cast<double>(br.perf.branchMispredicts.value()));
}

TEST(Pipeline, PredictableBranchesAreCheap)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 8000; ++i) {
        const Addr pc = 0x1000 + static_cast<Addr>(i % 8) * 4;
        if (i % 8 == 7) {
            recs.push_back(test::branchOp(pc, true, 0x1000));
        } else {
            recs.push_back(test::aluOp(
                pc, static_cast<RegIndex>(i % 16), 3));
        }
    }
    VectorTrace trace(std::move(recs));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 8000);
    EXPECT_LT(r.perf.branchMispredRate(), 0.02);
    EXPECT_GT(r.perf.ipc(), 2.0);
}

TEST(Pipeline, LoadMissesSlowTheCore)
{
    // Strided loads over 16MB: every line misses to DRAM.
    std::vector<TraceRecord> cold, hot;
    for (int i = 0; i < 4000; ++i) {
        cold.push_back(test::loadOp(
            0x1000 + static_cast<Addr>(i % 32) * 4,
            static_cast<RegIndex>(i % 8),
            0x20000000 + static_cast<Addr>(i) * 64));
        hot.push_back(test::loadOp(
            0x1000 + static_cast<Addr>(i % 32) * 4,
            static_cast<RegIndex>(i % 8),
            0x20000000 + static_cast<Addr>(i % 64) * 64));
    }
    VectorTrace cold_t(std::move(cold)), hot_t(std::move(hot));
    Core cold_c(baseCfg()), hot_c(baseCfg());
    const CoreResult rc = cold_c.run(cold_t, 4000);
    const CoreResult rh = hot_c.run(hot_t, 4000);
    EXPECT_GT(rc.perf.dl1Misses.value(), 3000u);
    EXPECT_LT(rc.perf.ipc(), rh.perf.ipc() * 0.5);
}

TEST(Pipeline, StoreForwardingHits)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 3000; ++i) {
        const Addr addr = 0x7000 + static_cast<Addr>((i / 2) % 4) * 8;
        if (i % 2 == 0)
            recs.push_back(test::storeOp(0x1000, addr, 77));
        else
            recs.push_back(test::loadOp(0x1010, 5, addr, 77));
    }
    VectorTrace trace(std::move(recs));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 3000);
    EXPECT_GT(r.perf.storeForwards.value(), 500u);
}

TEST(Pipeline, WarmupDiscardsStatistics)
{
    VectorTrace trace(test::independentAlus(30000));
    Core core(baseCfg());
    const CoreResult r = core.run(trace, 10000, 5000);
    EXPECT_EQ(r.perf.committedInsts.value(), 10000u);
    // Cycles should reflect only the measured window.
    EXPECT_LT(r.perf.cycles.value(), 10000u);
}

TEST(Pipeline, WidthPredictionOnlyWhenHerding)
{
    VectorTrace t1(test::independentAlus(3000));
    VectorTrace t2(test::independentAlus(3000));
    Core base(baseCfg()), herd(thCfg());
    const CoreResult rb = base.run(t1, 3000);
    const CoreResult rh = herd.run(t2, 3000);
    EXPECT_EQ(rb.perf.widthPredictions.value(), 0u);
    EXPECT_GT(rh.perf.widthPredictions.value(), 2500u);
}

TEST(Pipeline, LowWidthStreamHerdsToTopDie)
{
    VectorTrace trace(test::independentAlus(5000, /*value=*/7));
    Core core(thCfg());
    const CoreResult r = core.run(trace, 5000);
    // All values are low-width: predictor learns, ALU accesses gated.
    EXPECT_GT(r.activity.aluLow.value(), r.activity.aluFull.value());
    EXPECT_GT(r.activity.bypassLow.value(),
              r.activity.bypassFull.value());
    EXPECT_GT(r.perf.widthAccuracy(), 0.95);
}

TEST(Pipeline, FullWidthStreamStaysFull)
{
    VectorTrace trace(test::independentAlus(5000, 0x123456789ULL));
    Core core(thCfg());
    const CoreResult r = core.run(trace, 5000);
    EXPECT_EQ(r.activity.aluLow.value(), 0u);
    EXPECT_GT(r.activity.aluFull.value(), 4000u);
    EXPECT_EQ(r.perf.widthUnsafe.value(), 0u)
        << "full-width prediction is always safe";
}

TEST(Pipeline, WidthFlipsCauseBoundedStalls)
{
    // A site producing low values with occasional full results.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 8000; ++i) {
        const std::uint64_t v = (i % 50 == 49) ? 0xABCDEF012345ULL : 9;
        TraceRecord r = test::aluOp(
            0x1000 + static_cast<Addr>(i % 16) * 4,
            static_cast<RegIndex>(i % 8), v);
        recs.push_back(r);
    }
    VectorTrace trace(std::move(recs));
    Core core(thCfg());
    const CoreResult r = core.run(trace, 8000);
    EXPECT_GT(r.perf.widthUnsafe.value(), 0u);
    EXPECT_GT(r.perf.execReplays.value(), 0u)
        << "low operands producing full results must re-execute";
    EXPECT_GT(r.perf.widthAccuracy(), 0.9);
}

TEST(Pipeline, ThermalHerdingCostsLittleIpc)
{
    VectorTrace t1(test::independentAlus(20000, 7));
    VectorTrace t2(test::independentAlus(20000, 7));
    Core base(baseCfg()), herd(thCfg());
    const double ipc_base = base.run(t1, 20000).perf.ipc();
    const double ipc_th = herd.run(t2, 20000).perf.ipc();
    EXPECT_GT(ipc_th, ipc_base * 0.95);
}

TEST(Pipeline, EncodableLoadValuesCountAsLow)
{
    // Loads returning small negatives (upper bits all ones) are
    // "low" to the D-cache thanks to the 2-bit encoding.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 5000; ++i) {
        recs.push_back(test::loadOp(
            0x1000 + static_cast<Addr>(i % 16) * 4,
            static_cast<RegIndex>(i % 8),
            0x8000 + static_cast<Addr>(i % 32) * 8,
            ~0ULL << 4));
    }
    VectorTrace trace(std::move(recs));
    Core core(thCfg());
    const CoreResult r = core.run(trace, 5000);
    EXPECT_GT(r.perf.pveOnes.value(), 3000u);
    EXPECT_GT(r.activity.dl1ReadLow.value(),
              r.activity.dl1ReadFull.value());
}

TEST(Pipeline, PveAblationNarrowsLowDefinition)
{
    auto make = [] {
        std::vector<TraceRecord> recs;
        for (int i = 0; i < 5000; ++i) {
            recs.push_back(test::loadOp(
                0x1000 + static_cast<Addr>(i % 16) * 4,
                static_cast<RegIndex>(i % 8),
                0x8000 + static_cast<Addr>(i % 32) * 8, ~0ULL << 4));
        }
        return recs;
    };
    CoreConfig narrow = thCfg();
    narrow.pveEnabled = false;
    VectorTrace t1(make()), t2(make());
    Core wide_c(thCfg()), narrow_c(narrow);
    const CoreResult rw = wide_c.run(t1, 5000);
    const CoreResult rn = narrow_c.run(t2, 5000);
    EXPECT_GT(rw.activity.dl1ReadLow.value(),
              rn.activity.dl1ReadLow.value());
}

TEST(Pipeline, RobLimitsInflight)
{
    // A DRAM-missing chain-blocking load at the head of the window
    // keeps at most robSize instructions in flight; a burst of
    // independent ALUs behind it cannot all retire early.
    CoreConfig cfg = baseCfg();
    std::vector<TraceRecord> recs;
    recs.push_back(test::loadOp(0x1000, 1, 0x40000000));
    for (int i = 0; i < 500; ++i)
        recs.push_back(test::aluOp(0x2000, 2, 3));
    VectorTrace trace(std::move(recs));
    Core core(cfg);
    const CoreResult r = core.run(trace, 501);
    // Total time ~ the miss latency: commits gated by the ROB head.
    EXPECT_GT(r.perf.cycles.value(),
              static_cast<Cycle>(cfg.memLatencyCycles()));
}

TEST(Pipeline, BtbUpperReadStallsOnlyWithHerding)
{
    // A branch whose target lives in a distant region: the memoizing
    // BTB pays a one-cycle stall per taken prediction.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 6000; ++i) {
        if (i % 3 == 2) {
            const bool odd = (i / 3) % 2 != 0;
            const Addr pc = odd ? 0x90000000 : 0x1008;
            const Addr tgt = odd ? 0x1000 : 0x90000000;
            recs.push_back(test::branchOp(pc, true, tgt));
        } else {
            recs.push_back(test::aluOp(
                0x1000 + static_cast<Addr>(i % 2) * 4,
                static_cast<RegIndex>(i % 8), 3));
        }
    }
    VectorTrace t1(recs), t2(recs);
    Core base(baseCfg()), herd(thCfg());
    const CoreResult rb = base.run(t1, 6000);
    const CoreResult rh = herd.run(t2, 6000);
    EXPECT_EQ(rb.perf.btbTargetStalls.value(), 0u);
    EXPECT_GT(rh.perf.btbTargetStalls.value(), 1000u);
}

/** Forwards a trace and fires @p token once @p after records were read. */
class CancellingTrace : public TraceSource
{
  public:
    CancellingTrace(TraceSource &inner, CancelToken &token,
                    std::uint64_t after)
        : inner_(inner), token_(token), after_(after)
    {
    }

    bool next(TraceRecord &rec) override
    {
        if (++read_ == after_)
            token_.cancel();
        return inner_.next(rec);
    }

    void reset() override { inner_.reset(); }

    void prefillLines(std::vector<PrefillLine> &lines) const override
    {
        inner_.prefillLines(lines);
    }

  private:
    TraceSource &inner_;
    CancelToken &token_;
    std::uint64_t after_;
    std::uint64_t read_ = 0;
};

TEST(Pipeline, CancelIsPolledThroughDramStalls)
{
    // mcf waits on DRAM for most of its cycles. The token fires on
    // record 3900 of the 4000-instruction window, which leaves only the
    // run's last one or two 4096-cycle poll points: a cycle loop that
    // jumped over them would finish instead of throwing.
    SyntheticTrace inner(benchmarkByName("mcf"));
    CancelToken token;
    CancellingTrace trace(inner, token, 3900);
    Core core(makeConfig(ConfigKind::Base, BlockLibrary{}));
    EXPECT_THROW(core.run(trace, 3000, 1000, &token), Cancelled);
    EXPECT_TRUE(token.cancelled());
}

// ---------------------------------------------------------------------
// Golden simulated statistics.
// ---------------------------------------------------------------------

TEST(PipelineGolden, EveryBenchmarkOnEveryConfigIsBitIdentical)
{
    // The exactness oracle for the cycle core's host-time machinery:
    // every profile on every preset, short enough to stay near a
    // second, long enough that each run crosses the warm-up reset and
    // mixes DRAM misses, mispredicts and width stalls.
    constexpr std::uint64_t kInsts = 3000;
    constexpr std::uint64_t kWarmup = 1000;
    const ConfigKind kinds[] = {ConfigKind::Base,   ConfigKind::TH,
                                ConfigKind::Pipe,   ConfigKind::Fast,
                                ConfigKind::ThreeD, ConfigKind::ThreeDNoTH};
    const struct
    {
        const char *bench;
        std::uint64_t hash[std::size(kinds)];
    } golden[] = {
        {"gzip",
         {0x7dfd6d061927356fULL, 0x869b11b4418b3a3fULL, 0x29883f154ba1bd30ULL,
          0x1b70824e897a70f4ULL, 0x388be946da4d32cbULL, 0x7f28af23ff3b4ca3ULL}},
        {"vpr",
         {0xd1992bc3f316e31aULL, 0x584f06e222c148b4ULL, 0xa8127106753ad839ULL,
          0x2f800c52e14b7780ULL, 0x49c26926e8aae149ULL, 0x91080f8c742d472cULL}},
        {"gcc",
         {0xcff9804474620282ULL, 0x1ae730c5a3c84b32ULL, 0x6e054e8cf297efb3ULL,
          0x6a5d023b2064aa7aULL, 0xb2e6b3604578b279ULL, 0xf4573ecf4cd16f0fULL}},
        {"mcf",
         {0x7ca51611d93a8ff1ULL, 0x3ffb5198c7be3e8eULL, 0xe377c477d5277358ULL,
          0xaa641bc7b6c6f734ULL, 0x94fc443852f6ecc2ULL, 0x13c6b2b50b3c78b6ULL}},
        {"crafty",
         {0x4c9627a2b7f58227ULL, 0xe83c296f7cc252bfULL, 0xcf711da9295f13d2ULL,
          0xfb604866e2dd2734ULL, 0xa891c16b5b70fa23ULL, 0x7a224d196e6483c3ULL}},
        {"parser",
         {0x4faf7044cd761950ULL, 0x0159b058768d0444ULL, 0x8622e62b9e4c5824ULL,
          0x3915939c2ebec698ULL, 0x9577bf0e1179c184ULL, 0x967aa22e7504b172ULL}},
        {"eon",
         {0x10c1e4744d4692afULL, 0x80ebccb9b3064828ULL, 0x391a96fdbe5a955eULL,
          0xef010febd9350679ULL, 0x7b6a7d41cc4b301fULL, 0x2c50e35e8a6b9c93ULL}},
        {"perlbmk",
         {0xa9558194944e2238ULL, 0x9ea4c47d9da32316ULL, 0xa0ee9739c850481eULL,
          0xc0567656e8cd27b1ULL, 0xa8b4ea962ceabb89ULL, 0xf2dbaeec577fc6cbULL}},
        {"gap",
         {0x0209311b50e13970ULL, 0x57e22780d08c1927ULL, 0x4845094e87b4f362ULL,
          0x8884cd0af5ef7e26ULL, 0x871d4fb1a9936ae9ULL, 0x0fea7bf3e05e1470ULL}},
        {"vortex",
         {0xf12445813c006bd0ULL, 0xc1f09b33dd8b4549ULL, 0xde39ea55c97a3f91ULL,
          0xba6c55b876087222ULL, 0xf39bc59248d92897ULL, 0xcc7b4bc92499a40dULL}},
        {"bzip2",
         {0x20e029294ded8f88ULL, 0x63e9e350fdb5a82cULL, 0xa26545f827351683ULL,
          0xc168ccc64b256fa3ULL, 0x36ccc13da883abd3ULL, 0xe1939c85aaf82e32ULL}},
        {"twolf",
         {0x849d9dae44ec768bULL, 0x6dbec78acb075169ULL, 0x40f63f20d12ddd56ULL,
          0xeb1c011b35c17677ULL, 0x7b39881ef7494d50ULL, 0x375cb6c26c6dcb18ULL}},
        {"sixtrack-int",
         {0x4faf96180f803e2dULL, 0x3f18db34e21dde46ULL, 0x5e71d5106fc2024fULL,
          0x64bbdabf9d0f19a7ULL, 0xda622d4132d9f3f4ULL, 0xfe9e97829e54c03bULL}},
        {"wupwise",
         {0xa7b434273656c621ULL, 0x0f2c11b41c03cf34ULL, 0x3c96a4888f2c6ffdULL,
          0xb83876d675e0172dULL, 0x694ef49cffbd4a4aULL, 0xb347b026cc2e6541ULL}},
        {"swim",
         {0x719b86d3700c5590ULL, 0x0e70eb3f14199761ULL, 0xcedc7262f41f334aULL,
          0x16b21a22b0ccda55ULL, 0x81531e7027aec9e6ULL, 0x94ce53deffafaddfULL}},
        {"mgrid",
         {0xec0289448e4b7e13ULL, 0xfb4af3de6eb1d565ULL, 0xff4d62fa88f01808ULL,
          0x792d91110c29884dULL, 0x5c7ac9785d3a4318ULL, 0x4e3960a08fc141feULL}},
        {"applu",
         {0x12a3dc3bf4188e8fULL, 0xe09177b1c8f7e624ULL, 0x841139090fdfc74dULL,
          0xe50dda8249d7803bULL, 0x075542d605ee5049ULL, 0x244fd5fb77728e99ULL}},
        {"mesa",
         {0xc6a34e0fff4d52b9ULL, 0x88d47449d26d79afULL, 0x14ed4761c550b17fULL,
          0x164ef1a12680566fULL, 0x3c49d671e9ab5bf0ULL, 0x704130c1a159f7eeULL}},
        {"art",
         {0x1a2306e4799a7eacULL, 0x63585a097384a138ULL, 0x382fafc45d578a12ULL,
          0xf2a043e6d6cd1c61ULL, 0xea2e17f49711126cULL, 0x201aea3968509466ULL}},
        {"equake",
         {0x1f27bffa484af64cULL, 0x6e9923d74af7d180ULL, 0xfb928e2dd4107a4dULL,
          0xa9b38c347ba1a827ULL, 0x10873bfc2318c397ULL, 0x3f11c9837776f84eULL}},
        {"ammp",
         {0x58891d55a686089cULL, 0xd59a276a794ad6d7ULL, 0x0ca7fb8db74d4eaaULL,
          0x5c3c3da305552633ULL, 0x7fac780d4aae1a71ULL, 0xb4730f45f4179981ULL}},
        {"sixtrack",
         {0x2384dfacc9f78124ULL, 0x127a529f21a3c196ULL, 0x9435ee4652af1958ULL,
          0xcafcecb45c4684beULL, 0x657b79ffb4d6690cULL, 0x8449f04e63545484ULL}},
        {"facerec",
         {0x643c5822eac7f70bULL, 0xae934fc95e37a663ULL, 0x46c4ed55853ef714ULL,
          0x49b6516fd0dd6bdaULL, 0xbd73a9dc1e879f51ULL, 0x4756949f9e13af85ULL}},
        {"lucas",
         {0x202daba98c531c3eULL, 0x67a9d12825c5488bULL, 0x24b0b382718a0837ULL,
          0x2a344e0b4079152cULL, 0xfef5963137c8c7b3ULL, 0x13d2c893127000dcULL}},
        {"mpeg2enc",
         {0x5d84f7013eb5dabfULL, 0x7b77709530f28041ULL, 0xab2fd9004d38117aULL,
          0x8d906650575650a7ULL, 0xa8caa0920e7bd7c2ULL, 0xda29bdc6d5f2f770ULL}},
        {"mpeg2dec",
         {0xf4e37b3e13cc9924ULL, 0xd9fcd3e5eeb0c0cbULL, 0xa067b63a6f34cff3ULL,
          0x57f46b6a894c46b6ULL, 0x9f6b6995e0e55b4dULL, 0x1576cedfc0bea4c7ULL}},
        {"jpeg",
         {0x26728a2a37b9ff8eULL, 0x3dff1fb589c401deULL, 0xad411ee6601dfa20ULL,
          0x9a84b463c1c50ebfULL, 0x6b0474d686743a6dULL, 0x6afab2b1ba15a1b6ULL}},
        {"epic",
         {0x6c885adfc293e17cULL, 0x68ef6e1d3905402fULL, 0x048bb17c97b44e5aULL,
          0x2ce90202f27688b2ULL, 0x4eef1b3912788d38ULL, 0x0432ac98f85ca204ULL}},
        {"adpcm",
         {0xbc7d63e3f6aed96bULL, 0xb6a61f4086fbaf80ULL, 0x3b0e1699f6e9a0d8ULL,
          0x6c3f053d24229e32ULL, 0xa6db75853505431bULL, 0x212ee39533550bb9ULL}},
        {"g721",
         {0x86bd2276ed16544eULL, 0xb3150617a80bbc7fULL, 0x383f93a1d90f9df6ULL,
          0xcdaac2ec9fcc2256ULL, 0xc98519e5f4330eeeULL, 0x41592b2374298605ULL}},
        {"gsm",
         {0xd741196e74f8adc6ULL, 0xaf7b974d40b176c2ULL, 0xfa0702e1a8a3d556ULL,
          0xe7bff4b0b1ba001eULL, 0xf1ab9d23b77da635ULL, 0x6fb356b6edf86d73ULL}},
        {"pegwit",
         {0x56e96bb507b8a3b4ULL, 0x031a61f9815732d6ULL, 0xea8088dc446b1775ULL,
          0xb3aaf6bf0b30e49dULL, 0xd98f3788ee1ae55fULL, 0x86fb8340b4f9c824ULL}},
        {"patricia",
         {0x81a564c9c73ece6bULL, 0x6f2886e9e9ea062eULL, 0xb7536b368e9f58aaULL,
          0x0156dea4d69a7711ULL, 0x625a2d850e6a1db7ULL, 0xcff507bbe0acfbfdULL}},
        {"susan",
         {0xd78b3912c4fa6191ULL, 0x428e745b7add5944ULL, 0xdc6e420dfcdc907fULL,
          0x8b86899c109d42ecULL, 0x4c0f675f9fb5b40aULL, 0xec8ab2f1b84dcfc2ULL}},
        {"dijkstra",
         {0x86e6f38721701f63ULL, 0xa1155d6a468baee2ULL, 0x348896b871a09565ULL,
          0x9f0638dc22851221ULL, 0x05fffb06cb97999dULL, 0x912e706525a6bc4dULL}},
        {"qsort",
         {0x53dc5239b3ac5991ULL, 0xe61b8f91e7da4c2eULL, 0x9c2f1188dbb4b754ULL,
          0xacca3626f3c10468ULL, 0x75f8beab96f167efULL, 0xab09ff2bd14814bdULL}},
        {"sha",
         {0x7905166153eb1c92ULL, 0x1635ed1770cc6d15ULL, 0x3c3eaeb0f2995781ULL,
          0x084cde852cad06afULL, 0xc7b532e945c4225cULL, 0xf2df78f3e535acbcULL}},
        {"crc32",
         {0x9b46d87fbe8557eeULL, 0xf05da976d9b611d1ULL, 0x132909e49d3dcf0eULL,
          0xa8860115b3b88053ULL, 0xab3587e3ad2110ccULL, 0x32260e918a466af3ULL}},
        {"rijndael",
         {0x3de31867b34f4b46ULL, 0x1e68576e531e2a4fULL, 0x9506cca17a3265b5ULL,
          0xeeedc36f528daf20ULL, 0x7d7a21122f4c88b2ULL, 0x533593e0f86835f1ULL}},
        {"bitcount",
         {0xe32761fcf67b2891ULL, 0x3db720e09d88c2f9ULL, 0x97e8221ac20aa594ULL,
          0xb3159a4fa0841101ULL, 0xe639138a9b213e32ULL, 0x826e0b2befacca3aULL}},
        {"basicmath",
         {0x6cec12704c7ffb46ULL, 0x4237cb6604cdfceeULL, 0x11c9de06804c5366ULL,
          0x5114861cba650b2bULL, 0x5b4b01fcfccfde88ULL, 0x0072cbe28f67f571ULL}},
        {"yacr2",
         {0x6207f3ba3011ff99ULL, 0x11b446d59112cda1ULL, 0x211c6d70d6f65f0aULL,
          0x0ff00a7b94a9dfb4ULL, 0xfa5128b60bfda437ULL, 0x1ac7478109246f04ULL}},
        {"anagram",
         {0x57fbeec17d0b2500ULL, 0x642032938976de9aULL, 0xb5879d528336c88aULL,
          0xa43121a8ad75b32cULL, 0x8b282fd1cd5ecb18ULL, 0xfae81bbd3e198c02ULL}},
        {"bc",
         {0x9cf0adcc4540e44dULL, 0xa8e99a5608c98264ULL, 0xdabca62ca637b881ULL,
          0xcf0eaf723be3cb4aULL, 0xaf9fcefc5fc29b5bULL, 0x3bdc107ff106d088ULL}},
        {"ft",
         {0x160efa6a8feae962ULL, 0x6f35d705aad1fa76ULL, 0x03b54c05dcf7c434ULL,
          0x50bab80755495c57ULL, 0x1746fedabfc49a45ULL, 0x3ec863d770973625ULL}},
        {"ks",
         {0x4a973471d6ba1feeULL, 0x812716326caa88a1ULL, 0x57db5903e73a0d18ULL,
          0x1ddb1291fd5af1f1ULL, 0xc50ebae70e20a244ULL, 0x6c9f5e29abef0977ULL}},
        {"tsp",
         {0xb3a772450ef25c58ULL, 0x03b61c639bb03450ULL, 0x952db6c9ae0da8c8ULL,
          0x676b50d58a2bcb74ULL, 0x75f353703eccacc5ULL, 0xef76afc4a6b1535fULL}},
        {"doom",
         {0x40079dda77e855b6ULL, 0xbc5895105a30ad9aULL, 0x746f2ffed44f8941ULL,
          0xc646fa0ab20b30bdULL, 0x6d3fe4cc257c94e4ULL, 0xb02220b825c16f4aULL}},
        {"quake",
         {0xc6b2eef046eef9acULL, 0x27a4ee03ecfe1c7eULL, 0x16a0c447a5c7103fULL,
          0x0d395ccfc8586992ULL, 0xa73f0d4d181a69afULL, 0x2ce267f266072021ULL}},
        {"raytrace",
         {0x0a80e5cd427d9f56ULL, 0x15a796249f52f322ULL, 0xa97f1c4b727e30eeULL,
          0x7485f91ab307fb62ULL, 0x2ee363e3f51013acULL, 0x59f24e36403c3087ULL}},
        {"mpegplay",
         {0x53da125f9eb7f264ULL, 0xc3f675de05765656ULL, 0x373cc204a04a873dULL,
          0xaffa284653a3aad8ULL, 0xab91a783c7a65cb5ULL, 0x0e8c1d1b0d219a69ULL}},
        {"povray",
         {0x664d5c0bcdba5d02ULL, 0xf991aed3ab517991ULL, 0x8a128afcb3c5a6beULL,
          0x4ad28288cdcb7cf9ULL, 0x050d929378a0e19cULL, 0x1c3338a40ada00c6ULL}},
        {"mpeg4dec",
         {0xc07b277745c78eadULL, 0xfde0b41190b1c71aULL, 0x56f8d6e05b6fe86bULL,
          0x19fc660670ecbcbeULL, 0xa15eaff932ed7e75ULL, 0x2067bd5ce280c0dfULL}},
        {"blast",
         {0x9a46f9f80bc787b8ULL, 0xc8e479860c405ee1ULL, 0xb2e35e529f776bc7ULL,
          0x12db1a70736302adULL, 0x292a5a9d47530997ULL, 0x948f0aacc694244aULL}},
        {"fasta",
         {0x1047e049475c0b53ULL, 0x94f7792c6a9bb6e1ULL, 0x9f12f21f66c2e338ULL,
          0x0408da6181b773b9ULL, 0x0e3cab4022084736ULL, 0xa37a32aee0e68fddULL}},
        {"clustalw",
         {0x29ab3caae38b1a14ULL, 0x9f215d5e4cbdac9bULL, 0x6f0bc95946bbd70fULL,
          0xd538a7ea6dd81ae6ULL, 0xc087b5ff9b097e82ULL, 0x2cac7a8dcf8fd25bULL}},
        {"hmmer",
         {0x9e9a3c74b7bb1afcULL, 0x109ba17d86888803ULL, 0x257f1d7350f5a590ULL,
          0x52a1dad475dbe03cULL, 0xf6569dbd4866b582ULL, 0xfa182baa50bd2f22ULL}},
        {"grappa",
         {0x5a9de6b41d42846aULL, 0xc26507d53dc8e02dULL, 0x55dbbca9c9fd8443ULL,
          0x279acbae3f3bc8e2ULL, 0xc5ef63ca4ce09c23ULL, 0xff50b0b9e94173cfULL}},
        {"phylip",
         {0xbd72b57eb1757d12ULL, 0x3f47203d9450a4b7ULL, 0xb0918ed87f0622faULL,
          0x5615f2148d2b9070ULL, 0x18e66ad1bc622eb1ULL, 0x696b0e62a0896e9aULL}},
    };

    const std::vector<BenchmarkProfile> &profiles = allBenchmarks();
    ASSERT_EQ(profiles.size(), std::size(golden));
    const BlockLibrary lib;
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        ASSERT_EQ(profiles[b].name, golden[b].bench);
        for (std::size_t k = 0; k < std::size(kinds); ++k) {
            SyntheticTrace trace(profiles[b]);
            Core core(makeConfig(kinds[k], lib));
            const std::uint64_t h = test::fnv1a(
                serializeCoreResult(core.run(trace, kInsts, kWarmup)));
            EXPECT_EQ(h, golden[b].hash[k])
                << "serializeCoreResult(" << golden[b].bench << " on "
                << configName(kinds[k]) << ") drifted (now 0x" << std::hex
                << h << std::dec << ") — the cycle core's simulated "
                << "statistics changed. If intentional, update the golden "
                << "table and bump kStoreSchemaVersion.";
        }
    }
}

TEST(PipelineGolden, AblationVariantsAreBitIdentical)
{
    // The ablation study's edits of the 3D config that no preset
    // makes, on its three applications at PipelineGolden's window:
    // each pins a core path (round-robin allocation, PAM off, 1-bit
    // PVE, no BTB memoization, the other width predictors) that the
    // preset table leaves unchecked.
    constexpr std::uint64_t kInsts = 3000;
    constexpr std::uint64_t kWarmup = 1000;
    const struct
    {
        const char *name;
        void (*tweak)(CoreConfig &);
    } variants[] = {
        {"round-robin allocation",
         [](CoreConfig &c) { c.schedAlloc = SchedAllocPolicy::RoundRobin; }},
        {"PAM off", [](CoreConfig &c) { c.pamEnabled = false; }},
        {"PVE 1-bit", [](CoreConfig &c) { c.pveEnabled = false; }},
        {"BTB memoization off",
         [](CoreConfig &c) { c.btbMemoEnabled = false; }},
        {"last-outcome width predictor",
         [](CoreConfig &c) { c.widthPredKind = WidthPredKind::LastOutcome; }},
        {"oracle width predictor",
         [](CoreConfig &c) { c.widthPredKind = WidthPredKind::Oracle; }},
        {"always-full width predictor",
         [](CoreConfig &c) { c.widthPredKind = WidthPredKind::AlwaysFull; }},
    };
    const struct
    {
        const char *bench;
        std::uint64_t hash[std::size(variants)];
    } golden[] = {
        {"mpeg2enc",
         {0x98793292836eabd8ULL, 0x919a5956c8cf2676ULL, 0xcc91f6f3f442bc0fULL,
          0xa8caa0920e7bd7c2ULL, 0xf3d893775f2c96a4ULL, 0x6b23f98f63c1de95ULL,
          0x18c0b40006eae7f4ULL}},
        // gzip takes no memoized-upper BTB target in this window, so
        // its BTB-memoization row equals its 3D preset digest.
        {"gzip",
         {0xc8507e94c8532984ULL, 0x8670296e7af5cc03ULL, 0xe94fbe43e63e83c8ULL,
          0x388be946da4d32cbULL, 0xcc52753335025718ULL, 0x0964cb2b2e368fa0ULL,
          0xb7be2828718206d6ULL}},
        {"yacr2",
         {0x64e0a638ed433792ULL, 0x6e978551695f4837ULL, 0xbae10a1f6da9429fULL,
          0xfa5128b60bfda437ULL, 0x0ebfc23896ea6103ULL, 0x188f37bb1641ee51ULL,
          0xe6f43679c9069e73ULL}},
    };

    const BlockLibrary lib;
    for (const auto &g : golden) {
        for (std::size_t v = 0; v < std::size(variants); ++v) {
            CoreConfig cfg = makeConfig(ConfigKind::ThreeD, lib);
            variants[v].tweak(cfg);
            SyntheticTrace trace(benchmarkByName(g.bench));
            Core core(cfg);
            const std::uint64_t h = test::fnv1a(
                serializeCoreResult(core.run(trace, kInsts, kWarmup)));
            EXPECT_EQ(h, g.hash[v])
                << "serializeCoreResult(" << g.bench << ", 3D with "
                << variants[v].name << ") drifted (now 0x" << std::hex
                << h << std::dec << ") — the cycle core's simulated "
                << "statistics changed.";
        }
    }
}

} // namespace
} // namespace th
