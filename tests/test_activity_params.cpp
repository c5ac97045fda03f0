#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>

#include "core/activity.h"
#include "core/params.h"
#include "trace/trace.h"

namespace th {
namespace {

/** True when a visited statistic of type @p S is the Histogram. */
template <class S>
constexpr bool kIsHistogram =
    std::is_same_v<std::decay_t<S>, Histogram>;

TEST(ActivityStats, RegistersAllCounters)
{
    // The list visits each of the 46 counters once, under a unique
    // name, and the struct holds nothing it does not visit.
    ActivityStats act;
    int visits = 0;
    std::set<std::string> names;
    std::set<const Counter *> counters;
    forEachActivityStat([&](const char *name, const Counter &c) {
        ++visits;
        names.insert(name);
        counters.insert(&c);
    }, act);
    EXPECT_EQ(visits, 46);
    EXPECT_EQ(names.size(), 46u);
    EXPECT_EQ(counters.size(), 46u);
    EXPECT_EQ(sizeof(ActivityStats), 46 * sizeof(Counter));
    for (const char *name :
         {"rf.read_low", "alu.full", "sched.wakeup_die0",
          "sched.wakeup_die3", "sched.alloc", "sched.alloc_die3",
          "dl1.fill", "rob.write_full", "l2.access", "misc.uops"})
        EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(ActivityStats, RegistryReflectsLiveCounters)
{
    // The list hands out the struct's own members: a value set on the
    // struct shows under its name, and a write through it lands there.
    ActivityStats act;
    act.aluLow.inc(7);
    std::uint64_t seen = 0;
    forEachActivityStat([&](const char *name, Counter &c) {
        if (std::string(name) == "alu.low")
            seen = c.value();
        if (std::string(name) == "sched.alloc_die2")
            c.set(11);
    }, act);
    EXPECT_EQ(seen, 7u);
    EXPECT_EQ(act.schedAllocDie[2].value(), 11u);
}

TEST(PerfStats, RegistersAllCounters)
{
    // 29 counters and one histogram, each visited once under a unique
    // name; the struct holds nothing else.
    PerfStats perf;
    int counters = 0;
    int histograms = 0;
    std::set<std::string> names;
    std::set<const void *> stats;
    forEachPerfStat([&](const char *name, const auto &s) {
        (kIsHistogram<decltype(s)> ? histograms : counters) += 1;
        names.insert(name);
        stats.insert(&s);
    }, perf);
    EXPECT_EQ(counters, 29);
    EXPECT_EQ(histograms, 1);
    EXPECT_EQ(names.size(), 30u);
    EXPECT_EQ(stats.size(), 30u);
    EXPECT_EQ(sizeof(PerfStats), 29 * sizeof(Counter) + sizeof(Histogram));
    for (const char *name :
         {"cycles", "committed", "branches", "branch_mispredicts",
          "width.predictions", "width.unsafe", "width.rf_group_stalls",
          "mem.loads", "mem.dl1_misses", "lsq.pam_hits", "pve.zeros",
          "pve.explicit"})
        EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(PerfStats, DerivedMetrics)
{
    PerfStats perf;
    perf.cycles.set(1000);
    perf.committedInsts.set(2500);
    EXPECT_DOUBLE_EQ(perf.ipc(), 2.5);

    perf.widthPredictions.set(100);
    perf.widthPredCorrect.set(97);
    EXPECT_DOUBLE_EQ(perf.widthAccuracy(), 0.97);

    perf.branches.set(50);
    perf.branchMispredicts.set(5);
    EXPECT_DOUBLE_EQ(perf.branchMispredRate(), 0.1);
}

TEST(PerfStats, DerivedMetricsOnEmptyRun)
{
    PerfStats perf;
    EXPECT_DOUBLE_EQ(perf.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(perf.widthAccuracy(), 1.0);
    EXPECT_DOUBLE_EQ(perf.branchMispredRate(), 0.0);
}

TEST(CoreConfig, Table1Defaults)
{
    const CoreConfig cfg;
    EXPECT_EQ(cfg.fetchWidth, 4);
    EXPECT_EQ(cfg.issueWidth, 6);
    EXPECT_EQ(cfg.robSize, 96);
    EXPECT_EQ(cfg.rsSize, 32);
    EXPECT_EQ(cfg.lqSize, 32);
    EXPECT_EQ(cfg.sqSize, 20);
    EXPECT_EQ(cfg.numIntAlu, 3);
    EXPECT_EQ(cfg.numIntShift, 2);
    EXPECT_EQ(cfg.numIntMult, 1);
    EXPECT_EQ(cfg.il1Bytes, 32 * 1024);
    EXPECT_EQ(cfg.l2Bytes, 4 * 1024 * 1024);
    EXPECT_EQ(cfg.l2Assoc, 16);
    EXPECT_EQ(cfg.btbEntries, 2048);
    EXPECT_EQ(cfg.itlbEntries, 128);
    EXPECT_EQ(cfg.dtlbEntries, 256);
    EXPECT_EQ(cfg.ifqSize, 16);
}

TEST(CoreConfig, DerivedLatencies)
{
    CoreConfig cfg;
    EXPECT_EQ(cfg.bmispredMin(), 14);
    EXPECT_EQ(cfg.redirectCycles(),
              cfg.bmispredMin() - cfg.frontendDepth);
    cfg.pipeOpts = true;
    EXPECT_EQ(cfg.bmispredMin(), 12);
    EXPECT_EQ(cfg.l2Cycles(), 10);
    EXPECT_EQ(cfg.fpLoadExtraCycles(), 0);
}

TEST(CoreConfig, MemLatencyRounding)
{
    CoreConfig cfg;
    cfg.memLatencyNs = 75.0;
    cfg.freqGhz = 2.66;
    EXPECT_EQ(cfg.memLatencyCycles(), 200); // ceil(199.5)
}

TEST(OpClassHelpers, Categories)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::IntAlu));
    EXPECT_TRUE(isControlOp(OpClass::Branch));
    EXPECT_TRUE(isControlOp(OpClass::IndirectJump));
    EXPECT_FALSE(isControlOp(OpClass::Load));
    EXPECT_TRUE(isFpOp(OpClass::FpDiv));
    EXPECT_FALSE(isFpOp(OpClass::IntMult));
    EXPECT_STREQ(opClassName(OpClass::IntAlu), "IntAlu");
    EXPECT_STREQ(opClassName(OpClass::FpDiv), "FpDiv");
    EXPECT_STREQ(widthName(Width::Low), "low");
    EXPECT_STREQ(widthName(Width::Full), "full");
}

TEST(TraceRecordWidths, ResultAndSourceClassification)
{
    TraceRecord r;
    r.resultValue = 0x1234;
    EXPECT_EQ(r.resultWidth(), Width::Low);
    r.resultValue = 0x123456789ULL;
    EXPECT_EQ(r.resultWidth(), Width::Full);

    r.numSrcs = 2;
    r.srcValues[0] = 5;
    r.srcValues[1] = ~0ULL;
    EXPECT_EQ(r.srcWidth(0), Width::Low);
    EXPECT_EQ(r.srcWidth(1), Width::Full);
    EXPECT_EQ(r.srcWidth(2), Width::Low) << "out of range is benign";
}

TEST(PerfStats, ValueWidthHistogramRegistered)
{
    // The live histogram is the list's fourth entry, where the store
    // schema puts it.
    PerfStats perf;
    perf.valueWidthBits.sample(8.0);
    perf.valueWidthBits.sample(40.0);
    int index = 0;
    int at = -1;
    std::uint64_t count = 0;
    forEachPerfStat([&](const char *name, const auto &s) {
        if constexpr (kIsHistogram<decltype(s)>) {
            EXPECT_STREQ(name, "value_width_bits");
            at = index;
            count = s.count();
        }
        ++index;
    }, perf);
    EXPECT_EQ(at, 3);
    EXPECT_EQ(count, 2u);
}

} // namespace
} // namespace th
