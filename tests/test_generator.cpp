#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "common/bitutil.h"
#include "trace/generator.h"
#include "trace/suites.h"

namespace th {
namespace {

BenchmarkProfile
testProfile()
{
    BenchmarkProfile p;
    p.name = "unit-test";
    p.seed = 1234;
    return p;
}

TEST(Generator, DeterministicForSameProfile)
{
    SyntheticTrace a(testProfile());
    SyntheticTrace b(testProfile());
    TraceRecord ra, rb;
    for (int i = 0; i < 5000; ++i) {
        a.next(ra);
        b.next(rb);
        ASSERT_EQ(ra.pc, rb.pc) << "at " << i;
        ASSERT_EQ(ra.resultValue, rb.resultValue);
        ASSERT_EQ(ra.effAddr, rb.effAddr);
        ASSERT_EQ(ra.taken, rb.taken);
    }
}

TEST(Generator, ResetReproducesStream)
{
    SyntheticTrace t(testProfile());
    std::vector<Addr> first;
    TraceRecord r;
    for (int i = 0; i < 1000; ++i) {
        t.next(r);
        first.push_back(r.pc);
    }
    t.reset();
    for (int i = 0; i < 1000; ++i) {
        t.next(r);
        ASSERT_EQ(r.pc, first[static_cast<size_t>(i)]) << i;
    }
}

TEST(Generator, DifferentSeedsDifferentPrograms)
{
    auto p1 = testProfile(), p2 = testProfile();
    p2.seed = 99;
    SyntheticTrace a(p1), b(p2);
    TraceRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a.next(ra);
        b.next(rb);
        if (ra.pc == rb.pc && ra.op == rb.op)
            ++same;
    }
    EXPECT_LT(same, 900);
}

TEST(Generator, OpMixApproximatesProfile)
{
    auto p = testProfile();
    p.numKernels = 48; // large sample for tight tolerance
    SyntheticTrace t(p);
    TraceRecord r;
    const int n = 200000;
    std::map<OpClass, int> counts;
    for (int i = 0; i < n; ++i) {
        t.next(r);
        counts[r.op]++;
    }
    EXPECT_NEAR(counts[OpClass::Load] / double(n), p.fLoad, 0.05);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), p.fStore, 0.04);
    EXPECT_NEAR(counts[OpClass::IntShift] / double(n), p.fShift, 0.03);
    // Branches: sampled sites plus the mandatory loop-back branch.
    EXPECT_GT(counts[OpClass::Branch] / double(n), p.fBranch * 0.7);
}

TEST(Generator, BranchTargetsAreValidPcs)
{
    SyntheticTrace t(testProfile());
    TraceRecord r;
    std::set<Addr> pcs;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        pcs.insert(r.pc);
    }
    t.reset();
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        if (r.isControl() && r.taken) {
            ASSERT_TRUE(pcs.count(r.target)) << std::hex << r.target;
        }
    }
}

TEST(Generator, PerPcWidthLocality)
{
    // An oracle last-outcome predictor per PC must approach the
    // paper's 97% accuracy — width behaviour is a site property.
    SyntheticTrace t(testProfile());
    TraceRecord r;
    std::map<Addr, bool> last;
    int predicted = 0, correct = 0;
    for (int i = 0; i < 100000; ++i) {
        t.next(r);
        if (!r.hasDst || isFpOp(r.op))
            continue;
        const bool low = r.resultWidth() == Width::Low;
        auto it = last.find(r.pc);
        if (it != last.end()) {
            ++predicted;
            if (it->second == low)
                ++correct;
            it->second = low;
        } else {
            last[r.pc] = low;
        }
    }
    ASSERT_GT(predicted, 1000);
    EXPECT_GT(double(correct) / predicted, 0.95);
}

TEST(Generator, MemoryRegionsHaveDistinctUpperBits)
{
    SyntheticTrace t(testProfile());
    TraceRecord r;
    std::set<Addr> uppers;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        if (r.isMem())
            uppers.insert(r.effAddr >> 40);
    }
    // Stack / heap / global prefixes.
    EXPECT_GE(uppers.size(), 2u);
}

TEST(Generator, AddressesAligned)
{
    SyntheticTrace t(testProfile());
    TraceRecord r;
    for (int i = 0; i < 20000; ++i) {
        t.next(r);
        if (r.isMem()) {
            ASSERT_EQ(r.effAddr % 8, 0u);
        }
    }
}

TEST(Generator, ChaseLoadsSelfDependent)
{
    auto p = testProfile();
    p.pointerChaseFrac = 1.0;
    p.heapFrac = 0.9;
    p.stackFrac = 0.05;
    SyntheticTrace t(p);
    TraceRecord r;
    int chase_like = 0, loads = 0;
    for (int i = 0; i < 50000; ++i) {
        t.next(r);
        if (r.op != OpClass::Load)
            continue;
        ++loads;
        if (r.numSrcs == 1 && r.srcRegs[0] == r.dstReg)
            ++chase_like;
    }
    ASSERT_GT(loads, 100);
    // Most heap loads should be r = load [r] chains.
    EXPECT_GT(double(chase_like) / loads, 0.5);
}

TEST(Generator, ColdFractionTracksProfile)
{
    auto p = testProfile();
    p.coldFrac = 0.02;
    p.numKernels = 32;
    SyntheticTrace t(p);
    TraceRecord r;
    long mem = 0, cold = 0;
    for (int i = 0; i < 200000; ++i) {
        t.next(r);
        if (!r.isMem())
            continue;
        ++mem;
        Addr off;
        if (r.effAddr >= 0x00007fffff000000ULL)
            off = r.effAddr - 0x00007fffff000000ULL;
        else if (r.effAddr >= 0x0000200000000000ULL)
            off = r.effAddr - 0x0000200000000000ULL;
        else
            off = r.effAddr - 0x0000000040000000ULL;
        if (off >= p.warmBytes)
            ++cold;
    }
    EXPECT_NEAR(double(cold) / mem, p.coldFrac, 0.012);
}

TEST(Generator, PrefillCoversHotAndWarmSets)
{
    auto p = testProfile();
    SyntheticTrace t(p);
    std::vector<PrefillLine> lines;
    t.prefillLines(lines);
    ASSERT_FALSE(lines.empty());
    std::uint64_t l1_lines = 0, l2_lines = 0;
    for (const auto &l : lines)
        (l.intoL1 ? l1_lines : l2_lines) += 1;
    // Hot set on three regions, L1-resident.
    EXPECT_EQ(l1_lines, 3 * p.hotBytes / 64);
    // Warm set on two regions, L2 only.
    EXPECT_EQ(l2_lines, 2 * (p.warmBytes - p.hotBytes) / 64);
}

TEST(Generator, FpProfileProducesFpOps)
{
    auto p = testProfile();
    p.fFpAdd = 0.2;
    p.fFpMult = 0.1;
    SyntheticTrace t(p);
    TraceRecord r;
    int fp = 0;
    for (int i = 0; i < 20000; ++i) {
        t.next(r);
        if (isFpOp(r.op))
            ++fp;
    }
    EXPECT_GT(fp, 3000);
}

TEST(Generator, FpResultsAreFullWidth)
{
    auto p = testProfile();
    p.fFpAdd = 0.3;
    SyntheticTrace t(p);
    TraceRecord r;
    for (int i = 0; i < 20000; ++i) {
        t.next(r);
        if (isFpOp(r.op) && r.hasDst) {
            ASSERT_EQ(r.resultWidth(), Width::Full);
        }
    }
}

/** FNV-1a over the bytes of trivially copyable fields, fed in order. */
class FieldHash
{
  public:
    template <typename T>
    FieldHash &operator<<(const T &field)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &field, sizeof(T));
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(GeneratorGolden, FigsBenchmarksAreBitIdentical)
{
    // Pins the trace the cycle core consumes, so a PipelineGolden
    // failure can be told apart: trace moved, or core moved.
    constexpr int kRecords = 50000;
    const struct
    {
        const char *bench;
        std::uint64_t records;
        std::uint64_t prefill;
    } golden[] = {
        {"crafty", 0x520367d9552e31d5ULL, 0xf0ed69c5f096306aULL},
        // mcf and mpeg2enc keep the default hot and warm set sizes, so
        // their prefill lists are the same.
        {"mcf", 0x116d58e4dc33ed29ULL, 0xa5c221a1f312282aULL},
        {"mpeg2enc", 0x79b1bac50f321471ULL, 0xa5c221a1f312282aULL},
        {"yacr2", 0x6994d2dea4136a1aULL, 0x3011f4713240daaaULL},
    };
    for (const auto &g : golden) {
        SyntheticTrace trace(benchmarkByName(g.bench));
        FieldHash records;
        TraceRecord r;
        for (int i = 0; i < kRecords; ++i) {
            ASSERT_TRUE(trace.next(r));
            records << r.pc << r.op << r.numSrcs;
            for (int s = 0; s < kMaxSrcs; ++s)
                records << r.srcRegs[s] << r.srcValues[s];
            records << r.hasDst << r.dstReg << r.resultValue << r.effAddr
                    << r.memSize << r.taken << r.target;
        }
        std::vector<PrefillLine> lines;
        trace.prefillLines(lines);
        FieldHash prefill;
        prefill << static_cast<std::uint64_t>(lines.size());
        for (const PrefillLine &l : lines)
            prefill << l.addr << l.intoL1;

        EXPECT_EQ(records.value(), g.records)
            << g.bench << "'s first " << kRecords << " records drifted "
            << "(now 0x" << std::hex << records.value() << ")";
        EXPECT_EQ(prefill.value(), g.prefill)
            << g.bench << "'s prefill list drifted (now 0x" << std::hex
            << prefill.value() << ")";
    }
}

TEST(GeneratorDeathTest, RejectsEmptyProgram)
{
    auto p = testProfile();
    p.numKernels = 0;
    EXPECT_EXIT((SyntheticTrace{p}), ::testing::ExitedWithCode(1),
                "kernel");
}

} // namespace
} // namespace th
