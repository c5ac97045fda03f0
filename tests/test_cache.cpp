#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cache.h"
#include "trace/suites.h"

namespace th {
namespace {

/**
 * Reference true-LRU cache: one pass over the set per access, filling
 * the last invalid way, else evicting the first least-recently-used
 * way. The differential tests below hold SetAssocCache to it.
 */
class ReferenceLru
{
  public:
    ReferenceLru(int bytes, int assoc, int line_bytes)
        : assoc_(assoc),
          sets_(static_cast<Addr>(bytes / line_bytes / assoc)),
          lineBytes_(static_cast<Addr>(line_bytes)),
          lines_(static_cast<std::size_t>(bytes / line_bytes))
    {
    }

    bool access(Addr addr)
    {
        const Addr tag = addr / lineBytes_;
        Line *set = &lines_[static_cast<std::size_t>(tag % sets_) *
                            static_cast<std::size_t>(assoc_)];
        ++clock_;
        int victim = 0;
        std::uint64_t oldest = UINT64_MAX;
        for (int w = 0; w < assoc_; ++w) {
            Line &l = set[w];
            if (l.valid && l.tag == tag) {
                l.lru = clock_;
                return true;
            }
            if (!l.valid) {
                victim = w;
                oldest = 0;
            } else if (l.lru < oldest) {
                victim = w;
                oldest = l.lru;
            }
        }
        set[victim] = Line{true, tag, clock_};
        return false;
    }

    bool probe(Addr addr) const
    {
        const Addr tag = addr / lineBytes_;
        const Line *set = &lines_[static_cast<std::size_t>(tag % sets_) *
                                  static_cast<std::size_t>(assoc_)];
        for (int w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return true;
        }
        return false;
    }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    int assoc_;
    Addr sets_;
    Addr lineBytes_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

struct Geometry
{
    const char *name;
    int bytes;
    int assoc;
    int lineBytes;
};

/** Small shapes that stress one set, few sets and many sets, plus the
 *  default hierarchy's caches and TLBs. */
std::vector<Geometry>
differentialGeometries()
{
    const CoreConfig c;
    return {
        {"1x16", 16 * 64, 16, 64},
        {"4x4", 4 * 4 * 64, 4, 64},
        {"64x8", 64 * 8 * 64, 8, 64},
        {"il1", c.il1Bytes, c.il1Assoc, c.il1LineBytes},
        {"dl1", c.dl1Bytes, c.dl1Assoc, c.dl1LineBytes},
        {"l2", c.l2Bytes, c.l2Assoc, c.l2LineBytes},
        {"itlb", c.itlbEntries * 4096, c.itlbAssoc, 4096},
        {"dtlb", c.dtlbEntries * 4096, c.dtlbAssoc, 4096},
    };
}

/** Access @p addr in both models and require the same outcome. */
void
accessBoth(SetAssocCache &dut, ReferenceLru &ref, Addr addr,
           std::set<Addr> &touched, const std::string &where)
{
    const bool want = ref.access(addr);
    ASSERT_EQ(dut.access(addr), want)
        << where << ": access 0x" << std::hex << addr;
    touched.insert(addr);
}

/** Every touched line must probe the same in both models. */
void
expectSameContents(const SetAssocCache &dut, const ReferenceLru &ref,
                   const std::set<Addr> &touched, const std::string &where)
{
    for (Addr a : touched) {
        ASSERT_EQ(dut.probe(a), ref.probe(a))
            << where << ": probe 0x" << std::hex << a;
    }
}

TEST(SetAssocCache, MatchesReferenceLruOnRandomStreams)
{
    for (const Geometry &g : differentialGeometries()) {
        // Footprints from a quarter of the capacity to four times it:
        // fills into free ways, hits, and evictions from full sets.
        const Addr lines = static_cast<Addr>(g.bytes / g.lineBytes);
        for (Addr footprint : {lines / 4 + 1, lines, 4 * lines}) {
            SetAssocCache dut(g.bytes, g.assoc, g.lineBytes);
            ReferenceLru ref(g.bytes, g.assoc, g.lineBytes);
            Rng rng(0xcac4e + footprint);
            std::set<Addr> touched;
            const std::string where = std::string(g.name) + " footprint " +
                std::to_string(footprint);
            const int accesses = static_cast<int>(
                std::min<Addr>(200000, 8 * footprint + 4096));
            for (int i = 0; i < accesses; ++i) {
                const Addr addr = rng.range(footprint) *
                        static_cast<Addr>(g.lineBytes) +
                    rng.range(static_cast<std::uint64_t>(g.lineBytes));
                accessBoth(dut, ref, addr, touched, where);
                if (HasFatalFailure())
                    return;
            }
            expectSameContents(dut, ref, touched, where);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(SetAssocCache, MatchesReferenceLruAfterEachFigsPrefill)
{
    // The steady-state prefill the core replays before every run,
    // followed by random traffic around the prefilled regions.
    for (const char *bench : {"crafty", "mcf", "mpeg2enc", "yacr2"}) {
        SyntheticTrace trace(benchmarkByName(bench));
        std::vector<PrefillLine> prefill;
        trace.prefillLines(prefill);
        ASSERT_FALSE(prefill.empty()) << bench;
        for (const Geometry &g : differentialGeometries()) {
            SetAssocCache dut(g.bytes, g.assoc, g.lineBytes);
            ReferenceLru ref(g.bytes, g.assoc, g.lineBytes);
            std::set<Addr> touched;
            const std::string where = std::string(bench) + " on " + g.name;
            for (const PrefillLine &line : prefill) {
                accessBoth(dut, ref, line.addr, touched, where);
                if (HasFatalFailure())
                    return;
            }
            Rng rng(0xf111);
            for (int i = 0; i < 50000; ++i) {
                const Addr base =
                    prefill[rng.range(prefill.size())].addr;
                // Half re-reference a prefilled line, half land up to
                // 1 MiB past one.
                const Addr addr = rng.chance(0.5)
                    ? base
                    : base + rng.range(1 << 20);
                accessBoth(dut, ref, addr, touched, where);
                if (HasFatalFailure())
                    return;
            }
            expectSameContents(dut, ref, touched, where);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(4096, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
}

TEST(SetAssocCache, ProbeDoesNotFill)
{
    SetAssocCache c(4096, 2, 64);
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.access(0x2000));
    EXPECT_TRUE(c.probe(0x2000));
}

TEST(SetAssocCache, LruEviction)
{
    // 2-way, 2 sets: lines mapping to set 0 are multiples of 128.
    SetAssocCache c(256, 2, 64);
    c.access(0x0000);
    c.access(0x0100);
    c.access(0x0000);      // refresh first
    c.access(0x0200);      // evicts 0x0100
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0100));
    EXPECT_TRUE(c.probe(0x0200));
}

TEST(SetAssocCache, AssociativityHoldsConflicts)
{
    SetAssocCache c(512, 4, 64); // 2 sets, 4 ways
    for (Addr a = 0; a < 4; ++a)
        c.access(a * 128); // all to set 0
    for (Addr a = 0; a < 4; ++a)
        EXPECT_TRUE(c.probe(a * 128)) << a;
}

TEST(SetAssocCacheDeathTest, BadGeometry)
{
    EXPECT_EXIT((SetAssocCache{0, 1, 64}),
                ::testing::ExitedWithCode(1), "geometry");
}

TEST(Tlb, PageGranularity)
{
    Tlb tlb(16, 4);
    EXPECT_FALSE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10FFF)); // same 4KB page
    EXPECT_FALSE(tlb.access(0x11000)); // next page
}

class HierarchyTest : public ::testing::Test
{
  protected:
    CoreConfig cfg_;
};

TEST_F(HierarchyTest, L1HitLatency)
{
    MemoryHierarchy mem(cfg_);
    mem.dataAccess(0x1000); // fill
    const MemAccessResult r = mem.dataAccess(0x1000);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.cycles, cfg_.dl1Cycles);
}

TEST_F(HierarchyTest, L2HitLatency)
{
    MemoryHierarchy mem(cfg_);
    mem.prefill(0x5000, false); // L2 only
    const MemAccessResult r = mem.dataAccess(0x5000);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
    EXPECT_EQ(r.cycles, cfg_.dl1Cycles + cfg_.l2Cycles());
}

TEST_F(HierarchyTest, DramLatency)
{
    MemoryHierarchy mem(cfg_);
    const MemAccessResult r = mem.dataAccess(0x9000);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_FALSE(r.l2Hit);
    EXPECT_EQ(r.cycles, cfg_.dl1Cycles + cfg_.l2Cycles() +
              cfg_.memLatencyCycles());
}

TEST_F(HierarchyTest, DramCyclesScaleWithFrequency)
{
    CoreConfig fast = cfg_;
    fast.freqGhz = 3.93;
    // Fixed nanoseconds -> more cycles at a higher clock (the "Fast"
    // configuration's IPC penalty).
    EXPECT_GT(fast.memLatencyCycles(), cfg_.memLatencyCycles());
    EXPECT_NEAR(double(fast.memLatencyCycles()) /
                cfg_.memLatencyCycles(), 3.93 / 2.66, 0.02);
}

TEST_F(HierarchyTest, PipeOptsShortenL2)
{
    CoreConfig pipe = cfg_;
    pipe.pipeOpts = true;
    EXPECT_EQ(cfg_.l2Cycles(), 12);
    EXPECT_EQ(pipe.l2Cycles(), 10);
}

TEST_F(HierarchyTest, PrefillIntoL1)
{
    MemoryHierarchy mem(cfg_);
    mem.prefill(0x3000, true);
    EXPECT_TRUE(mem.dataAccess(0x3000).l1Hit);
}

TEST_F(HierarchyTest, InstAndDataSidesIndependent)
{
    MemoryHierarchy mem(cfg_);
    mem.instAccess(0x400000);
    // The D-side L1 must not hold the I-side line (shared L2 does).
    const MemAccessResult r = mem.dataAccess(0x400000);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_TRUE(r.l2Hit);
}

TEST_F(HierarchyTest, TlbMissCosts)
{
    MemoryHierarchy mem(cfg_);
    bool miss = false;
    EXPECT_EQ(mem.dtlbAccess(0x77000, miss), cfg_.tlbMissCycles);
    EXPECT_TRUE(miss);
    EXPECT_EQ(mem.dtlbAccess(0x77008, miss), 0);
    EXPECT_FALSE(miss);
}

} // namespace
} // namespace th
