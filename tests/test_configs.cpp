#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/configs.h"

namespace th {
namespace {

class ConfigTest : public ::testing::Test
{
  protected:
    BlockLibrary lib_;
};

TEST_F(ConfigTest, FiveFigure8Configs)
{
    const auto cfgs = figure8Configs();
    ASSERT_EQ(cfgs.size(), 5u);
    EXPECT_EQ(cfgs.front(), ConfigKind::Base);
    EXPECT_EQ(cfgs.back(), ConfigKind::ThreeD);
}

TEST_F(ConfigTest, Names)
{
    EXPECT_STREQ(configName(ConfigKind::Base), "Base");
    EXPECT_STREQ(configName(ConfigKind::TH), "TH");
    EXPECT_STREQ(configName(ConfigKind::Pipe), "Pipe");
    EXPECT_STREQ(configName(ConfigKind::Fast), "Fast");
    EXPECT_STREQ(configName(ConfigKind::ThreeD), "3D");
    EXPECT_STREQ(configName(ConfigKind::ThreeDNoTH), "3D-noTH");
}

TEST_F(ConfigTest, BaseIsVanilla)
{
    const CoreConfig c = makeConfig(ConfigKind::Base, lib_);
    EXPECT_FALSE(c.thermalHerding);
    EXPECT_FALSE(c.pipeOpts);
    EXPECT_FALSE(c.stacked);
    EXPECT_NEAR(c.freqGhz, 2.66, 1e-9);
    EXPECT_EQ(c.bmispredMin(), 14);
    EXPECT_EQ(c.l2Cycles(), 12);
    EXPECT_EQ(c.fpLoadExtraCycles(), 1);
}

TEST_F(ConfigTest, ThIsolatesHerding)
{
    const CoreConfig c = makeConfig(ConfigKind::TH, lib_);
    EXPECT_TRUE(c.thermalHerding);
    EXPECT_FALSE(c.pipeOpts);
    EXPECT_NEAR(c.freqGhz, 2.66, 1e-9)
        << "TH keeps the baseline clock to isolate the IPC impact";
}

TEST_F(ConfigTest, PipeIsolatesPipelineOpts)
{
    const CoreConfig c = makeConfig(ConfigKind::Pipe, lib_);
    EXPECT_TRUE(c.pipeOpts);
    EXPECT_FALSE(c.thermalHerding);
    EXPECT_EQ(c.bmispredMin(), 12);
    EXPECT_EQ(c.l2Cycles(), 10);
    EXPECT_EQ(c.fpLoadExtraCycles(), 0);
}

TEST_F(ConfigTest, FastOnlyRaisesClock)
{
    const CoreConfig c = makeConfig(ConfigKind::Fast, lib_);
    EXPECT_FALSE(c.thermalHerding);
    EXPECT_FALSE(c.pipeOpts);
    EXPECT_NEAR(c.freqGhz, lib_.frequency3dGhz(), 1e-9);
}

TEST_F(ConfigTest, ThreeDCombinesEverything)
{
    const CoreConfig c = makeConfig(ConfigKind::ThreeD, lib_);
    EXPECT_TRUE(c.thermalHerding);
    EXPECT_TRUE(c.pipeOpts);
    EXPECT_TRUE(c.stacked);
    EXPECT_NEAR(c.freqGhz, lib_.frequency3dGhz(), 1e-9);
}

TEST_F(ConfigTest, ThreeDNoThDisablesHerdingOnly)
{
    const CoreConfig c = makeConfig(ConfigKind::ThreeDNoTH, lib_);
    EXPECT_FALSE(c.thermalHerding);
    EXPECT_TRUE(c.pipeOpts);
    EXPECT_TRUE(c.stacked);
}

TEST_F(ConfigTest, MemoryLatencyInCyclesGrowsWithClock)
{
    const CoreConfig base = makeConfig(ConfigKind::Base, lib_);
    const CoreConfig fast = makeConfig(ConfigKind::Fast, lib_);
    EXPECT_GT(fast.memLatencyCycles(), base.memLatencyCycles());
}

// Golden store keys for every preset. These hashes key the persistent
// artifact store (store/artifact_store.h), so they must not silently
// change meaning between builds: a change here invalidates or — worse
// — misinterprets every on-disk artifact. If a change is INTENTIONAL
// (new field folded in, changed default), update this table AND bump
// the schema constant that guards the key (kStoreSchemaVersion for
// configHash, the per-kind report/model versions in io/serialize.h for
// the derived keys) so stale artifacts are rejected rather than misread.
//
// One column per key: configHash, dtmConfigHash at default and at
// non-default DtmOptions, intervalFamilyHash, intervalModelKey at
// default IntervalOptions, and multicoreConfigHash at default and at
// non-default DTM knobs. The derived keys re-walk the CoreConfig and
// DtmOptions fields, so pinning them pins those walks too.
TEST_F(ConfigTest, GoldenConfigHashes)
{
    DtmOptions tuned; // Every knob off its default.
    tuned.intervalCycles = 12500;
    tuned.maxIntervals = 7;
    tuned.warmupInstructions = 5000;
    tuned.policy = DtmPolicyKind::FetchThrottle;
    tuned.triggers.triggerK = 355.5;
    tuned.triggers.hysteresisK = 2.0;
    tuned.timeDilation = 250.0;
    tuned.gridN = 12;
    tuned.maxDtS = 5e-5;
    tuned.solver = SolverKind::Multigrid;
    MulticoreConfig mc_tuned;
    mc_tuned.dtm = tuned;

    const struct
    {
        ConfigKind kind;
        std::uint64_t config, dtm, dtmTuned, family, model, mc, mcTuned;
    } golden[] = {
        {ConfigKind::Base,
         0x452cd60ddfb4205dULL, 0xa75041ff16a1bbb2ULL, 0x7c0ad88adaf76712ULL,
         0xbe865e35df545be4ULL, 0xccfd6a21ba8360d4ULL, 0x045bf58d5ae062bcULL,
         0xa61ed24c59a1d9c0ULL},
        {ConfigKind::TH,
         0x6517a30db77549dcULL, 0x5a3190fbead16661ULL, 0x3c66b6377a7c4539ULL,
         0x6c67bfcba483ab45ULL, 0xaad403479b75ededULL, 0x35ad67f339cce5ffULL,
         0x91e48a8774ce1203ULL},
        {ConfigKind::Pipe,
         0x1099ffc40823dfbcULL, 0xa0f18f48203ecdfcULL, 0xaedce66fd1d52480ULL,
         0x607b5c6768831165ULL, 0xcc1407220cfd9a66ULL, 0xd2faedd499acccb2ULL,
         0xa7b584605e027812ULL},
        {ConfigKind::Fast,
         0x4b28d4e4856ae390ULL, 0xf4bc20bef2ce6e27ULL, 0x608e9a4cd9ffea3bULL,
         0xbe865e35df545be4ULL, 0xccfd6a21ba8360d4ULL, 0xefc8f576d9ce7079ULL,
         0x5009aeff561c9c41ULL},
        {ConfigKind::ThreeD,
         0x1f51a48071a92031ULL, 0xd4b53c76491297d1ULL, 0xee627d7acbced6a9ULL,
         0xca72c19a1b54f5c4ULL, 0xa090a6d959fb5f7cULL, 0xd96d0bd20cf967efULL,
         0xc5eaaca18e8a04b3ULL},
        {ConfigKind::ThreeDNoTH,
         0x57153848c16b7d70ULL, 0x172c4c890494ab39ULL, 0xd7e410ba0e005b81ULL,
         0x607b5c6768831165ULL, 0xcc1407220cfd9a66ULL, 0x938541a8df760667ULL,
         0xd6aef9eb7444d7fbULL},
    };
    for (const auto &g : golden) {
        const CoreConfig cfg = makeConfig(g.kind, lib_);
        const char *name = configName(g.kind);
        EXPECT_EQ(configHash(cfg), g.config)
            << "configHash(" << name << ") drifted — "
            << "on-disk store keys changed meaning. If intentional, "
            << "update the golden table and bump kStoreSchemaVersion.";
        EXPECT_EQ(dtmConfigHash(cfg, DtmOptions{}), g.dtm)
            << "dtmConfigHash(" << name << ", defaults) drifted";
        EXPECT_EQ(dtmConfigHash(cfg, tuned), g.dtmTuned)
            << "dtmConfigHash(" << name << ", tuned) drifted";
        EXPECT_EQ(intervalFamilyHash(cfg), g.family)
            << "intervalFamilyHash(" << name << ") drifted";
        EXPECT_EQ(intervalModelKey(cfg, IntervalOptions{}), g.model)
            << "intervalModelKey(" << name << ") drifted";
        EXPECT_EQ(multicoreConfigHash(cfg, MulticoreConfig{}), g.mc)
            << "multicoreConfigHash(" << name << ", defaults) drifted";
        EXPECT_EQ(multicoreConfigHash(cfg, mc_tuned), g.mcTuned)
            << "multicoreConfigHash(" << name << ", tuned) drifted";
    }
}

TEST_F(ConfigTest, ConfigHashDistinguishesPresets)
{
    const auto kinds = {ConfigKind::Base,   ConfigKind::TH,
                        ConfigKind::Pipe,   ConfigKind::Fast,
                        ConfigKind::ThreeD, ConfigKind::ThreeDNoTH};
    std::vector<std::uint64_t> hashes;
    for (ConfigKind k : kinds)
        hashes.push_back(configHash(makeConfig(k, lib_)));
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()), hashes.end())
        << "two presets share a cache key";
}

} // namespace
} // namespace th
