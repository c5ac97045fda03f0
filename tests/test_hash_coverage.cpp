/**
 * @file
 * Perturbation tests of the artifact-store cache keys: every CoreConfig
 * and DtmOptions field must actually move configHash / dtmConfigHash
 * when it changes, and the derived keys (intervalFamilyHash,
 * multicoreConfigHash) must move with every field they fold.
 * tools/th_lint statically proves each field is *referenced* by its
 * struct's field list; these tests prove the reference is *effective*
 * (folded into the digest, not e.g. dead code) — together they close
 * the stale-cache-artifact hole from both sides.
 */

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dtm/engine.h"
#include "sim/configs.h"

namespace th {
namespace {

struct CfgMutator
{
    const char *field;
    std::function<void(CoreConfig &)> apply;
};

std::vector<CfgMutator>
coreConfigMutators()
{
    // One entry per CoreConfig simulation-input field, in declaration
    // order (params.h). `name` is deliberately absent: it is a display
    // label and must NOT perturb the hash (asserted separately below).
    return {
        {"fetchWidth", [](CoreConfig &c) { c.fetchWidth += 1; }},
        {"decodeWidth", [](CoreConfig &c) { c.decodeWidth += 1; }},
        {"commitWidth", [](CoreConfig &c) { c.commitWidth += 1; }},
        {"issueWidth", [](CoreConfig &c) { c.issueWidth += 1; }},
        {"ifqSize", [](CoreConfig &c) { c.ifqSize += 1; }},
        {"robSize", [](CoreConfig &c) { c.robSize += 1; }},
        {"rsSize", [](CoreConfig &c) { c.rsSize += 1; }},
        {"lqSize", [](CoreConfig &c) { c.lqSize += 1; }},
        {"sqSize", [](CoreConfig &c) { c.sqSize += 1; }},
        {"numIntAlu", [](CoreConfig &c) { c.numIntAlu += 1; }},
        {"numIntShift", [](CoreConfig &c) { c.numIntShift += 1; }},
        {"numIntMult", [](CoreConfig &c) { c.numIntMult += 1; }},
        {"numFpAdd", [](CoreConfig &c) { c.numFpAdd += 1; }},
        {"numFpMult", [](CoreConfig &c) { c.numFpMult += 1; }},
        {"numFpDiv", [](CoreConfig &c) { c.numFpDiv += 1; }},
        {"numLoadPorts", [](CoreConfig &c) { c.numLoadPorts += 1; }},
        {"numStorePorts", [](CoreConfig &c) { c.numStorePorts += 1; }},
        {"il1Bytes", [](CoreConfig &c) { c.il1Bytes *= 2; }},
        {"il1Assoc", [](CoreConfig &c) { c.il1Assoc *= 2; }},
        {"il1LineBytes", [](CoreConfig &c) { c.il1LineBytes *= 2; }},
        {"dl1Bytes", [](CoreConfig &c) { c.dl1Bytes *= 2; }},
        {"dl1Assoc", [](CoreConfig &c) { c.dl1Assoc *= 2; }},
        {"dl1LineBytes", [](CoreConfig &c) { c.dl1LineBytes *= 2; }},
        {"l2Bytes", [](CoreConfig &c) { c.l2Bytes *= 2; }},
        {"l2Assoc", [](CoreConfig &c) { c.l2Assoc *= 2; }},
        {"l2LineBytes", [](CoreConfig &c) { c.l2LineBytes *= 2; }},
        {"il1Cycles", [](CoreConfig &c) { c.il1Cycles += 1; }},
        {"dl1Cycles", [](CoreConfig &c) { c.dl1Cycles += 1; }},
        {"itlbEntries", [](CoreConfig &c) { c.itlbEntries *= 2; }},
        {"itlbAssoc", [](CoreConfig &c) { c.itlbAssoc *= 2; }},
        {"dtlbEntries", [](CoreConfig &c) { c.dtlbEntries *= 2; }},
        {"dtlbAssoc", [](CoreConfig &c) { c.dtlbAssoc *= 2; }},
        {"tlbMissCycles", [](CoreConfig &c) { c.tlbMissCycles += 1; }},
        {"bimodalEntries",
         [](CoreConfig &c) { c.bimodalEntries *= 2; }},
        {"localHistEntries",
         [](CoreConfig &c) { c.localHistEntries *= 2; }},
        {"localHistBits", [](CoreConfig &c) { c.localHistBits += 1; }},
        {"localCounterEntries",
         [](CoreConfig &c) { c.localCounterEntries *= 2; }},
        {"globalHistBits",
         [](CoreConfig &c) { c.globalHistBits += 1; }},
        {"chooserEntries",
         [](CoreConfig &c) { c.chooserEntries *= 2; }},
        {"btbEntries", [](CoreConfig &c) { c.btbEntries *= 2; }},
        {"btbAssoc", [](CoreConfig &c) { c.btbAssoc *= 2; }},
        {"ibtbEntries", [](CoreConfig &c) { c.ibtbEntries *= 2; }},
        {"ibtbAssoc", [](CoreConfig &c) { c.ibtbAssoc *= 2; }},
        {"freqGhz", [](CoreConfig &c) { c.freqGhz *= 1.25; }},
        {"memLatencyNs", [](CoreConfig &c) { c.memLatencyNs *= 1.5; }},
        {"maxOutstandingMisses",
         [](CoreConfig &c) { c.maxOutstandingMisses += 1; }},
        {"frontendDepth", [](CoreConfig &c) { c.frontendDepth += 1; }},
        {"thermalHerding",
         [](CoreConfig &c) { c.thermalHerding = !c.thermalHerding; }},
        {"pipeOpts", [](CoreConfig &c) { c.pipeOpts = !c.pipeOpts; }},
        {"stacked", [](CoreConfig &c) { c.stacked = !c.stacked; }},
        {"schedAlloc",
         [](CoreConfig &c) {
             c.schedAlloc = c.schedAlloc == SchedAllocPolicy::TopDieFirst
                                ? SchedAllocPolicy::RoundRobin
                                : SchedAllocPolicy::TopDieFirst;
         }},
        {"pamEnabled",
         [](CoreConfig &c) { c.pamEnabled = !c.pamEnabled; }},
        {"pveEnabled",
         [](CoreConfig &c) { c.pveEnabled = !c.pveEnabled; }},
        {"btbMemoEnabled",
         [](CoreConfig &c) { c.btbMemoEnabled = !c.btbMemoEnabled; }},
        {"widthPredEntries",
         [](CoreConfig &c) { c.widthPredEntries *= 2; }},
        {"widthPredKind",
         [](CoreConfig &c) { c.widthPredKind = WidthPredKind::Oracle; }},
    };
}

struct DtmMutator
{
    const char *field;
    std::function<void(DtmOptions &)> apply;
};

std::vector<DtmMutator>
dtmOptionsMutators()
{
    return {
        {"intervalCycles",
         [](DtmOptions &o) { o.intervalCycles += 1000; }},
        {"maxIntervals", [](DtmOptions &o) { o.maxIntervals += 1; }},
        {"warmupInstructions",
         [](DtmOptions &o) { o.warmupInstructions += 1000; }},
        {"policy",
         [](DtmOptions &o) { o.policy = DtmPolicyKind::FetchThrottle; }},
        {"triggers.triggerK",
         [](DtmOptions &o) { o.triggers.triggerK += 1.0; }},
        {"triggers.hysteresisK",
         [](DtmOptions &o) { o.triggers.hysteresisK += 0.5; }},
        {"timeDilation", [](DtmOptions &o) { o.timeDilation *= 2.0; }},
        {"gridN", [](DtmOptions &o) { o.gridN += 8; }},
        {"maxDtS", [](DtmOptions &o) { o.maxDtS *= 0.5; }},
        {"solver",
         [](DtmOptions &o) { o.solver = SolverKind::Multigrid; }},
    };
}

TEST(HashCoverage, MutatorsFollowTheFieldLists)
{
    // The mutator tables are hand-kept; tie them to the one list of
    // each struct (core/params.h, dtm/engine.h) so a listed field
    // without a perturbation fails here.
    std::vector<std::string> listed, mutated;
    forEachConfigField(
        [&](const char *name, const auto &) { listed.push_back(name); },
        CoreConfig{});
    for (const CfgMutator &m : coreConfigMutators())
        mutated.push_back(m.field);
    EXPECT_EQ(listed, mutated);

    listed.clear();
    mutated.clear();
    forEachDtmOption(
        [&](const char *name, const auto &) { listed.push_back(name); },
        DtmOptions{});
    for (const DtmMutator &m : dtmOptionsMutators())
        mutated.push_back(m.field);
    EXPECT_EQ(listed, mutated);
}

TEST(HashCoverage, EveryCoreConfigFieldPerturbsConfigHash)
{
    const CoreConfig base;
    const std::uint64_t base_hash = configHash(base);
    std::set<std::uint64_t> seen{base_hash};
    for (const CfgMutator &m : coreConfigMutators()) {
        CoreConfig cfg;
        m.apply(cfg);
        const std::uint64_t h = configHash(cfg);
        EXPECT_NE(h, base_hash)
            << "configHash ignores CoreConfig field " << m.field;
        EXPECT_TRUE(seen.insert(h).second)
            << "perturbing " << m.field
            << " collides with an earlier perturbation";
    }
}

TEST(HashCoverage, DisplayNameDoesNotPerturbConfigHash)
{
    const CoreConfig base;
    CoreConfig renamed;
    renamed.name = "a completely different label";
    EXPECT_EQ(configHash(base), configHash(renamed))
        << "the display name must never key cache artifacts: ablation "
           "variants deliberately share it";
}

TEST(HashCoverage, EveryDtmOptionsFieldPerturbsDtmConfigHash)
{
    const CoreConfig cfg;
    const DtmOptions base;
    const std::uint64_t base_hash = dtmConfigHash(cfg, base);
    std::set<std::uint64_t> seen{base_hash};
    for (const DtmMutator &m : dtmOptionsMutators()) {
        DtmOptions o;
        m.apply(o);
        const std::uint64_t h = dtmConfigHash(cfg, o);
        EXPECT_NE(h, base_hash)
            << "dtmConfigHash ignores DtmOptions field " << m.field;
        EXPECT_TRUE(seen.insert(h).second)
            << "perturbing " << m.field
            << " collides with an earlier perturbation";
    }
}

TEST(HashCoverage, EveryNonRetargetedFieldPerturbsIntervalFamilyHash)
{
    // Replay retargets these six axes analytically, so one fitted
    // model serves them all; every other field keys its own family.
    const std::set<std::string> retargeted = {
        "freqGhz",    "stacked",     "fetchWidth",
        "decodeWidth", "issueWidth", "commitWidth"};
    const CoreConfig base;
    const std::uint64_t base_hash = intervalFamilyHash(base);
    std::set<std::uint64_t> seen{base_hash};
    for (const CfgMutator &m : coreConfigMutators()) {
        CoreConfig cfg;
        m.apply(cfg);
        const std::uint64_t h = intervalFamilyHash(cfg);
        if (retargeted.count(m.field) != 0) {
            EXPECT_EQ(h, base_hash)
                << "intervalFamilyHash folds retargeted field "
                << m.field;
            continue;
        }
        EXPECT_NE(h, base_hash)
            << "intervalFamilyHash ignores CoreConfig field " << m.field;
        EXPECT_TRUE(seen.insert(h).second)
            << "perturbing " << m.field
            << " collides with an earlier perturbation";
    }
}

TEST(HashCoverage, EveryDtmOptionsFieldPerturbsMulticoreConfigHash)
{
    const CoreConfig cfg;
    const MulticoreConfig base;
    const std::uint64_t base_hash = multicoreConfigHash(cfg, base);
    std::set<std::uint64_t> seen{base_hash};
    for (const DtmMutator &m : dtmOptionsMutators()) {
        MulticoreConfig mc;
        m.apply(mc.dtm);
        const std::uint64_t h = multicoreConfigHash(cfg, mc);
        EXPECT_NE(h, base_hash)
            << "multicoreConfigHash ignores DtmOptions field " << m.field;
        EXPECT_TRUE(seen.insert(h).second)
            << "perturbing " << m.field
            << " collides with an earlier perturbation";
    }
}

TEST(HashCoverage, DtmHashFoldsTheCoreConfig)
{
    const DtmOptions opts;
    CoreConfig a;
    CoreConfig b;
    b.robSize += 1;
    EXPECT_NE(dtmConfigHash(a, opts), dtmConfigHash(b, opts));
}

} // namespace
} // namespace th
