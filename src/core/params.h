/**
 * @file
 * Core configuration: the Table 1 microarchitecture parameters of the
 * paper's Core-2-class baseline, plus the feature switches that define
 * the five evaluated configurations (Base / TH / Pipe / Fast / 3D).
 */

#ifndef TH_CORE_PARAMS_H
#define TH_CORE_PARAMS_H

#include <cmath>
#include <cstdint>
#include <string>

#include "core/width_predictor.h"

namespace th {

/** Scheduler allocation policy across the four dies (Section 3.4). */
enum class SchedAllocPolicy {
    TopDieFirst, ///< Herd active entries towards the heat-sink die.
    RoundRobin   ///< Thermally-unaware baseline (ablation).
};

/** Full configuration of one simulated core. */
struct CoreConfig
{
    /** Display label only — never affects simulation, and ablation
     *  variants deliberately share the base name, so configHash must
     *  not fold it. */
    std::string name = "base"; // th_lint: excluded(display label; not a simulation input)

    // --- Table 1 parameters. ---
    int fetchWidth = 4;
    int decodeWidth = 4;
    int commitWidth = 4;
    int issueWidth = 6;
    int ifqSize = 16;
    int robSize = 96;
    int rsSize = 32;
    int lqSize = 32;
    int sqSize = 20;

    int numIntAlu = 3;
    int numIntShift = 2;
    int numIntMult = 1;
    int numFpAdd = 1;
    int numFpMult = 1;
    int numFpDiv = 1;
    /** Memory ports: one load/store + one load-only. */
    int numLoadPorts = 2;
    int numStorePorts = 1;

    // Caches / TLBs.
    int il1Bytes = 32 * 1024, il1Assoc = 8, il1LineBytes = 64;
    int dl1Bytes = 32 * 1024, dl1Assoc = 8, dl1LineBytes = 64;
    int l2Bytes = 4 * 1024 * 1024, l2Assoc = 16, l2LineBytes = 64;
    int il1Cycles = 3;
    int dl1Cycles = 3;
    int itlbEntries = 128, itlbAssoc = 4;
    int dtlbEntries = 256, dtlbAssoc = 4;
    int tlbMissCycles = 30;

    // Branch prediction (10KB hybrid + BTB).
    int bimodalEntries = 4096;
    int localHistEntries = 1024, localHistBits = 10;
    int localCounterEntries = 4096;
    int globalHistBits = 12;
    int chooserEntries = 4096;
    int btbEntries = 2048, btbAssoc = 4;
    /** Separate indirect-target BTB (Table 1's iBTB). */
    int ibtbEntries = 512, ibtbAssoc = 4;

    // --- Timing. ---
    double freqGhz = 2.66;
    /** DRAM access latency in nanoseconds (frequency-independent). */
    double memLatencyNs = 75.0;
    /** Maximum overlapped cache misses (MLP). */
    int maxOutstandingMisses = 8;
    /** Depth of the fetch..execute path (cycles) for mispredict math:
     *  fetch -> decode -> dispatch -> issue -> resolve in this model,
     *  so the redirect bubble makes up the rest of the Table 1
     *  minimum penalty. */
    int frontendDepth = 5;

    // --- Feature switches. ---
    /** Thermal Herding: width prediction + partitioned structures. */
    bool thermalHerding = false;
    /** 3D pipeline optimisations: shorter mispredict path, faster L2
     *  (in cycles), no extra FP-load forwarding cycle. */
    bool pipeOpts = false;
    /** 4-die stacked implementation (affects power/thermal mapping). */
    bool stacked = false;
    SchedAllocPolicy schedAlloc = SchedAllocPolicy::TopDieFirst;

    // --- Ablation switches (all on when thermalHerding is on). ---
    /** Partial address memoization in the LSQ (Section 3.5). */
    bool pamEnabled = true;
    /** 2-bit partial value encoding in the L1D (Section 3.6); when
     *  off, only upper-zero values count as low-width (1-bit memo). */
    bool pveEnabled = true;
    /** BTB target memoization (Section 3.7). */
    bool btbMemoEnabled = true;

    // Width predictor.
    int widthPredEntries = 4096;
    WidthPredKind widthPredKind = WidthPredKind::TwoBit;

    // --- Derived latencies. ---
    /** Branch mispredict minimum penalty: 14 baseline / 12 with the 3D
     *  pipeline optimisations (Section 3.8). */
    int bmispredMin() const { return pipeOpts ? 12 : 14; }

    /** Redirect cycles after branch resolution. */
    int redirectCycles() const { return bmispredMin() - frontendDepth; }

    /** L2 hit latency: 12 baseline / 10 with 3D (Section 5.1.2). */
    int l2Cycles() const { return pipeOpts ? 10 : 12; }

    /** Extra forwarding cycle for loads feeding FP registers, removed
     *  by the compacted 3D bypass (Section 3.8). */
    int fpLoadExtraCycles() const { return pipeOpts ? 0 : 1; }

    /** DRAM latency in cycles at this configuration's frequency. */
    int memLatencyCycles() const
    {
        return static_cast<int>(std::ceil(memLatencyNs * freqGhz));
    }
};

/**
 * Call fn(name, c.field...) once per CoreConfig simulation input,
 * passing the same member of every argument, in store-key order. This
 * is the one list of CoreConfig's inputs: configHash and
 * intervalFamilyHash (sim/configs.cpp) fold it, so a field added to
 * the struct and to this list keys every store artifact. `name` is
 * absent on purpose: it is a display label. Changing the order or the
 * set changes every store key, so it must bump kStoreSchemaVersion and
 * update the golden table in tests/test_configs.cpp.
 */
template <class Fn, class... Cfgs>
void
forEachConfigField(Fn &&fn, Cfgs &&...c)
{
    fn("fetchWidth", c.fetchWidth...);
    fn("decodeWidth", c.decodeWidth...);
    fn("commitWidth", c.commitWidth...);
    fn("issueWidth", c.issueWidth...);
    fn("ifqSize", c.ifqSize...);
    fn("robSize", c.robSize...);
    fn("rsSize", c.rsSize...);
    fn("lqSize", c.lqSize...);
    fn("sqSize", c.sqSize...);
    fn("numIntAlu", c.numIntAlu...);
    fn("numIntShift", c.numIntShift...);
    fn("numIntMult", c.numIntMult...);
    fn("numFpAdd", c.numFpAdd...);
    fn("numFpMult", c.numFpMult...);
    fn("numFpDiv", c.numFpDiv...);
    fn("numLoadPorts", c.numLoadPorts...);
    fn("numStorePorts", c.numStorePorts...);
    fn("il1Bytes", c.il1Bytes...);
    fn("il1Assoc", c.il1Assoc...);
    fn("il1LineBytes", c.il1LineBytes...);
    fn("dl1Bytes", c.dl1Bytes...);
    fn("dl1Assoc", c.dl1Assoc...);
    fn("dl1LineBytes", c.dl1LineBytes...);
    fn("l2Bytes", c.l2Bytes...);
    fn("l2Assoc", c.l2Assoc...);
    fn("l2LineBytes", c.l2LineBytes...);
    fn("il1Cycles", c.il1Cycles...);
    fn("dl1Cycles", c.dl1Cycles...);
    fn("itlbEntries", c.itlbEntries...);
    fn("itlbAssoc", c.itlbAssoc...);
    fn("dtlbEntries", c.dtlbEntries...);
    fn("dtlbAssoc", c.dtlbAssoc...);
    fn("tlbMissCycles", c.tlbMissCycles...);
    fn("bimodalEntries", c.bimodalEntries...);
    fn("localHistEntries", c.localHistEntries...);
    fn("localHistBits", c.localHistBits...);
    fn("localCounterEntries", c.localCounterEntries...);
    fn("globalHistBits", c.globalHistBits...);
    fn("chooserEntries", c.chooserEntries...);
    fn("btbEntries", c.btbEntries...);
    fn("btbAssoc", c.btbAssoc...);
    fn("ibtbEntries", c.ibtbEntries...);
    fn("ibtbAssoc", c.ibtbAssoc...);
    fn("freqGhz", c.freqGhz...);
    fn("memLatencyNs", c.memLatencyNs...);
    fn("maxOutstandingMisses", c.maxOutstandingMisses...);
    fn("frontendDepth", c.frontendDepth...);
    fn("thermalHerding", c.thermalHerding...);
    fn("pipeOpts", c.pipeOpts...);
    fn("stacked", c.stacked...);
    fn("schedAlloc", c.schedAlloc...);
    fn("pamEnabled", c.pamEnabled...);
    fn("pveEnabled", c.pveEnabled...);
    fn("btbMemoEnabled", c.btbMemoEnabled...);
    fn("widthPredEntries", c.widthPredEntries...);
    fn("widthPredKind", c.widthPredKind...);
}

/** Functional unit execution latencies (cycles). */
struct FuLatencies
{
    int intAlu = 1;
    int intShift = 1;
    int intMult = 4;
    int fpAdd = 3;
    int fpMult = 4;
    int fpDiv = 20;   ///< Unpipelined.
    int agu = 1;      ///< Address generation before cache access.
    int storeFwd = 1; ///< Store-to-load forwarding latency.
};

} // namespace th

#endif // TH_CORE_PARAMS_H
