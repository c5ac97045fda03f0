/**
 * @file
 * Synthetic benchmark generator.
 *
 * Generates dynamic instruction traces from a randomly synthesised
 * *static program* (kernels of basic blocks with loop and branch
 * structure). Because width behaviour, branch bias, and memory access
 * patterns are attached to static instructions, the dynamic stream
 * exhibits the PC-correlated behaviours the paper's mechanisms exploit:
 * highly predictable per-PC value widths (Section 3), branch targets
 * near the branch PC (Section 3.7), and clustered stack/heap accesses
 * (Section 3.5).
 */

#ifndef TH_TRACE_GENERATOR_H
#define TH_TRACE_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/trace.h"

namespace th {

/**
 * Statistical profile of one benchmark. All `f*` op-mix fields are
 * fractions of the dynamic instruction stream and should sum to <= 1;
 * the remainder becomes IntAlu.
 */
struct BenchmarkProfile
{
    std::string name = "synthetic";
    std::string suite = "misc";

    // --- Dynamic op mix. ---
    double fShift = 0.05;
    double fMult = 0.01;
    double fFpAdd = 0.0;
    double fFpMult = 0.0;
    double fFpDiv = 0.0;
    double fLoad = 0.22;
    double fStore = 0.11;
    double fBranch = 0.15;
    double fJump = 0.015;
    double fIndirect = 0.005;
    double fNop = 0.01;

    // --- Value widths (integer results). ---
    /** Fraction of int-producing static insts biased to low width. */
    double lowWidthBias = 0.62;
    /** Per-dynamic-instance width flip probability (caps predictor
     *  accuracy; the paper observes 97% overall accuracy). */
    double widthNoise = 0.010;
    /** Given a full-width load value: probability the upper 48 bits are
     *  all ones (small negative numbers). */
    double loadUpperOnes = 0.12;
    /** ...or match the referencing address (nearby heap pointers). */
    double loadUpperAddr = 0.22;

    // --- Branch behaviour. ---
    double takenRate = 0.60;
    /** Fraction of conditional branches that are data-dependent noise
     *  (near-50/50), which the predictors cannot learn. */
    double branchNoise = 0.02;
    /** Mean distinct dynamic targets per indirect jump. */
    double indirectTargets = 2.0;

    // --- Static program shape. ---
    int numKernels = 24;
    int kernelSize = 28;
    double loopTripMean = 40.0;

    // --- Memory behaviour. ---
    double stackFrac = 0.35;  ///< Memory ops referencing the stack.
    double heapFrac = 0.45;   ///< ...the heap (rest hit globals).
    double pointerChaseFrac = 0.08; ///< Heap loads that pointer-chase.
    std::uint64_t hotBytes = 16 * 1024;        ///< L1-resident set.
    std::uint64_t warmBytes = 512 * 1024;      ///< L2-resident set.
    std::uint64_t coldBytes = 16ULL << 20;     ///< DRAM-resident set.
    double warmFrac = 0.06;   ///< Accesses directed at the warm set.
    double coldFrac = 0.001;  ///< Accesses directed at the cold set.

    // --- Dataflow. ---
    /** Mean register dependency distance (smaller = less ILP). */
    double depDistMean = 5.0;

    std::uint64_t seed = 0x7ead1;
};

/**
 * TraceSource implementation that walks a synthesised static program.
 * Deterministic for a given profile (including its seed).
 */
class SyntheticTrace : public TraceSource
{
  public:
    explicit SyntheticTrace(const BenchmarkProfile &profile);

    bool next(TraceRecord &rec) override;
    void reset() override;
    void prefillLines(std::vector<PrefillLine> &lines) const override;

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    /** One static instruction of the synthesised program. */
    struct StaticInst
    {
        Addr pc = 0;
        OpClass op = OpClass::IntAlu;
        int numSrcs = 0;
        RegIndex srcRegs[kMaxSrcs] = {0, 0};
        bool hasDst = false;
        RegIndex dstReg = 0;

        /** Probability this instance's result is low-width. */
        double lowWidthProb = 0.5;

        /**
         * Per-site value shape for full-width results (real code has
         * strong per-PC value locality): 1 = upper bits all ones,
         * 2 = pointer-like (upper bits match the heap region),
         * 3 = arbitrary wide value.
         */
        int fullValueClass = 3;

        // Branches.
        double takenBias = 0.5;
        int targetIdx = -1;      ///< Kernel-local target (fwd branches).
        bool isLoopBranch = false;
        int jumpKernel = -1;     ///< Jump destination kernel.
        std::vector<int> indirectKernels; ///< Indirect target set.

        // Memory.
        int memRegion = 0;       ///< 0 stack, 1 heap, 2 global.
        int memSet = 0;          ///< 0 hot, 1 warm, 2 cold.
        bool pointerChase = false;
        std::uint64_t stride = 8;
    };

    struct Kernel
    {
        std::vector<StaticInst> insts;
        int loopBranchIdx = -1;
        /** Program-wide static index of insts[0] (per-site state). */
        int firstId = 0;
    };

    void buildProgram();
    void assignMemorySets();
    Kernel buildKernel(int index, Addr base_pc);
    OpClass sampleOpClass();
    void fillDynamic(const StaticInst &si, TraceRecord &rec);
    std::uint64_t sampleValue(const StaticInst &si, bool &is_low);
    Addr nextMemAddr(const StaticInst &si, int static_id);
    void advanceControl(const StaticInst &si, const TraceRecord &rec);

    BenchmarkProfile profile_;
    Rng rng_;
    std::vector<Kernel> kernels_;

    // Walker state.
    int cur_kernel_ = 0;
    int cur_idx_ = 0;
    int loop_trips_left_ = 0;
    std::vector<std::uint64_t> reg_values_;
    std::vector<std::uint64_t> mem_counters_; ///< Per-static-inst stride state.
    std::vector<Addr> chase_ptrs_;            ///< Per-static-inst chase state.
    std::vector<int> indirect_rr_;            ///< Round-robin state.

    // Region base addresses (distinct upper 16 bits, so PAM sees
    // broadcasts change exactly when the reference stream switches
    // region).
    static constexpr Addr kStackBase = 0x00007fffff000000ULL;
    static constexpr Addr kHeapBase = 0x0000200000000000ULL;
    static constexpr Addr kGlobalBase = 0x0000000040000000ULL;
    static constexpr Addr kTextBase = 0x0000000000400000ULL;
};

} // namespace th

#endif // TH_TRACE_GENERATOR_H
