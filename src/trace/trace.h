/**
 * @file
 * Dynamic instruction trace record and the trace-source interface.
 *
 * The paper drives SimpleScalar/MASE with Alpha binaries from
 * SPEC2000, MediaBench, MiBench, the Wisconsin pointer benchmarks,
 * graphics programs, and BioBench/BioPerf. Those binaries are not
 * redistributable, so this library drives its cycle-level core model
 * with synthetic traces whose value-width, branch, and memory-locality
 * statistics are calibrated per benchmark (see suites.h).
 */

#ifndef TH_TRACE_TRACE_H
#define TH_TRACE_TRACE_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace th {

/** Maximum source operands per instruction. */
inline constexpr int kMaxSrcs = 2;

/** One dynamic instruction as consumed by the core model. */
struct TraceRecord
{
    Addr pc = 0;
    OpClass op = OpClass::Nop;

    int numSrcs = 0;
    RegIndex srcRegs[kMaxSrcs] = {0, 0};
    bool hasDst = false;
    RegIndex dstReg = 0;

    /**
     * Architectural result value. Drives the width predictor ground
     * truth, the register-file memoization bits, and the partial value
     * encoding. For stores this is the stored value; for branches the
     * (unused) condition.
     */
    std::uint64_t resultValue = 0;

    /** Source operand values (for operand-width mispredict modelling). */
    std::uint64_t srcValues[kMaxSrcs] = {0, 0};

    // --- Memory operations. ---
    Addr effAddr = 0;
    std::uint8_t memSize = 8;

    // --- Control transfer. ---
    bool taken = false;
    Addr target = 0;

    /** True when the op class is Load or Store. */
    bool isMem() const { return isMemOp(op); }

    /** True for any control transfer. */
    bool isControl() const { return isControlOp(op); }

    /** Width class of the result value. */
    Width resultWidth() const;

    /** Width class of source operand @p i. */
    Width srcWidth(int i) const;
};

/**
 * A cache line the simulator should treat as resident at time zero
 * (steady-state modelling for working sets the trace re-references).
 */
struct PrefillLine
{
    Addr addr = 0;
    bool intoL1 = false; ///< Also resident in the L1 (not just L2).
};

/**
 * A stream of dynamic instructions. Implementations: the synthetic
 * benchmark generator (generator.h) and test fixtures.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next dynamic instruction, defining every field of
     * @p rec: the caller passes a record holding a previous
     * instruction and does not reset it.
     * @return False when the trace is exhausted.
     */
    virtual bool next(TraceRecord &rec) = 0;

    /** Restart the stream from the beginning (deterministic sources). */
    virtual void reset() = 0;

    /**
     * Lines the benchmark's steady state keeps cache-resident. The
     * core pre-fills its hierarchy with these before simulating, so
     * short simulation windows see steady-state miss rates instead of
     * a cold-start transient (the role SimPoint warmup plays for the
     * paper's trace windows).
     */
    virtual void prefillLines(std::vector<PrefillLine> &lines) const
    {
        (void)lines;
    }
};

} // namespace th

#endif // TH_TRACE_TRACE_H
