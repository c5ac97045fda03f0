/**
 * @file
 * Cycle-level out-of-order core model (the SimpleScalar/MASE
 * substitute). Trace-driven: dynamic instructions stream in from a
 * TraceSource; branch mispredictions are modelled as fetch stalls of
 * the resolved-redirect length (wrong-path instructions are not
 * simulated — the standard trace-driven approximation).
 *
 * All Thermal Herding mechanisms are integrated here: width prediction
 * with unsafe-misprediction stalls in the register file, execution
 * units and data cache; the die-aware scheduler allocation; PAM in the
 * store queue; the target-memoizing BTB; and per-die activity
 * accounting for the power model.
 *
 * Host time follows the simulated events, not the queue sizes: the
 * in-flight instructions live in one sequence-indexed ring, an RS
 * entry's operands become ready when its last producer issues,
 * writebacks pop from a completion heap, and a cycle in which nothing
 * changes is followed by a jump to the next cycle at which something
 * can (see DESIGN.md §16). Every simulated statistic is the same as
 * stepping each cycle would give.
 */

#ifndef TH_CORE_PIPELINE_H
#define TH_CORE_PIPELINE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/types.h"
#include "core/activity.h"
#include "core/branch_predictor.h"
#include "core/cache.h"
#include "core/functional_units.h"
#include "core/lsq.h"
#include "core/params.h"
#include "core/scheduler.h"
#include "core/width_predictor.h"
#include "trace/trace.h"

namespace th {

/**
 * The pipeline's state of one in-flight instruction: everything of a
 * DynInst but its trace record. Fetch resets it; the trace source
 * writes the record.
 */
struct InstState
{
    std::uint64_t seq = 0;

    // Width prediction state.
    bool widthPredicted = false; ///< This op participates in prediction.
    bool predLow = false;
    bool actualLow = false;
    bool widthCorrected = false; ///< Unsafe pred corrected at RF read.

    // Pipeline timestamps.
    Cycle fetchedAt = 0;
    Cycle decodedAt = 0;
    Cycle dispatchedAt = 0;
    Cycle completeAt = 0;
    bool issued = false;
    int rsDie = -1;
    bool rfStallCharged = false;

    // Dependencies: producers' sequence numbers (0 = none). A producer
    // older than the window head has committed, so its value comes
    // from the register file.
    std::uint64_t producers[kMaxSrcs] = {0, 0};

    // Wakeup lists. A waiter is an RS entry's source operand, named
    // seq * kMaxSrcs + src (0 = none). Each RS entry links source s
    // into the list of its producer while that producer has not
    // issued; the producer's issue walks its list.
    std::uint64_t firstWaiter = 0;              ///< Waiting on this one.
    std::uint64_t nextWaiter[kMaxSrcs] = {0, 0}; ///< Link per source.
    int pendingProducers = 0; ///< Producers not issued yet.

    // Branch state.
    bool mispredicted = false;
    bool btbHit = false;
};

/** One in-flight dynamic instruction. */
struct DynInst : InstState
{
    TraceRecord rec;

    bool isNop() const { return rec.op == OpClass::Nop; }
};

/** Results of a core run. */
struct CoreResult
{
    PerfStats perf;
    ActivityStats activity;
    double freqGhz = 0.0;

    /** Committed instructions per nanosecond (the paper's IPns). */
    double ipns() const { return perf.ipc() * freqGhz; }

    /** Wall-clock seconds simulated. */
    double seconds() const
    {
        return static_cast<double>(perf.cycles.value()) / (freqGhz * 1e9);
    }
};

/**
 * The core model. Construct with a configuration, then run() a trace.
 * Single-use: construct a fresh Core for each run.
 */
class Core
{
  public:
    explicit Core(const CoreConfig &cfg);
    ~Core();

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /**
     * Simulate until @p max_insts commit (or the trace ends), after a
     * warm-up period of @p warmup_insts whose statistics are discarded
     * (caches, predictors, and queues stay warm).
     *
     * @p cancel, when non-null, is polled every few thousand cycles;
     * once it fires the run throws Cancelled. The throw happens before
     * any result is produced, so callers never cache a partial run.
     * @return Performance and activity statistics for the measured
     *         portion only.
     */
    CoreResult run(TraceSource &trace, std::uint64_t max_insts,
                   std::uint64_t warmup_insts = 0,
                   const CancelToken *cancel = nullptr);

    /**
     * Start an incremental run for interval-stepped simulation (the
     * DTM engine): prefills the memory hierarchy, attaches the trace,
     * and executes the warm-up window (statistics discarded, machine
     * state kept). Follow with runFor() calls. @p trace must outlive
     * the stepping. Mutually exclusive with run() on the same Core.
     */
    void beginRun(TraceSource &trace, std::uint64_t warmup_insts = 0);

    /**
     * Advance up to @p cycles cycles (fewer only when the trace ends
     * and the pipeline drains). Statistics are measured over this
     * interval alone: the returned CoreResult is a per-interval delta
     * whose activity counters feed the interval power computation.
     */
    CoreResult runFor(std::uint64_t cycles);

    /** True once the trace ended and the pipeline fully drained. */
    bool runDone() const;

    /** Instructions committed since construction (includes warm-up). */
    std::uint64_t totalCommitted() const { return committed_; }

    /**
     * Front-end throttling actuator for DTM: fetch is enabled for
     * @p on cycles out of every @p period (1/1 = full speed). Takes
     * effect on the next cycle; activity drops track the gating.
     */
    void setFetchThrottle(int on, int period);

    const CoreConfig &config() const { return cfg_; }

    // Accessors used by unit tests.
    const PerfStats &perf() const { return perf_; }
    const ActivityStats &activity() const { return act_; }

  private:
    /** Prefill the hierarchy and attach @p trace for stepping. */
    void attach(TraceSource &trace, std::uint64_t warmup_insts);
    /**
     * Execute one cycle (all six stages, warm-up stat reset, deadlock
     * watchdog). If nothing changed, then advance to just before the
     * next cycle at which anything can, but never past @p horizon.
     * False when the machine is drained: trace over and every queue
     * empty. The shared loop body of run(), beginRun() and runFor().
     */
    bool stepCycle(Cycle horizon);
    /** The next cycle anything can change is no later than @p at. */
    void wake(Cycle at) { nextEvent_ = std::min(nextEvent_, at); }

    // Pipeline stages (called in reverse order each cycle).
    void commitStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void decodeStage();
    void fetchStage(TraceSource &trace);

    // Helpers.
    void fetchOne(TraceSource &trace);
    bool tryIssueInst(DynInst *inst, int &issued_this_cycle);
    bool issueMemOp(DynInst *inst);
    void finishIssue(DynInst *inst, Cycle complete_at);
    Cycle operandsReadyAt(const DynInst &inst) const;
    /** At dispatch: join each unissued producer's waiter list, or set
     *  the ready cycle now if none is pending. */
    void linkWaiters(DynInst *inst);
    /** At issue: count down each waiter, setting the ready cycle of
     *  those whose last pending producer this was. */
    void wakeWaiters(DynInst *inst);
    void readRegisterOperands(DynInst *inst, bool &unsafe);
    void countExecActivity(const DynInst *inst);
    void commitStoreToCache(DynInst *inst);
    int dcacheLatency(DynInst *inst, Cycle start);
    Cycle nextFetchCycle() const;
    bool herding() const { return cfg_.thermalHerding; }

    DynInst &slot(std::uint64_t seq) { return window_[seq & windowMask_]; }
    const DynInst &slot(std::uint64_t seq) const
    {
        return window_[seq & windowMask_];
    }

    CoreConfig cfg_;
    FuLatencies fuLat_;

    // Structures.
    MemoryHierarchy mem_;
    HybridPredictor bpred_;
    Btb btb_;
    Btb ibtb_; ///< Indirect-target BTB (Table 1: 512 entries, 4-way).
    WidthPredictor wpred_;
    SchedulerEntries sched_;
    StoreQueue sq_;
    FuPool fus_;

    // Instruction window: one ring of slots indexed by sequence number
    // (slot(seq)), holding three adjacent ranges, oldest first: the
    // ROB [head_, dispatch_), the decode queue [dispatch_, decode_)
    // and the IFQ [decode_, nextSeq_). Sequence numbers start at 1;
    // below head_ they have committed.
    std::vector<DynInst> window_;
    std::uint64_t windowMask_ = 0;
    std::uint64_t head_ = 1;
    std::uint64_t dispatch_ = 1;
    std::uint64_t decode_ = 1;
    std::uint64_t nextSeq_ = 1;
    std::vector<std::uint64_t> rs_; ///< RS entries in dispatch order.
    /** Parallel to window_: an RS entry's operand-ready cycle, set at
     *  dispatch or when its last pending producer issues, and a cycle
     *  that never comes until then. */
    std::vector<Cycle> ready_;
    int lqCount_ = 0;

    /** Pending writebacks (completeAt, seq) of issued instructions
     *  with a destination register, earliest first. */
    std::priority_queue<std::pair<Cycle, std::uint64_t>,
                        std::vector<std::pair<Cycle, std::uint64_t>>,
                        std::greater<>>
        completions_;

    // Register rename state: last writer (sequence number) per arch
    // register.
    std::vector<std::uint64_t> lastWriter_;

    // Fetch state.
    Cycle fetchResumeAt_ = 0;
    bool waitingRedirect_ = false;
    bool traceEnded_ = false;
    Addr lastFetchLine_ = ~Addr{0};
    Addr lastFetchPage_ = ~Addr{0};

    // Dispatch group stall (unsafe RF width mispredictions).
    Cycle dispatchBlockedUntil_ = 0;

    // Outstanding cache misses (MLP limit).
    std::vector<Cycle> missSlots_;

    Cycle cycle_ = 0;
    /** Earliest cycle at which the current cycle's blocking conditions
     *  can change (cycle_ + 1 once anything changed this cycle). */
    Cycle nextEvent_ = 0;
    std::uint64_t committed_ = 0;

    // Incremental-run state (attach()/stepCycle()).
    TraceSource *trace_ = nullptr;
    std::uint64_t warmupInsts_ = 0;
    bool warm_ = true;          ///< Warm-up window finished.
    Cycle measureStart_ = 0;    ///< Cycle at which stats last reset.
    Cycle lastCommitCycle_ = 0; ///< Deadlock watchdog.

    // Fetch-throttle cadence (DTM actuator); 1/1 = no gating.
    int fetchOn_ = 1;
    int fetchPeriod_ = 1;

    PerfStats perf_;
    ActivityStats act_;
};

} // namespace th

#endif // TH_CORE_PIPELINE_H
