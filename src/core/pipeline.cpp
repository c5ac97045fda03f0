#include "core/pipeline.h"

#include <bit>

#include "common/bitutil.h"
#include "common/log.h"

namespace th {

namespace {

/** FP architectural registers start here (see trace generator). */
constexpr RegIndex kFpRegBase = 32;

/** A cycle that never comes: fetch after the trace ended, or a wake-up
 *  that waits on another stage's event rather than on time. */
constexpr Cycle kNever = ~Cycle{0};

/** The deadlock watchdog fires after this many cycles without commit. */
constexpr Cycle kDeadlockCycles = 200000;

/** run() polls its CancelToken at cycles that are multiples of 4096. */
constexpr Cycle kCancelPollMask = 0xFFF;

/** Source slots per instruction, the radix of a waiter's name. */
constexpr std::uint64_t kSrcSlots = kMaxSrcs;

bool
isFpDest(const DynInst &inst)
{
    return inst.rec.hasDst && inst.rec.dstReg >= kFpRegBase;
}

} // namespace

Core::Core(const CoreConfig &cfg)
    : cfg_(cfg),
      mem_(cfg_),
      bpred_(cfg_),
      btb_(cfg_.btbEntries, cfg_.btbAssoc),
      ibtb_(cfg_.ibtbEntries, cfg_.ibtbAssoc),
      wpred_(cfg_.widthPredEntries, cfg_.widthPredKind),
      sched_(cfg_.rsSize, cfg_.schedAlloc),
      sq_(cfg_.sqSize),
      fus_(cfg_, fuLat_),
      lastWriter_(64, 0)
{
    // Room for a full IFQ, decode queue and ROB at once.
    window_.resize(std::bit_ceil(static_cast<std::uint64_t>(
        cfg_.ifqSize + 2 * cfg_.decodeWidth + cfg_.robSize)));
    windowMask_ = window_.size() - 1;
    ready_.resize(window_.size(), kNever);
    rs_.reserve(static_cast<std::size_t>(cfg_.rsSize));
}

Core::~Core() = default;

void
Core::attach(TraceSource &trace, std::uint64_t warmup_insts)
{
    // Steady-state prefill (stands in for the long warmup windows
    // SimPoint-selected traces get in the paper's methodology).
    std::vector<PrefillLine> prefill;
    trace.prefillLines(prefill);
    for (const PrefillLine &line : prefill)
        mem_.prefill(line.addr, line.intoL1);

    trace_ = &trace;
    warmupInsts_ = warmup_insts;
    warm_ = warmup_insts == 0;
}

bool
Core::stepCycle(Cycle horizon)
{
    if (runDone())
        return false;
    ++cycle_;
    nextEvent_ = kNever;
    const std::uint64_t before = committed_;

    commitStage();
    completeStage();
    issueStage();
    dispatchStage();
    decodeStage();
    fetchStage(*trace_);

    if (!warm_ && committed_ >= warmupInsts_) {
        // Discard warm-up statistics; keep all machine state.
        warm_ = true;
        measureStart_ = cycle_;
        perf_ = PerfStats{};
        act_ = ActivityStats{};
    }

    if (committed_ != before) {
        lastCommitCycle_ = cycle_;
    } else if (cycle_ - lastCommitCycle_ > kDeadlockCycles) {
        panic("core deadlock: no commit for 200k cycles "
              "(cycle %llu, committed %llu)",
              static_cast<unsigned long long>(cycle_),
              static_cast<unsigned long long>(committed_));
    }

    // Idle-cycle skip: every stage that changed state woke cycle_ + 1;
    // every stage blocked on time woke the cycle its condition flips.
    // Until the earliest of those, each cycle would repeat this one
    // exactly, so jump to just before it (or to the watchdog's cycle).
    const Cycle next =
        std::min(nextEvent_, lastCommitCycle_ + kDeadlockCycles + 1);
    if (next - 1 > cycle_)
        cycle_ = std::min(next - 1, horizon);
    return true;
}

CoreResult
Core::run(TraceSource &trace, std::uint64_t max_insts,
          std::uint64_t warmup_insts, const CancelToken *cancel)
{
    attach(trace, warmup_insts);

    const std::uint64_t total = max_insts + warmup_insts;
    const Cycle limit = 500 * total + 100000;

    while (committed_ < total && cycle_ < limit) {
        // Cooperative cancellation: poll at a cadence cheap enough to
        // be invisible in the cycle loop, responsive enough that a
        // server deadline aborts within microseconds of firing. Idle
        // skips stop at the next poll point.
        Cycle horizon = limit;
        if (cancel != nullptr) {
            if ((cycle_ & kCancelPollMask) == 0 && cancel->cancelled())
                throw Cancelled();
            horizon = std::min(limit, (cycle_ | kCancelPollMask) + 1);
        }
        if (!stepCycle(horizon))
            break;
    }

    perf_.cycles.set(cycle_ - measureStart_);
    perf_.committedInsts.set(
        committed_ > warmup_insts ? committed_ - warmup_insts : 0);

    CoreResult r;
    r.perf = perf_;
    r.activity = act_;
    r.freqGhz = cfg_.freqGhz;
    return r;
}

void
Core::beginRun(TraceSource &trace, std::uint64_t warmup_insts)
{
    attach(trace, warmup_insts);

    // Run the warm-up window eagerly so the first runFor() interval
    // starts measuring from a warmed machine. The limit mirrors run()
    // (the deadlock watchdog inside stepCycle fires long before it on
    // genuinely stuck pipelines).
    const Cycle limit = cycle_ + 500 * warmup_insts + 100000;
    while (!warm_ && cycle_ < limit) {
        if (!stepCycle(limit))
            break;
    }
    if (!warm_) {
        // Trace shorter than the warm-up window: measure what's left.
        warm_ = true;
        measureStart_ = cycle_;
        perf_ = PerfStats{};
        act_ = ActivityStats{};
    }
}

CoreResult
Core::runFor(std::uint64_t cycles)
{
    if (trace_ == nullptr)
        panic("runFor() before beginRun()");

    // Each interval measures from a clean slate; the caller
    // accumulates deltas across intervals as needed.
    perf_ = PerfStats{};
    act_ = ActivityStats{};
    const Cycle start = cycle_;
    const std::uint64_t commit_base = committed_;
    measureStart_ = cycle_;

    const Cycle end = cycle_ + cycles;
    while (cycle_ < end) {
        if (!stepCycle(end))
            break;
    }

    perf_.cycles.set(cycle_ - start);
    perf_.committedInsts.set(committed_ - commit_base);

    CoreResult r;
    r.perf = perf_;
    r.activity = act_;
    r.freqGhz = cfg_.freqGhz;
    return r;
}

bool
Core::runDone() const
{
    return traceEnded_ && head_ == nextSeq_;
}

void
Core::setFetchThrottle(int on, int period)
{
    if (period < 1 || on < 1 || on > period)
        panic("invalid fetch throttle %d/%d", on, period);
    fetchOn_ = on;
    fetchPeriod_ = period;
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

Cycle
Core::nextFetchCycle() const
{
    if (fetchResumeAt_ == kNever)
        return kNever;
    Cycle at = std::max(fetchResumeAt_, cycle_ + 1);
    // Round up to the throttle's next on-phase.
    const auto period = static_cast<Cycle>(fetchPeriod_);
    const Cycle phase = at % period;
    if (phase >= static_cast<Cycle>(fetchOn_))
        at += period - phase;
    return at;
}

void
Core::fetchStage(TraceSource &trace)
{
    // A redirect waits on the branch's issue and a full IFQ on decode:
    // both wake the next cycle themselves.
    const auto ifq_full = [&] {
        return nextSeq_ - decode_ >= static_cast<std::uint64_t>(cfg_.ifqSize);
    };
    if (waitingRedirect_ || ifq_full())
        return;

    // DTM fetch-throttle cadence: fetch only fetchOn_ of every
    // fetchPeriod_ cycles (downstream stages keep draining).
    if ((fetchPeriod_ > 1 &&
         static_cast<int>(cycle_ % static_cast<Cycle>(fetchPeriod_)) >=
             fetchOn_) ||
        cycle_ < fetchResumeAt_) {
        wake(nextFetchCycle());
        return;
    }

    wake(cycle_ + 1);
    for (int i = 0; i < cfg_.fetchWidth; ++i) {
        if (ifq_full())
            return;
        const Cycle before = fetchResumeAt_;
        fetchOne(trace);
        if (waitingRedirect_ || fetchResumeAt_ > cycle_ ||
            fetchResumeAt_ != before) {
            return; // taken branch, stall, or miss ended the group
        }
    }
}

void
Core::fetchOne(TraceSource &trace)
{
    // The source defines the whole record (TraceSource::next), so only
    // the pipeline state is reset here.
    DynInst &inst = slot(nextSeq_);
    static_cast<InstState &>(inst) = InstState{};
    if (!trace.next(inst.rec)) {
        fetchResumeAt_ = kNever;
        waitingRedirect_ = false; // trace over; drain
        traceEnded_ = true;
        return;
    }
    const TraceRecord &rec = inst.rec;

    // Instruction cache / ITLB at line and page granularity.
    const Addr line = rec.pc >> 6;
    if (line != lastFetchLine_) {
        lastFetchLine_ = line;
        act_.il1Access.inc();
        const Addr page = rec.pc >> 12;
        if (page != lastFetchPage_) {
            lastFetchPage_ = page;
            act_.itlbAccess.inc();
            bool tlb_miss = false;
            const int extra = mem_.itlbAccess(rec.pc, tlb_miss);
            if (tlb_miss) {
                perf_.itlbMisses.inc();
                fetchResumeAt_ = cycle_ + static_cast<Cycle>(extra);
            }
        }
        const MemAccessResult r = mem_.instAccess(rec.pc);
        if (!r.l1Hit) {
            perf_.il1Misses.inc();
            act_.l2Access.inc();
            if (!r.l2Hit)
                perf_.l2Misses.inc();
            fetchResumeAt_ = std::max(fetchResumeAt_,
                cycle_ + static_cast<Cycle>(r.cycles - cfg_.il1Cycles));
        }
    }

    inst.seq = nextSeq_++;
    // A miss on this line delays the instruction's arrival in the IFQ.
    inst.fetchedAt = std::max(cycle_, fetchResumeAt_ == kNever
                              ? cycle_ : fetchResumeAt_);
    perf_.fetchedInsts.inc();

    if (rec.isControl()) {
        bool pred_taken;
        if (rec.op == OpClass::Branch) {
            perf_.branches.inc();
            act_.bpredLookup.inc();
            pred_taken = bpred_.predict(rec.pc);
        } else {
            pred_taken = true;
        }

        // Indirect jumps consult the dedicated iBTB (Table 1);
        // direct branches and jumps use the main BTB.
        const bool indirect = rec.op == OpClass::IndirectJump;
        const BtbResult bres =
            indirect ? ibtb_.lookup(rec.pc) : btb_.lookup(rec.pc);
        inst.btbHit = bres.hit;

        // Effective front-end decision: a taken prediction without a
        // BTB target falls through sequentially.
        const bool eff_taken = pred_taken && bres.hit;

        if (eff_taken) {
            if (herding() && cfg_.btbMemoEnabled && bres.needsUpperRead) {
                // The memoization bit says the upper target bits live
                // on the lower dies: one-cycle prediction-pipeline
                // stall (Section 3.7).
                act_.btbFull.inc();
                perf_.btbTargetStalls.inc();
                fetchResumeAt_ = cycle_ + 2;
            } else {
                act_.btbLow.inc();
                fetchResumeAt_ = cycle_ + 1; // taken ends fetch group
            }
        } else {
            act_.btbLow.inc();
            if (!bres.hit)
                perf_.btbMisses.inc();
        }

        inst.mispredicted =
            (eff_taken != rec.taken) ||
            (eff_taken && rec.taken && bres.target != rec.target);
        if (inst.mispredicted) {
            perf_.branchMispredicts.inc();
            waitingRedirect_ = true;
        }

        // Train at fetch with the trace outcome: equivalent to
        // speculative history update with perfect mispredict fixup
        // (wrong-path fetches are not simulated). The energy of the
        // architectural update is accounted at commit.
        if (rec.op == OpClass::Branch)
            bpred_.update(rec.pc, rec.taken);
        if (rec.taken)
            (indirect ? ibtb_ : btb_).update(rec.pc, rec.target);
    }
}

// --------------------------------------------------------------------
// Decode
// --------------------------------------------------------------------

void
Core::decodeStage()
{
    const auto cap = static_cast<std::uint64_t>(2 * cfg_.decodeWidth);
    for (int i = 0; i < cfg_.decodeWidth; ++i) {
        if (decode_ == nextSeq_ || decode_ - dispatch_ >= cap)
            return; // waits on fetch or dispatch
        DynInst *front = &slot(decode_);
        if (front->fetchedAt >= cycle_) {
            // Still arriving after an I-cache or ITLB miss.
            wake(front->fetchedAt + 1);
            return;
        }

        wake(cycle_ + 1);
        front->decodedAt = cycle_;
        act_.decodeUops.inc();

        // Width prediction (Section 3): integer results and store data.
        const TraceRecord &rec = front->rec;
        const bool predicts =
            (rec.hasDst && rec.dstReg < kFpRegBase &&
             !isControlOp(rec.op)) ||
            rec.op == OpClass::Store || rec.op == OpClass::Load;
        if (herding() && predicts) {
            front->widthPredicted = true;
            if (rec.isMem()) {
                // The D-cache's 2-bit encoding broadens "low" to any
                // trivially encodable upper bits (Section 3.6); the
                // 1-bit ablation only covers upper-zero values.
                front->actualLow = cfg_.pveEnabled
                    ? isTriviallyEncodable(rec.resultValue, rec.effAddr)
                    : rec.resultWidth() == Width::Low;
            } else {
                front->actualLow = rec.resultWidth() == Width::Low;
            }
            front->predLow = wpred_.predict(
                rec.pc, front->actualLow ? Width::Low : Width::Full) ==
                Width::Low;
            perf_.widthPredictions.inc();
            if (front->predLow == front->actualLow) {
                perf_.widthPredCorrect.inc();
            } else if (front->predLow) {
                perf_.widthUnsafe.inc();
            } else {
                perf_.widthSafeMiss.inc();
            }
        }

        ++decode_;
    }
}

// --------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------

void
Core::readRegisterOperands(DynInst *inst, bool &unsafe)
{
    unsafe = false;
    for (int s = 0; s < inst->rec.numSrcs; ++s) {
        const std::uint64_t p = lastWriter_[inst->rec.srcRegs[s]];
        inst->producers[s] = p;

        // Producer completed but not committed: value read from the
        // ROB (which holds the physical registers); otherwise from the
        // architected register file.
        const bool from_rob = p >= head_;
        if (from_rob && !(slot(p).issued && slot(p).completeAt <= cycle_))
            continue; // operand arrives via bypass/wakeup later

        const bool src_low =
            classifyWidth(inst->rec.srcValues[s]) == Width::Low;

        if (herding()) {
            if (from_rob) {
                (src_low ? act_.robReadLow : act_.robReadFull).inc();
            } else {
                (src_low ? act_.rfReadLow : act_.rfReadFull).inc();
            }
            // Unsafe width misprediction detected via the memoization
            // bit (Section 3.1): predicted low but the RF operand is
            // actually full width. Memory ops are excluded: their
            // width prediction governs the *data* access (PVE), while
            // addresses — almost always full width — are handled by
            // the LSQ's partial address memoization (Section 3.5).
            if (!inst->rec.isMem() && inst->predLow &&
                !inst->widthCorrected && !src_low)
                unsafe = true;
        } else {
            (from_rob ? act_.robReadFull : act_.rfReadFull).inc();
        }
    }
}

void
Core::dispatchStage()
{
    if (cycle_ < dispatchBlockedUntil_) {
        wake(dispatchBlockedUntil_);
        return;
    }

    for (int i = 0; i < cfg_.decodeWidth; ++i) {
        if (dispatch_ == decode_)
            return; // waits on decode
        DynInst *inst = &slot(dispatch_);
        if (inst->decodedAt >= cycle_) {
            wake(inst->decodedAt + 1);
            return;
        }

        // Structural resources (freed by commit and issue).
        if (dispatch_ - head_ >= static_cast<std::uint64_t>(cfg_.robSize))
            return;
        const bool needs_rs = !inst->isNop();
        if (needs_rs && sched_.freeEntries() == 0)
            return;
        if (inst->rec.op == OpClass::Load && lqCount_ >= cfg_.lqSize)
            return;
        if (inst->rec.op == OpClass::Store && sq_.full())
            return;

        wake(cycle_ + 1);
        bool unsafe = false;
        readRegisterOperands(inst, unsafe);
        if (unsafe && !inst->rfStallCharged) {
            // One stall covers every unsafe misprediction in this
            // dispatch group (Section 3.1): charge the group, correct
            // the offending predictions, retry next cycle.
            perf_.rfGroupStalls.inc();
            dispatchBlockedUntil_ = cycle_ + 1;
            const std::uint64_t group_end = std::min(
                decode_,
                dispatch_ + static_cast<std::uint64_t>(cfg_.decodeWidth));
            for (std::uint64_t q = dispatch_; q < group_end; ++q) {
                DynInst &qi = slot(q);
                qi.rfStallCharged = true;
                if (qi.widthPredicted && qi.predLow && !qi.actualLow) {
                    qi.widthCorrected = true;
                    wpred_.correctToFull(qi.rec.pc);
                }
            }
            return;
        }

        inst->dispatchedAt = cycle_;
        act_.renameUops.inc();

        if (needs_rs) {
            const int die = sched_.allocate();
            if (die < 0)
                panic("RS allocation failed despite free entries");
            inst->rsDie = die;
            act_.schedAlloc.inc();
            act_.schedAllocDie[die].inc();
            rs_.push_back(dispatch_);
            linkWaiters(inst);
        } else {
            // Nops complete trivially next cycle.
            inst->issued = true;
            inst->completeAt = cycle_ + 1;
            if (inst->rec.hasDst)
                completions_.emplace(inst->completeAt, dispatch_);
        }

        if (inst->rec.op == OpClass::Load)
            ++lqCount_;
        if (inst->rec.op == OpClass::Store) {
            sq_.insert(inst->seq, inst->rec.effAddr, inst->rec.memSize,
                       inst->rec.resultValue);
            act_.lsqWrite.inc();
        }

        if (inst->rec.hasDst)
            lastWriter_[inst->rec.dstReg] = dispatch_;
        ++dispatch_;
    }
}

// --------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------

Cycle
Core::operandsReadyAt(const DynInst &inst) const
{
    // Every in-flight producer has issued, so its completion cycle is
    // final. One that commits before the entry is next examined
    // completed before that cycle, so counting it changes no issue
    // test and no wake-up (DESIGN.md §16.1).
    Cycle ready = inst.dispatchedAt + 1;
    for (int s = 0; s < inst.rec.numSrcs; ++s) {
        const std::uint64_t p = inst.producers[s];
        if (p >= head_)
            ready = std::max(ready, slot(p).completeAt);
    }
    return ready;
}

void
Core::linkWaiters(DynInst *inst)
{
    for (int s = 0; s < inst->rec.numSrcs; ++s) {
        const std::uint64_t p = inst->producers[s];
        if (p < head_ || slot(p).issued)
            continue; // committed, or its completion cycle is known
        DynInst &producer = slot(p);
        inst->nextWaiter[s] = producer.firstWaiter;
        producer.firstWaiter = inst->seq * kSrcSlots +
            static_cast<std::uint64_t>(s);
        ++inst->pendingProducers;
    }
    ready_[inst->seq & windowMask_] =
        inst->pendingProducers == 0 ? operandsReadyAt(*inst) : kNever;
}

void
Core::wakeWaiters(DynInst *inst)
{
    for (std::uint64_t w = inst->firstWaiter; w != 0;) {
        const std::uint64_t seq = w / kSrcSlots;
        DynInst &waiter = slot(seq);
        w = waiter.nextWaiter[w % kSrcSlots];
        if (--waiter.pendingProducers == 0)
            ready_[seq & windowMask_] = operandsReadyAt(waiter);
    }
}

int
Core::dcacheLatency(DynInst *inst, Cycle start)
{
    const TraceRecord &rec = inst->rec;
    const MemAccessResult res = mem_.dataAccess(rec.effAddr);

    // Partial value encoding census (Section 3.6).
    switch (encodePartialValue(rec.resultValue, rec.effAddr)) {
      case PartialValueCode::UpperZeros: perf_.pveZeros.inc(); break;
      case PartialValueCode::UpperOnes: perf_.pveOnes.inc(); break;
      case PartialValueCode::UpperAddr: perf_.pveAddr.inc(); break;
      case PartialValueCode::Explicit: perf_.pveExplicit.inc(); break;
    }

    int lat;
    if (res.l1Hit) {
        lat = cfg_.dl1Cycles;
    } else {
        perf_.dl1Misses.inc();
        act_.l2Access.inc();
        act_.dl1Fill.inc();
        if (!res.l2Hit)
            perf_.l2Misses.inc();

        // Bound memory-level parallelism: at most maxOutstandingMisses
        // misses in flight.
        std::erase_if(missSlots_, [&](Cycle c) { return c <= start; });
        Cycle begin = start;
        if (static_cast<int>(missSlots_.size()) >=
            cfg_.maxOutstandingMisses) {
            begin = *std::min_element(missSlots_.begin(),
                                      missSlots_.end());
        }
        const Cycle done = begin + static_cast<Cycle>(res.cycles);
        missSlots_.push_back(done);
        return static_cast<int>(done - start);
    }

    // Herded read: a predicted-low load with encodable upper bits only
    // touches the top die; an unsafe prediction stalls the cache
    // pipeline one cycle and reads the hitting way's remaining bits.
    const bool pred_low = herding() && inst->predLow &&
        !inst->widthCorrected;
    if (pred_low && inst->actualLow) {
        act_.dl1ReadLow.inc();
    } else if (pred_low && !inst->actualLow) {
        act_.dl1ReadFull.inc();
        act_.dl1ReadFull.inc(); // second access for the upper bits
        perf_.dcacheWidthStalls.inc();
        lat += 1;
    } else {
        act_.dl1ReadFull.inc();
    }
    return lat;
}

bool
Core::issueMemOp(DynInst *inst)
{
    const TraceRecord &rec = inst->rec;

    if (rec.op == OpClass::Load) {
        const LsqSearchResult search =
            sq_.searchForLoad(inst->seq, rec.effAddr, rec.memSize, cycle_);
        if (search.mustWait)
            return false; // conservative disambiguation

        if (fus_.tryIssue(OpClass::Load, cycle_) < 0)
            return false;

        perf_.loads.inc();
        sq_.recordBroadcast(rec.effAddr, false, act_, perf_,
                            herding() && cfg_.pamEnabled);

        Cycle t = cycle_ + static_cast<Cycle>(fuLat_.agu);
        act_.dtlbAccess.inc();
        bool tlb_miss = false;
        t += static_cast<Cycle>(mem_.dtlbAccess(rec.effAddr, tlb_miss));
        if (tlb_miss)
            perf_.dtlbMisses.inc();

        if (search.forward) {
            perf_.storeForwards.inc();
            t += static_cast<Cycle>(fuLat_.storeFwd);
        } else {
            t += static_cast<Cycle>(dcacheLatency(inst, t));
        }

        // Loads feeding FP registers pay the extra forwarding cycle
        // in the planar floorplan (Section 3.8).
        if (isFpDest(*inst))
            t += static_cast<Cycle>(cfg_.fpLoadExtraCycles());

        finishIssue(inst, t);
        return true;
    }

    // Store: issue the AGU once address and data are ready.
    if (fus_.tryIssue(OpClass::Store, cycle_) < 0)
        return false;

    perf_.stores.inc();
    const Cycle done = cycle_ + static_cast<Cycle>(fuLat_.agu);
    sq_.setAddressKnown(inst->seq, done);
    sq_.recordBroadcast(rec.effAddr, true, act_, perf_,
                        herding() && cfg_.pamEnabled);

    act_.dtlbAccess.inc();
    bool tlb_miss = false;
    const int extra = mem_.dtlbAccess(rec.effAddr, tlb_miss);
    if (tlb_miss)
        perf_.dtlbMisses.inc();

    finishIssue(inst, done + static_cast<Cycle>(extra));
    return true;
}

void
Core::countExecActivity(const DynInst *inst)
{
    const bool gated = herding() && inst->predLow &&
        !inst->widthCorrected && inst->actualLow;
    switch (inst->rec.op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Jump:
      case OpClass::IndirectJump:
        (gated ? act_.aluLow : act_.aluFull).inc();
        break;
      case OpClass::IntShift:
        (gated ? act_.shiftLow : act_.shiftFull).inc();
        break;
      case OpClass::IntMult:
        (gated ? act_.multLow : act_.multFull).inc();
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        act_.fpOps.inc();
        break;
      default:
        break;
    }
}

bool
Core::tryIssueInst(DynInst *inst, int &issued_this_cycle)
{
    if (inst->rec.isMem()) {
        if (!issueMemOp(inst))
            return false;
        ++issued_this_cycle;
        return true;
    }

    const int lat = fus_.tryIssue(inst->rec.op, cycle_);
    if (lat < 0)
        return false;

    Cycle done = cycle_ + static_cast<Cycle>(lat);

    if (herding() && inst->widthPredicted && inst->predLow &&
        !inst->widthCorrected) {
        // Unsafe execution-stage mispredictions (Section 3.2): full
        // operands on a gated unit cost a one-cycle re-enable stall;
        // a full result from low operands is only discovered at the
        // output and forces re-execution.
        bool input_full = false;
        for (int s = 0; s < inst->rec.numSrcs; ++s) {
            if (classifyWidth(inst->rec.srcValues[s]) == Width::Full)
                input_full = true;
        }
        if (input_full) {
            perf_.execInputStalls.inc();
            done += 1;
        } else if (!inst->actualLow) {
            perf_.execReplays.inc();
            done += static_cast<Cycle>(lat);
        }
    }

    ++issued_this_cycle;
    finishIssue(inst, done);
    return true;
}

void
Core::finishIssue(DynInst *inst, Cycle complete_at)
{
    inst->issued = true;
    inst->completeAt = complete_at;
    if (inst->rec.hasDst)
        completions_.emplace(complete_at, inst->seq);
    wakeWaiters(inst);

    act_.schedSelect.inc();
    countExecActivity(inst);

    // Release the RS entry: it holds instructions "dispatched but not
    // yet executed" (Section 3.4).
    sched_.release(inst->rsDie);

    // A mispredicted control instruction redirects the front end
    // redirectCycles after it resolves.
    if (inst->mispredicted) {
        waitingRedirect_ = false;
        fetchResumeAt_ = complete_at +
            static_cast<Cycle>(cfg_.redirectCycles());
    }
}

void
Core::issueStage()
{
    int issued = 0;
    for (const std::uint64_t seq : rs_) {
        if (issued >= cfg_.issueWidth)
            break;
        // An entry still waiting on a producer reads kNever: that
        // producer's issue wakes the next cycle.
        const Cycle ready = ready_[seq & windowMask_];
        if (ready > cycle_) {
            wake(ready);
            continue;
        }
        // Ready but refused (busy unit, store-queue wait): those
        // conditions are not tracked as events, so step the next cycle.
        if (!tryIssueInst(&slot(seq), issued))
            wake(cycle_ + 1);
    }
    if (issued > 0) {
        wake(cycle_ + 1);
        std::erase_if(rs_,
                      [this](std::uint64_t seq) { return slot(seq).issued; });
    }
}

// --------------------------------------------------------------------
// Completion (writeback)
// --------------------------------------------------------------------

void
Core::completeStage()
{
    // Every latency is at least one cycle, so an instruction is still
    // in the ROB on its completion cycle. The stage only counts, and
    // the scheduler occupancy it reads does not change before issue:
    // the order of the pops is immaterial.
    while (!completions_.empty() && completions_.top().first <= cycle_) {
        const DynInst &inst = slot(completions_.top().second);
        completions_.pop();

        // Result broadcast: scheduler wakeup (gated per die) and
        // bypass network.
        sched_.recordBroadcast(act_);
        const bool low = herding() &&
            inst.rec.resultWidth() == Width::Low;
        (low ? act_.bypassLow : act_.bypassFull).inc();
        // Writing the physical register held in the ROB.
        (low ? act_.robWriteLow : act_.robWriteFull).inc();
    }
    if (!completions_.empty())
        wake(completions_.top().first);
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
Core::commitStoreToCache(DynInst *inst)
{
    const TraceRecord &rec = inst->rec;
    const MemAccessResult res = mem_.dataAccess(rec.effAddr);
    if (!res.l1Hit) {
        perf_.dl1Misses.inc();
        act_.l2Access.inc();
        act_.dl1Fill.inc();
        if (!res.l2Hit)
            perf_.l2Misses.inc();
    }
    // Stores know their width at commit: no unsafe mispredictions
    // (Section 3.6).
    const bool low = herding() &&
        isTriviallyEncodable(rec.resultValue, rec.effAddr);
    (low ? act_.dl1WriteLow : act_.dl1WriteFull).inc();
}

void
Core::commitStage()
{
    for (int i = 0; i < cfg_.commitWidth; ++i) {
        if (head_ == dispatch_)
            return; // ROB empty: waits on dispatch
        DynInst *inst = &slot(head_);
        if (!inst->issued)
            return; // waits on issue
        if (inst->completeAt >= cycle_) {
            // Completes this cycle at the earliest: commit next.
            wake(inst->completeAt + 1);
            return;
        }
        wake(cycle_ + 1);

        const TraceRecord &rec = inst->rec;

        if (rec.op == OpClass::Store) {
            sq_.commitOldest();
            commitStoreToCache(inst);
        } else if (rec.op == OpClass::Load) {
            --lqCount_;
        }

        if (rec.op == OpClass::Branch)
            act_.bpredUpdate.inc();

        if (inst->widthPredicted) {
            wpred_.update(rec.pc, inst->actualLow ? Width::Low
                                                  : Width::Full);
        }

        // Commit copies the result from the ROB's physical register to
        // the architected register file.
        if (rec.hasDst && rec.dstReg < kFpRegBase &&
            !isControlOp(rec.op)) {
            // Offset by half a bit so an exactly-16-bit value falls in
            // the [12,16) bucket: buckets 0-3 are then precisely the
            // top-die-representable results.
            perf_.valueWidthBits.sample(
                static_cast<double>(significantBits(rec.resultValue)) -
                0.5);
        }
        if (rec.hasDst) {
            const bool low = herding() &&
                rec.resultWidth() == Width::Low;
            (low ? act_.robReadLow : act_.robReadFull).inc();
            (low ? act_.rfWriteLow : act_.rfWriteFull).inc();
        }

        act_.miscUops.inc();
        ++head_; // Its sequence number now reads as "in the RF".
        ++committed_;
    }
}

} // namespace th
