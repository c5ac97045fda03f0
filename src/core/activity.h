/**
 * @file
 * Per-structure activity accounting. Every counter corresponds to an
 * energy entry in circuit::CoreEnergies; the power model multiplies the
 * two. "Low" counters are accesses that Thermal Herding confines to the
 * top die; in non-herding configurations all accesses count as "full".
 *
 * forEachPerfStat() and forEachActivityStat() below are the one list
 * of these statistics. The store codec (io/serialize.cpp), the
 * interval fitter and replay (interval/stats_ops.h) and the
 * `simulate --stats` dump all walk them, so a statistic added to a
 * struct and to its list is serialized, fitted and printed everywhere.
 */

#ifndef TH_CORE_ACTIVITY_H
#define TH_CORE_ACTIVITY_H

#include <cstdint>
#include <iterator>

#include "common/stats.h"
#include "common/types.h"

namespace th {

/** Activity counts gathered by one core over a run. */
struct ActivityStats
{
    // Register file.
    Counter rfReadLow, rfReadFull, rfWriteLow, rfWriteFull;
    // Execution.
    Counter aluLow, aluFull;
    Counter shiftLow, shiftFull;
    Counter multLow, multFull;
    Counter fpOps;
    Counter bypassLow, bypassFull;
    // Scheduler: tag broadcasts per die (gated when a die is empty),
    // select grants, allocations.
    Counter schedWakeupDie[kNumDies];
    Counter schedSelect, schedAlloc;
    /** Allocations landing on each die (herding effectiveness). */
    Counter schedAllocDie[kNumDies];
    // Load/store queues.
    Counter lsqSearchLow, lsqSearchFull, lsqWrite;
    // L1 data cache.
    Counter dl1ReadLow, dl1ReadFull, dl1WriteLow, dl1WriteFull;
    Counter dl1Fill;
    // Front end.
    Counter il1Access, itlbAccess, dtlbAccess;
    Counter btbLow, btbFull;
    Counter bpredLookup, bpredUpdate;
    Counter decodeUops, renameUops;
    // ROB (holds the physical registers in this microarchitecture).
    Counter robReadLow, robReadFull, robWriteLow, robWriteFull;
    // L2.
    Counter l2Access;
    // Everything else (control logic, global wiring) per uop.
    Counter miscUops;
};

/** Performance statistics for one run. */
struct PerfStats
{
    Counter cycles;
    Counter committedInsts;
    Counter fetchedInsts;

    /**
     * Distribution of significant bits in committed integer results —
     * the paper's motivating observation that most 64-bit values need
     * 16 bits or fewer (Section 3). 16 buckets of 4 bits each.
     */
    Histogram valueWidthBits{0.0, 64.0, 16};

    // Branches.
    Counter branches, branchMispredicts, btbMisses, btbTargetStalls;

    // Width prediction (Section 3.8: 97% of fetched insts correct).
    Counter widthPredictions, widthPredCorrect;
    Counter widthUnsafe;     ///< Predicted low, actually full.
    Counter widthSafeMiss;   ///< Predicted full, actually low.
    Counter rfGroupStalls;   ///< Dispatch-group stalls from unsafe preds.
    Counter execInputStalls; ///< 1-cycle re-enable stalls at execute.
    Counter execReplays;     ///< Output-width re-executions.
    Counter dcacheWidthStalls;

    // Memory system.
    Counter loads, stores, storeForwards;
    Counter dl1Misses, il1Misses, l2Misses;
    Counter itlbMisses, dtlbMisses;

    // LSQ partial address memoization (Section 3.5).
    Counter pamHits, pamMisses;

    // D-cache partial value encoding mix (Section 3.6).
    Counter pveZeros, pveOnes, pveAddr, pveExplicit;

    double ipc() const
    {
        return cycles.value() == 0 ? 0.0 :
            static_cast<double>(committedInsts.value()) /
            static_cast<double>(cycles.value());
    }

    double widthAccuracy() const
    {
        return widthPredictions.value() == 0 ? 1.0 :
            static_cast<double>(widthPredCorrect.value()) /
            static_cast<double>(widthPredictions.value());
    }

    double branchMispredRate() const
    {
        return branches.value() == 0 ? 0.0 :
            static_cast<double>(branchMispredicts.value()) /
            static_cast<double>(branches.value());
    }
};

/**
 * Call fn(name, s.stat...) once per PerfStats statistic, passing the
 * same member of every argument, in store-schema order: three
 * counters, the valueWidthBits Histogram, then the other counters.
 * Names are dotted and fixed ("mem.loads"). Changing the order or the
 * set changes the encoding, so it must bump kStoreSchemaVersion.
 */
template <class Fn, class... Stats>
void
forEachPerfStat(Fn &&fn, Stats &&...s)
{
    fn("cycles", s.cycles...);
    fn("committed", s.committedInsts...);
    fn("fetched", s.fetchedInsts...);
    fn("value_width_bits", s.valueWidthBits...);
    fn("branches", s.branches...);
    fn("branch_mispredicts", s.branchMispredicts...);
    fn("btb_misses", s.btbMisses...);
    fn("btb_target_stalls", s.btbTargetStalls...);
    fn("width.predictions", s.widthPredictions...);
    fn("width.correct", s.widthPredCorrect...);
    fn("width.unsafe", s.widthUnsafe...);
    fn("width.safe_miss", s.widthSafeMiss...);
    fn("width.rf_group_stalls", s.rfGroupStalls...);
    fn("width.exec_input_stalls", s.execInputStalls...);
    fn("width.exec_replays", s.execReplays...);
    fn("width.dcache_stalls", s.dcacheWidthStalls...);
    fn("mem.loads", s.loads...);
    fn("mem.stores", s.stores...);
    fn("mem.store_forwards", s.storeForwards...);
    fn("mem.dl1_misses", s.dl1Misses...);
    fn("mem.il1_misses", s.il1Misses...);
    fn("mem.l2_misses", s.l2Misses...);
    fn("mem.itlb_misses", s.itlbMisses...);
    fn("mem.dtlb_misses", s.dtlbMisses...);
    fn("lsq.pam_hits", s.pamHits...);
    fn("lsq.pam_misses", s.pamMisses...);
    fn("pve.zeros", s.pveZeros...);
    fn("pve.ones", s.pveOnes...);
    fn("pve.addr", s.pveAddr...);
    fn("pve.explicit", s.pveExplicit...);
}

/**
 * Call fn(name, s.counter...) once per ActivityStats counter, like
 * forEachPerfStat(); the per-die arrays visit die 0 first, under the
 * names "sched.wakeup_die<d>" and "sched.alloc_die<d>".
 */
template <class Fn, class... Stats>
void
forEachActivityStat(Fn &&fn, Stats &&...s)
{
    static constexpr const char *kWakeupDie[] = {
        "sched.wakeup_die0", "sched.wakeup_die1", "sched.wakeup_die2",
        "sched.wakeup_die3"};
    static constexpr const char *kAllocDie[] = {
        "sched.alloc_die0", "sched.alloc_die1", "sched.alloc_die2",
        "sched.alloc_die3"};
    static_assert(std::size(kWakeupDie) == kNumDies &&
                  std::size(kAllocDie) == kNumDies);

    fn("rf.read_low", s.rfReadLow...);
    fn("rf.read_full", s.rfReadFull...);
    fn("rf.write_low", s.rfWriteLow...);
    fn("rf.write_full", s.rfWriteFull...);
    fn("alu.low", s.aluLow...);
    fn("alu.full", s.aluFull...);
    fn("shift.low", s.shiftLow...);
    fn("shift.full", s.shiftFull...);
    fn("mult.low", s.multLow...);
    fn("mult.full", s.multFull...);
    fn("fp.ops", s.fpOps...);
    fn("bypass.low", s.bypassLow...);
    fn("bypass.full", s.bypassFull...);
    for (int d = 0; d < kNumDies; ++d)
        fn(kWakeupDie[d], s.schedWakeupDie[d]...);
    fn("sched.select", s.schedSelect...);
    fn("sched.alloc", s.schedAlloc...);
    for (int d = 0; d < kNumDies; ++d)
        fn(kAllocDie[d], s.schedAllocDie[d]...);
    fn("lsq.search_low", s.lsqSearchLow...);
    fn("lsq.search_full", s.lsqSearchFull...);
    fn("lsq.write", s.lsqWrite...);
    fn("dl1.read_low", s.dl1ReadLow...);
    fn("dl1.read_full", s.dl1ReadFull...);
    fn("dl1.write_low", s.dl1WriteLow...);
    fn("dl1.write_full", s.dl1WriteFull...);
    fn("dl1.fill", s.dl1Fill...);
    fn("il1.access", s.il1Access...);
    fn("itlb.access", s.itlbAccess...);
    fn("dtlb.access", s.dtlbAccess...);
    fn("btb.low", s.btbLow...);
    fn("btb.full", s.btbFull...);
    fn("bpred.lookup", s.bpredLookup...);
    fn("bpred.update", s.bpredUpdate...);
    fn("decode.uops", s.decodeUops...);
    fn("rename.uops", s.renameUops...);
    fn("rob.read_low", s.robReadLow...);
    fn("rob.read_full", s.robReadFull...);
    fn("rob.write_low", s.robWriteLow...);
    fn("rob.write_full", s.robWriteFull...);
    fn("l2.access", s.l2Access...);
    fn("misc.uops", s.miscUops...);
}

} // namespace th

#endif // TH_CORE_ACTIVITY_H
