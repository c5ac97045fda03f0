/**
 * @file
 * Functional set-associative cache and TLB models with LRU replacement,
 * and the two-level memory hierarchy used by the core model. Timing is
 * expressed in cycles at the configured core frequency; DRAM latency is
 * fixed in nanoseconds, so faster clocks see more cycles per miss —
 * the effect behind the paper's "Fast" configuration IPC drop.
 */

#ifndef TH_CORE_CACHE_H
#define TH_CORE_CACHE_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/params.h"

namespace th {

/**
 * Functional set-associative cache with true-LRU replacement.
 *
 * Tags and last-access stamps live in two set-major arrays, with a
 * count of valid ways per set. A fill into a set with an invalid way
 * takes the last one, and nothing invalidates a single way, so the
 * invalid ways of a set are always its first assoc - filled: a lookup
 * scans only the valid ways, and a fill needs no scan until the set
 * is full (DESIGN.md §16.4).
 */
class SetAssocCache
{
  public:
    /**
     * @param bytes      Total capacity.
     * @param assoc      Associativity.
     * @param line_bytes Line size.
     */
    SetAssocCache(int bytes, int assoc, int line_bytes);

    /**
     * Access the line containing @p addr; fills on miss (no writeback
     * modelling — timing only).
     * @return True on hit.
     */
    bool access(Addr addr);

    /** Probe without updating state. */
    bool probe(Addr addr) const;

    int numSets() const { return static_cast<int>(num_sets_); }
    int assoc() const { return assoc_; }

  private:
    int assoc_;
    int line_shift_;
    std::size_t num_sets_;
    std::vector<Addr> tags_;            ///< [set * assoc + way]
    std::vector<std::uint64_t> stamps_; ///< Access clock of each way.
    std::vector<int> filled_;           ///< Valid ways per set.
    std::uint64_t clock_ = 0;
};

/** TLB: a set-associative cache of 4KB page translations. */
class Tlb
{
  public:
    Tlb(int entries, int assoc);

    /** @return True on TLB hit; fills on miss. */
    bool access(Addr vaddr);

  private:
    SetAssocCache cache_;
};

/** Outcome of one memory-hierarchy access. */
struct MemAccessResult
{
    int cycles = 0;     ///< Total access latency.
    bool l1Hit = false;
    bool l2Hit = false; ///< Meaningful only when !l1Hit.
};

/**
 * L1 (I or D) + shared L2 + DRAM hierarchy timing model.
 * The L2 is shared: construct one L2 and pass it to both L1 wrappers.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const CoreConfig &cfg);

    /** Data-side access (loads and committed stores). */
    MemAccessResult dataAccess(Addr addr);

    /** Instruction-side access. */
    MemAccessResult instAccess(Addr addr);

    /** D-TLB lookup: returns extra cycles (0 on hit). */
    int dtlbAccess(Addr addr, bool &miss);

    /** I-TLB lookup: returns extra cycles (0 on hit). */
    int itlbAccess(Addr addr, bool &miss);

    /**
     * Install @p addr's line as already-resident (steady-state
     * prefill): always into the L2, and into the L1 D-cache when
     * @p into_l1 is set.
     */
    void prefill(Addr addr, bool into_l1);

  private:
    MemAccessResult throughL2(Addr addr, int l1_cycles, bool l1_hit);

    const CoreConfig &cfg_;
    SetAssocCache il1_;
    SetAssocCache dl1_;
    SetAssocCache l2_;
    Tlb itlb_;
    Tlb dtlb_;
};

} // namespace th

#endif // TH_CORE_CACHE_H
