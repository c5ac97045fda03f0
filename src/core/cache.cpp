#include "core/cache.h"

#include "common/bitutil.h"
#include "common/log.h"

namespace th {

SetAssocCache::SetAssocCache(int bytes, int assoc, int line_bytes)
    : assoc_(assoc)
{
    if (bytes <= 0 || assoc <= 0 || line_bytes <= 0)
        fatal("bad cache geometry: %dB %d-way %dB lines",
              bytes, assoc, line_bytes);
    const int lines = bytes / line_bytes;
    if (lines % assoc != 0)
        fatal("cache lines (%d) not divisible by assoc (%d)",
              lines, assoc);
    num_sets_ = static_cast<std::size_t>(lines / assoc);
    if ((num_sets_ & (num_sets_ - 1)) != 0)
        fatal("cache sets must be a power of two (got %zu)", num_sets_);
    line_shift_ = log2Exact(static_cast<std::uint64_t>(line_bytes));
    tags_.assign(static_cast<std::size_t>(lines), 0);
    stamps_.assign(static_cast<std::size_t>(lines), 0);
    filled_.assign(num_sets_, 0);
}

bool
SetAssocCache::access(Addr addr)
{
    const Addr tag = addr >> line_shift_;
    const std::size_t set = tag & (num_sets_ - 1);
    const std::size_t base = set * static_cast<std::size_t>(assoc_);
    Addr *tags = &tags_[base];
    std::uint64_t *stamps = &stamps_[base];
    const int first_valid = assoc_ - filled_[set];
    ++clock_;

    for (int w = first_valid; w < assoc_; ++w) {
        if (tags[w] == tag) {
            stamps[w] = clock_;
            return true;
        }
    }

    // Miss: the last invalid way, else the least recently used one
    // (stamps are unique, so the first minimum is the only one).
    int victim = 0;
    if (first_valid > 0) {
        victim = first_valid - 1;
        ++filled_[set];
    } else {
        for (int w = 1; w < assoc_; ++w) {
            if (stamps[w] < stamps[victim])
                victim = w;
        }
    }
    tags[victim] = tag;
    stamps[victim] = clock_;
    return false;
}

bool
SetAssocCache::probe(Addr addr) const
{
    const Addr tag = addr >> line_shift_;
    const std::size_t set = tag & (num_sets_ - 1);
    const Addr *tags = &tags_[set * static_cast<std::size_t>(assoc_)];
    for (int w = assoc_ - filled_[set]; w < assoc_; ++w) {
        if (tags[w] == tag)
            return true;
    }
    return false;
}

Tlb::Tlb(int entries, int assoc)
    : cache_(entries * 4096, assoc, 4096)
{
}

bool
Tlb::access(Addr vaddr)
{
    return cache_.access(vaddr);
}

MemoryHierarchy::MemoryHierarchy(const CoreConfig &cfg)
    : cfg_(cfg),
      il1_(cfg.il1Bytes, cfg.il1Assoc, cfg.il1LineBytes),
      dl1_(cfg.dl1Bytes, cfg.dl1Assoc, cfg.dl1LineBytes),
      l2_(cfg.l2Bytes, cfg.l2Assoc, cfg.l2LineBytes),
      itlb_(cfg.itlbEntries, cfg.itlbAssoc),
      dtlb_(cfg.dtlbEntries, cfg.dtlbAssoc)
{
}

MemAccessResult
MemoryHierarchy::throughL2(Addr addr, int l1_cycles, bool l1_hit)
{
    MemAccessResult r;
    r.l1Hit = l1_hit;
    if (l1_hit) {
        r.cycles = l1_cycles;
        return r;
    }
    r.l2Hit = l2_.access(addr);
    if (r.l2Hit) {
        r.cycles = l1_cycles + cfg_.l2Cycles();
    } else {
        r.cycles = l1_cycles + cfg_.l2Cycles() + cfg_.memLatencyCycles();
    }
    return r;
}

MemAccessResult
MemoryHierarchy::dataAccess(Addr addr)
{
    return throughL2(addr, cfg_.dl1Cycles, dl1_.access(addr));
}

MemAccessResult
MemoryHierarchy::instAccess(Addr addr)
{
    return throughL2(addr, cfg_.il1Cycles, il1_.access(addr));
}

void
MemoryHierarchy::prefill(Addr addr, bool into_l1)
{
    l2_.access(addr);
    if (into_l1)
        dl1_.access(addr);
}

int
MemoryHierarchy::dtlbAccess(Addr addr, bool &miss)
{
    miss = !dtlb_.access(addr);
    return miss ? cfg_.tlbMissCycles : 0;
}

int
MemoryHierarchy::itlbAccess(Addr addr, bool &miss)
{
    miss = !itlb_.access(addr);
    return miss ? cfg_.tlbMissCycles : 0;
}

} // namespace th
