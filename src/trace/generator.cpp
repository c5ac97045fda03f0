#include "trace/generator.h"

#include <algorithm>
#include <cmath>

#include "common/bitutil.h"
#include "common/log.h"

namespace th {

namespace {

/** Architectural register counts: 0..31 integer, 32..63 floating point. */
constexpr RegIndex kNumIntRegs = 32;
constexpr RegIndex kFpRegBase = 32;

/** Hash used by the pointer-chase address stream. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

SyntheticTrace::SyntheticTrace(const BenchmarkProfile &profile)
    : profile_(profile), rng_(profile.seed)
{
    if (profile_.numKernels < 1 || profile_.kernelSize < 4)
        fatal("Benchmark profile '%s' needs >=1 kernel of >=4 insts",
              profile_.name.c_str());
    buildProgram();
    reset();
}

void
SyntheticTrace::reset()
{
    // Re-seed so the dynamic stream is reproducible run-to-run.
    rng_ = Rng(profile_.seed ^ 0xd1eC0DEULL);
    cur_kernel_ = 0;
    cur_idx_ = 0;
    loop_trips_left_ = std::max(1, rng_.runLength(profile_.loopTripMean));

    size_t total_static = 0;
    for (const auto &k : kernels_)
        total_static += k.insts.size();
    reg_values_.assign(64, 0);
    // Random per-site phases so strided sites spread over their
    // working sets instead of all walking up from offset zero.
    mem_counters_.assign(total_static, 0);
    for (auto &c : mem_counters_)
        c = rng_.next() & 0xfffff;
    chase_ptrs_.assign(total_static, kHeapBase);
    for (auto &cp : chase_ptrs_)
        cp = kHeapBase + (rng_.next() & 0xfffff8);
    indirect_rr_.assign(total_static, 0);
}

OpClass
SyntheticTrace::sampleOpClass()
{
    const BenchmarkProfile &p = profile_;
    double cdf[11];
    double acc = 0.0;
    int i = 0;
    auto push = [&](double f) { acc += f; cdf[i++] = acc; };
    push(p.fShift);
    push(p.fMult);
    push(p.fFpAdd);
    push(p.fFpMult);
    push(p.fFpDiv);
    push(p.fLoad);
    push(p.fStore);
    push(p.fBranch);
    push(p.fJump);
    push(p.fIndirect);
    push(p.fNop);

    static const OpClass classes[11] = {
        OpClass::IntShift, OpClass::IntMult, OpClass::FpAdd,
        OpClass::FpMult, OpClass::FpDiv, OpClass::Load, OpClass::Store,
        OpClass::Branch, OpClass::Jump, OpClass::IndirectJump,
        OpClass::Nop,
    };

    const double u = rng_.uniform();
    for (int j = 0; j < 11; ++j)
        if (u < cdf[j])
            return classes[j];
    return OpClass::IntAlu;
}

SyntheticTrace::Kernel
SyntheticTrace::buildKernel(int index, Addr base_pc)
{
    const BenchmarkProfile &p = profile_;
    Kernel kernel;
    kernel.insts.resize(static_cast<size_t>(p.kernelSize));

    // Recent destinations (register, low-width-site flag) for
    // dependency-distance sampling.
    struct RecentDst { RegIndex reg; bool lowSite; };
    std::vector<RecentDst> recent_int;
    std::vector<RecentDst> recent_fp;

    for (int i = 0; i < p.kernelSize; ++i) {
        StaticInst &si = kernel.insts[static_cast<size_t>(i)];
        si.pc = base_pc + static_cast<Addr>(i) * 4;

        const bool is_last = (i == p.kernelSize - 1);
        si.op = is_last ? OpClass::Branch : sampleOpClass();
        // Restrict inter-kernel jumps to the last quarter of a kernel:
        // a jump early in one kernel targeting a jump early in another
        // would ping-pong between kernel prologues and starve the
        // kernel bodies out of the dynamic stream.
        if ((si.op == OpClass::Jump || si.op == OpClass::IndirectJump) &&
            i < (3 * p.kernelSize) / 4) {
            si.op = OpClass::IntAlu;
        }
        const bool fp = isFpOp(si.op);

        // Decide the site's width bias before operand selection so
        // low-width sites can prefer low-width producers — real code
        // correlates operand and result widths (a 16-bit dataflow
        // stays 16-bit), which is what makes one prediction per
        // instruction cover both (Section 3).
        const bool low_site = !fp && rng_.chance(p.lowWidthBias);
        si.lowWidthProb = low_site ? 1.0 - p.widthNoise : p.widthNoise;

        // Source operands: recently written registers at a geometric
        // dependency distance, preferring width-compatible producers.
        auto pick_src = [&](bool fp_src, bool want_low) -> RegIndex {
            const auto &recent = fp_src ? recent_fp : recent_int;
            if (!recent.empty() && rng_.chance(0.75)) {
                int d = rng_.runLength(p.depDistMean);
                d = std::min<int>(d, static_cast<int>(recent.size()));
                const size_t start = recent.size() - static_cast<size_t>(d);
                // Search outwards from the sampled distance for a
                // width-compatible producer.
                for (size_t off = 0; off < recent.size(); ++off) {
                    const size_t lo = start >= off ? start - off : 0;
                    if (recent[lo].lowSite == want_low &&
                        rng_.chance(0.85))
                        return recent[lo].reg;
                }
                return recent[start].reg;
            }
            const RegIndex base = fp_src ? kFpRegBase : 0;
            return base +
                static_cast<RegIndex>(rng_.range(kNumIntRegs));
        };
        switch (si.op) {
          case OpClass::Nop:
            break;
          case OpClass::Load:
            si.numSrcs = 1; // address base register: full width
            si.srcRegs[0] = pick_src(false, false);
            si.hasDst = true;
            // Some loads feed the FP pipeline (matters for the extra
            // FP-load forwarding cycle the 3D floorplan removes).
            si.dstReg = (p.fFpAdd + p.fFpMult > 0.05 && rng_.chance(0.4))
                ? kFpRegBase + static_cast<RegIndex>(rng_.range(kNumIntRegs))
                : static_cast<RegIndex>(rng_.range(kNumIntRegs));
            break;
          case OpClass::Store:
            si.numSrcs = 2; // address base (full) + data
            si.srcRegs[0] = pick_src(false, false);
            si.srcRegs[1] = pick_src(fp, low_site);
            break;
          case OpClass::Branch:
            si.numSrcs = 1;
            si.srcRegs[0] = pick_src(false, low_site);
            break;
          case OpClass::Jump:
          case OpClass::IndirectJump:
            si.numSrcs = si.op == OpClass::IndirectJump ? 1 : 0;
            if (si.numSrcs)
                si.srcRegs[0] = pick_src(false, false);
            break;
          default: // ALU-class producers
            si.numSrcs = rng_.chance(0.8) ? 2 : 1;
            for (int s = 0; s < si.numSrcs; ++s)
                si.srcRegs[s] = pick_src(fp, low_site);
            si.hasDst = true;
            si.dstReg = (fp ? kFpRegBase : 0) +
                static_cast<RegIndex>(rng_.range(kNumIntRegs));
            break;
        }

        if (fp || (si.hasDst && si.dstReg >= kFpRegBase))
            si.lowWidthProb = 0.0; // FP values are full width

        if (si.hasDst) {
            auto &recent = si.dstReg >= kFpRegBase ? recent_fp : recent_int;
            recent.push_back(RecentDst{si.dstReg,
                                       si.lowWidthProb > 0.5});
            if (recent.size() > 16)
                recent.erase(recent.begin());
        }

        // Full-width value shape is a per-site property too.
        {
            const double u = rng_.uniform();
            if (u < p.loadUpperOnes)
                si.fullValueClass = 1;
            else if (u < p.loadUpperOnes + p.loadUpperAddr)
                si.fullValueClass = 2;
            else
                si.fullValueClass = 3;
        }

        // Branch structure.
        if (si.op == OpClass::Branch) {
            if (is_last) {
                si.isLoopBranch = true;
                si.takenBias = 1.0;
                si.targetIdx = 0;
            } else if (rng_.chance(p.branchNoise /
                       std::max(p.fBranch, 1e-9))) {
                // Data-dependent branch the predictors struggle with
                // (~25% mispredict rate on these sites). Skips exactly
                // one instruction so the dynamic op mix stays close to
                // the sampled static mix.
                si.takenBias = rng_.chance(0.5) ? 0.75 : 0.25;
                si.targetIdx = std::min(p.kernelSize - 1, i + 2);
            } else {
                // Predictable if-then skip: mostly not-taken (the
                // taken rate of the stream comes from loop-back
                // branches and jumps, which skip nothing).
                si.takenBias = rng_.chance(0.3) ? 0.97 : 0.03;
                si.targetIdx = std::min(p.kernelSize - 1, i + 2);
            }
        } else if (si.op == OpClass::Jump) {
            si.jumpKernel = static_cast<int>(
                rng_.range(static_cast<std::uint64_t>(p.numKernels)));
        } else if (si.op == OpClass::IndirectJump) {
            const int n = std::max(1,
                rng_.runLength(p.indirectTargets));
            for (int t = 0; t < std::min(n, 6); ++t)
                si.indirectKernels.push_back(static_cast<int>(
                    rng_.range(static_cast<std::uint64_t>(p.numKernels))));
        }

        // Memory behaviour: region here; working-set class assigned
        // stratified over the whole program (see assignMemorySets) to
        // keep the dynamic hot/warm/cold mix close to the profile.
        if (si.op == OpClass::Load || si.op == OpClass::Store) {
            const double u = rng_.uniform();
            if (u < p.stackFrac)
                si.memRegion = 0;
            else if (u < p.stackFrac + p.heapFrac)
                si.memRegion = 1;
            else
                si.memRegion = 2;
            si.memSet = 0;

            si.pointerChase = si.memRegion == 1 &&
                si.op == OpClass::Load &&
                rng_.chance(p.pointerChaseFrac);
            if (si.pointerChase) {
                // Linked-structure traversal: the load's address comes
                // from its own previous result (r = load [r]), so
                // successive accesses serialise in the pipeline — the
                // behaviour that makes mcf DRAM-latency-bound.
                si.dstReg = static_cast<RegIndex>(rng_.range(kNumIntRegs));
                si.srcRegs[0] = si.dstReg;
                si.lowWidthProb = 0.0;  // pointers are full width
                si.fullValueClass = 2;  // upper bits match the region
            }
            static const std::uint64_t strides[4] = {8, 8, 16, 64};
            si.stride = strides[rng_.range(4)];
        }
        (void)index;
    }

    kernel.loopBranchIdx = p.kernelSize - 1;
    return kernel;
}

void
SyntheticTrace::buildProgram()
{
    kernels_.clear();
    kernels_.reserve(static_cast<size_t>(profile_.numKernels));
    int first_id = 0;
    for (int k = 0; k < profile_.numKernels; ++k) {
        const Addr base = kTextBase +
            static_cast<Addr>(k) *
            static_cast<Addr>(profile_.kernelSize) * 4 +
            static_cast<Addr>(k) * 64; // gap between kernels
        kernels_.push_back(buildKernel(k, base));
        kernels_.back().firstId = first_id;
        first_id += static_cast<int>(kernels_.back().insts.size());
    }
    assignMemorySets();
}

void
SyntheticTrace::assignMemorySets()
{
    // Collect non-stack memory sites (stack accesses are hot by
    // construction) and deal working-set classes out in exact
    // proportion: per-site sampling would let a single unlucky cold
    // site in a hot loop dominate the DRAM traffic.
    std::vector<StaticInst *> sites;
    for (auto &kernel : kernels_)
        for (auto &si : kernel.insts)
            if ((si.op == OpClass::Load || si.op == OpClass::Store) &&
                si.memRegion != 0)
                sites.push_back(&si);
    if (sites.empty())
        return;

    // Fisher-Yates shuffle with the build RNG (deterministic).
    for (size_t i = sites.size() - 1; i > 0; --i) {
        const size_t j = rng_.range(i + 1);
        std::swap(sites[i], sites[j]);
    }
    // Pointer-chase sites take the large cache-hostile working sets
    // first: linked structures are the big data structures (patricia's
    // L2-resident trie; mcf's DRAM-resident graph). For benchmarks
    // with only incidental DRAM traffic (coldFrac < 5%), the cold set
    // goes to strided sites instead — sparse strided misses overlap
    // under MLP the way array codes do.
    std::stable_partition(sites.begin(), sites.end(),
                          [](const StaticInst *si) {
                              return si->pointerChase;
                          });

    const double non_stack = std::max(1e-9, 1.0 - profile_.stackFrac);
    const auto n = static_cast<double>(sites.size());
    const size_t n_cold = static_cast<size_t>(
        std::lround(profile_.coldFrac / non_stack * n));
    const size_t n_warm = static_cast<size_t>(
        std::lround(profile_.warmFrac / non_stack * n));
    // Dedicated cold sites only for deep-memory benchmarks; smaller
    // DRAM components are scattered per-access in nextMemAddr.
    const bool dedicated_cold = profile_.coldFrac >= 0.05;

    size_t assigned_cold = 0;
    if (dedicated_cold) {
        for (size_t i = 0; i < sites.size() && assigned_cold < n_cold; ++i)
            if (sites[i]->memSet == 0) {
                sites[i]->memSet = 2;
                ++assigned_cold;
            }
    }
    size_t assigned_warm = 0;
    for (size_t i = 0; i < sites.size() && assigned_warm < n_warm; ++i) {
        if (sites[i]->memSet == 0) {
            sites[i]->memSet = 1;
            ++assigned_warm;
        }
    }
}

std::uint64_t
SyntheticTrace::sampleValue(const StaticInst &si, bool &is_low)
{
    is_low = rng_.chance(si.lowWidthProb);
    if (is_low)
        return rng_.next() & kTopDieMask;

    // Full-width value shaped by the site's value class with a little
    // per-instance noise.
    int cls = si.fullValueClass;
    if (rng_.chance(profile_.widthNoise))
        cls = 1 + static_cast<int>(rng_.range(3));
    switch (cls) {
      case 1: // small negative: upper 48 bits all ones
        return kUpperMask | (rng_.next() & kTopDieMask);
      case 2: // pointer to a nearby heap object
        return kHeapBase | (rng_.next() & 0xffffffULL);
      default: // arbitrary wide value
        return (rng_.next() & 0x0000ffffffffffffULL) |
               (1ULL << 40); // guarantee full width
    }
}

Addr
SyntheticTrace::nextMemAddr(const StaticInst &si, int static_id)
{
    Addr base;
    std::uint64_t set_bytes;
    switch (si.memSet) {
      case 0: set_bytes = profile_.hotBytes; break;
      case 1: set_bytes = profile_.warmBytes; break;
      default: set_bytes = profile_.coldBytes; break;
    }
    switch (si.memRegion) {
      case 0: base = kStackBase; break;
      case 1: base = kHeapBase; break;
      default: base = kGlobalBase; break;
    }

    const auto id = static_cast<size_t>(static_id);

    // Small DRAM components (coldFrac < 5%) are scattered: any
    // non-cold site occasionally touches a random cold line. This
    // keeps the dynamic cold fraction exact — dedicating whole sites
    // would make the traffic hostage to how hot those sites' loops
    // happen to be — and models the sparse, MLP-friendly misses of
    // mostly-resident codes.
    if (si.memSet != 2 && !si.pointerChase &&
        profile_.coldFrac > 0.0 && profile_.coldFrac < 0.05 &&
        rng_.chance(profile_.coldFrac)) {
        return kHeapBase + (rng_.next() % profile_.coldBytes & ~7ULL);
    }

    if (si.pointerChase) {
        // Linked-list traversal: nodes laid out in a pseudo-random
        // permutation of the working set; each traversal visits every
        // node once, then restarts. (A naive x -> hash(x) chain would
        // fall into a short rho-cycle and shrink the set.)
        const std::uint64_t lines =
            std::max<std::uint64_t>(1, set_bytes / 64);
        const std::uint64_t idx = mem_counters_[id]++ % lines;
        const std::uint64_t salt =
            static_cast<std::uint64_t>(static_id) << 32;
        return base + (mix64(salt + idx) % set_bytes & ~7ULL);
    }
    const std::uint64_t count = mem_counters_[id]++;
    return base + (count * si.stride) % std::max<std::uint64_t>(8, set_bytes);
}

void
SyntheticTrace::fillDynamic(const StaticInst &si, TraceRecord &rec)
{
    // Every field is written exactly once, the ones an op does not use
    // with TraceRecord's defaults: the caller's record is not reset.
    rec.pc = si.pc;
    rec.op = si.op;
    rec.numSrcs = si.numSrcs;
    rec.hasDst = si.hasDst;
    rec.dstReg = si.dstReg;
    for (int s = 0; s < kMaxSrcs; ++s) {
        const bool used = s < si.numSrcs;
        rec.srcRegs[s] = used ? si.srcRegs[s] : 0;
        rec.srcValues[s] = used ? reg_values_[si.srcRegs[s]] : 0;
    }

    // The static index of this instruction, for per-site state.
    const int static_id =
        kernels_[static_cast<size_t>(cur_kernel_)].firstId + cur_idx_;

    rec.effAddr = isMemOp(si.op) ? nextMemAddr(si, static_id) : 0;
    rec.memSize = 8;

    std::uint64_t result = 0;
    if (si.hasDst || si.op == OpClass::Store) {
        bool is_low = false;
        result = sampleValue(si, is_low);
        if (isMemOp(si.op) && !is_low && si.fullValueClass == 2) {
            // Pointer-like memory data: the upper bits match the
            // referencing address (nearby heap objects), which the
            // D-cache's code-10 encoding captures (Section 3.6).
            result = (rec.effAddr & kUpperMask) | (result & kTopDieMask);
        }
        if (si.hasDst)
            reg_values_[si.dstReg] = result;
    }
    rec.resultValue = result;

    bool taken = false;
    Addr target = 0;
    if (si.op == OpClass::Branch) {
        taken = si.isLoopBranch ? loop_trips_left_ > 0
                                : rng_.chance(si.takenBias);
        const auto &kernel = kernels_[static_cast<size_t>(cur_kernel_)];
        const int tgt = si.isLoopBranch ? 0 : si.targetIdx;
        target = kernel.insts[static_cast<size_t>(tgt)].pc;
    } else if (si.op == OpClass::Jump) {
        taken = true;
        target = kernels_[static_cast<size_t>(si.jumpKernel)].insts[0].pc;
    } else if (si.op == OpClass::IndirectJump) {
        taken = true;
        const auto id = static_cast<size_t>(static_id);
        const auto &tgts = si.indirectKernels;
        int pick = 0;
        if (!tgts.empty()) {
            // Mostly cyclic with occasional surprise, so the BTB gets
            // a realistic indirect-misprediction rate.
            pick = indirect_rr_[id] % static_cast<int>(tgts.size());
            if (rng_.chance(0.2))
                pick = static_cast<int>(rng_.range(tgts.size()));
            indirect_rr_[id]++;
        }
        const int k = tgts.empty() ? 0 : tgts[static_cast<size_t>(pick)];
        target = kernels_[static_cast<size_t>(k)].insts[0].pc;
    }
    rec.taken = taken;
    rec.target = target;
}

void
SyntheticTrace::advanceControl(const StaticInst &si, const TraceRecord &rec)
{
    const auto &kernel = kernels_[static_cast<size_t>(cur_kernel_)];

    if (si.op == OpClass::Branch) {
        if (si.isLoopBranch) {
            if (rec.taken) {
                --loop_trips_left_;
                cur_idx_ = 0;
            } else {
                // Loop done: fall through to the next kernel.
                cur_kernel_ = (cur_kernel_ + 1) % profile_.numKernels;
                cur_idx_ = 0;
                loop_trips_left_ =
                    std::max(1, rng_.runLength(profile_.loopTripMean));
            }
        } else if (rec.taken) {
            cur_idx_ = si.targetIdx;
        } else {
            ++cur_idx_;
        }
        return;
    }

    if (si.op == OpClass::Jump || si.op == OpClass::IndirectJump) {
        // Find the kernel whose first PC matches the target.
        for (int k = 0; k < profile_.numKernels; ++k) {
            if (kernels_[static_cast<size_t>(k)].insts[0].pc ==
                rec.target) {
                cur_kernel_ = k;
                break;
            }
        }
        cur_idx_ = 0;
        loop_trips_left_ =
            std::max(1, rng_.runLength(profile_.loopTripMean));
        return;
    }

    ++cur_idx_;
    if (cur_idx_ >= static_cast<int>(kernel.insts.size())) {
        // Shouldn't happen (kernels end with the loop branch), but be
        // safe: wrap to the next kernel.
        cur_kernel_ = (cur_kernel_ + 1) % profile_.numKernels;
        cur_idx_ = 0;
    }
}

void
SyntheticTrace::prefillLines(std::vector<PrefillLine> &lines) const
{
    // Hot sets are L1-resident in steady state; warm sets L2-resident.
    // Cold sets are DRAM traffic by design and are not prefilled.
    const std::uint64_t hot_lines = (profile_.hotBytes + 63) / 64;
    const std::uint64_t warm_lines = profile_.warmBytes > profile_.hotBytes
        ? (profile_.warmBytes - profile_.hotBytes + 63) / 64
        : 0;
    lines.reserve(lines.size() + 3 * hot_lines + 2 * warm_lines);
    const Addr bases[3] = {kStackBase, kHeapBase, kGlobalBase};
    for (Addr base : bases) {
        for (std::uint64_t off = 0; off < profile_.hotBytes; off += 64)
            lines.push_back(PrefillLine{base + off, true});
    }
    // Stack never holds warm sites (see assignMemorySets).
    const Addr warm_bases[2] = {kHeapBase, kGlobalBase};
    for (Addr base : warm_bases) {
        for (std::uint64_t off = profile_.hotBytes;
             off < profile_.warmBytes; off += 64)
            lines.push_back(PrefillLine{base + off, false});
    }
}

bool
SyntheticTrace::next(TraceRecord &rec)
{
    const auto &kernel = kernels_[static_cast<size_t>(cur_kernel_)];
    const StaticInst &si = kernel.insts[static_cast<size_t>(cur_idx_)];
    fillDynamic(si, rec);
    advanceControl(si, rec);
    return true; // endless stream; callers bound by instruction count
}

} // namespace th
