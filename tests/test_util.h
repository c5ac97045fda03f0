/**
 * @file
 * Shared test helpers: a scripted trace source and builders for
 * common instruction patterns.
 */

#ifndef TH_TESTS_TEST_UTIL_H
#define TH_TESTS_TEST_UTIL_H

#include <cstdint>
#include <vector>

#include "trace/trace.h"

namespace th {
namespace test {

/** FNV-1a over @p bytes (digests in golden tables). */
inline std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** A TraceSource that replays a fixed vector of records. */
class VectorTrace : public TraceSource
{
  public:
    VectorTrace() = default;
    explicit VectorTrace(std::vector<TraceRecord> recs)
        : recs_(std::move(recs))
    {
    }

    void push(const TraceRecord &rec) { recs_.push_back(rec); }

    bool next(TraceRecord &rec) override
    {
        if (pos_ >= recs_.size())
            return false;
        rec = recs_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

    size_t size() const { return recs_.size(); }

  private:
    std::vector<TraceRecord> recs_;
    size_t pos_ = 0;
};

/** Simple integer ALU op writing @p dst = @p value, reading @p srcs. */
inline TraceRecord
aluOp(Addr pc, RegIndex dst, std::uint64_t value,
      std::initializer_list<RegIndex> srcs = {})
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::IntAlu;
    r.hasDst = true;
    r.dstReg = dst;
    r.resultValue = value;
    r.numSrcs = 0;
    for (RegIndex s : srcs) {
        r.srcRegs[r.numSrcs] = s;
        ++r.numSrcs;
        if (r.numSrcs >= kMaxSrcs)
            break;
    }
    return r;
}

/** Load from @p addr into @p dst (value @p value). */
inline TraceRecord
loadOp(Addr pc, RegIndex dst, Addr addr, std::uint64_t value = 1,
       RegIndex base_reg = 30)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::Load;
    r.hasDst = true;
    r.dstReg = dst;
    r.numSrcs = 1;
    r.srcRegs[0] = base_reg;
    r.effAddr = addr;
    r.memSize = 8;
    r.resultValue = value;
    return r;
}

/** Store @p value to @p addr. */
inline TraceRecord
storeOp(Addr pc, Addr addr, std::uint64_t value,
        RegIndex base_reg = 30, RegIndex data_reg = 29)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::Store;
    r.numSrcs = 2;
    r.srcRegs[0] = base_reg;
    r.srcRegs[1] = data_reg;
    r.effAddr = addr;
    r.memSize = 8;
    r.resultValue = value;
    return r;
}

/** Conditional branch at @p pc with outcome @p taken. */
inline TraceRecord
branchOp(Addr pc, bool taken, Addr target)
{
    TraceRecord r;
    r.pc = pc;
    r.op = OpClass::Branch;
    r.numSrcs = 1;
    r.srcRegs[0] = 28;
    r.taken = taken;
    r.target = target;
    return r;
}

/** A stream of @p n independent single-cycle ALU ops. */
inline std::vector<TraceRecord>
independentAlus(int n, std::uint64_t value = 5)
{
    std::vector<TraceRecord> v;
    v.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        v.push_back(aluOp(0x1000 + static_cast<Addr>(i % 64) * 4,
                          static_cast<RegIndex>(i % 24), value));
    }
    return v;
}

/** A serial dependency chain: each op reads the previous result. */
inline std::vector<TraceRecord>
dependentChain(int n, std::uint64_t value = 5)
{
    std::vector<TraceRecord> v;
    v.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        TraceRecord r = aluOp(0x2000 + static_cast<Addr>(i % 64) * 4,
                              1, value, {1});
        r.srcValues[0] = value;
        v.push_back(r);
    }
    return v;
}

} // namespace test
} // namespace th

#endif // TH_TESTS_TEST_UTIL_H
