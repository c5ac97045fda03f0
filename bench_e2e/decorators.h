/**
 * @file
 * Timing decorators the traced runs wrap around the program's own
 * interfaces, so spans come from outside the program:
 *  - ChunkTimedTrace times SyntheticTrace::next in 4096-record chunks
 *    (one span per chunk instead of two clock reads per record). The
 *    generator is deterministic and never sees core feedback, so
 *    generating ahead leaves every core result bit-identical; the
 *    self-test pins that.
 *  - TimedCoreSource is the IntervalSource DtmEngine::run(profile, ...)
 *    builds around a stepping Core, with a span around each runFor.
 */

#ifndef BENCH_E2E_DECORATORS_H
#define BENCH_E2E_DECORATORS_H

#include <cstdint>
#include <vector>

#include "core/pipeline.h"
#include "dtm/engine.h"
#include "trace/trace.h"
#include "tracing.h"

namespace bench {

class ChunkTimedTrace : public th::TraceSource
{
  public:
    static constexpr std::size_t kChunk = 4096;

    ChunkTimedTrace(th::TraceSource &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    bool next(th::TraceRecord &rec) override
    {
        if (pos_ == buf_.size() && !refill())
            return false;
        rec = buf_[pos_++];
        return true;
    }

    void reset() override
    {
        inner_.reset();
        buf_.clear();
        pos_ = 0;
        ended_ = false;
    }

    void prefillLines(std::vector<th::PrefillLine> &lines) const override
    {
        inner_.prefillLines(lines);
    }

    /** Records generated so far (including read-ahead). */
    std::uint64_t records() const { return records_; }

  private:
    bool refill()
    {
        if (ended_)
            return false;
        ScopedSpan span(tracer_, "trace.gen");
        buf_.clear();
        pos_ = 0;
        th::TraceRecord rec;
        while (buf_.size() < kChunk) {
            if (!inner_.next(rec)) {
                ended_ = true;
                break;
            }
            buf_.push_back(rec);
        }
        records_ += buf_.size();
        return !buf_.empty();
    }

    th::TraceSource &inner_;
    Tracer &tracer_;
    std::vector<th::TraceRecord> buf_;
    std::size_t pos_ = 0;
    bool ended_ = false;
    std::uint64_t records_ = 0;
};

class TimedCoreSource : public th::IntervalSource
{
  public:
    /** @p core must have beginRun() already called and outlive this. */
    TimedCoreSource(th::Core &core, Tracer &tracer)
        : core_(core), tracer_(tracer)
    {
    }

    void setFetchThrottle(int on, int period) override
    {
        core_.setFetchThrottle(on, period);
    }

    th::CoreResult runFor(std::uint64_t cycles) override
    {
        ScopedSpan span(tracer_, "dtm.core");
        return core_.runFor(cycles);
    }

    bool done() const override { return core_.runDone(); }

  private:
    th::Core &core_;
    Tracer &tracer_;
};

} // namespace bench

#endif // BENCH_E2E_DECORATORS_H
