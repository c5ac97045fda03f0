/**
 * @file
 * Span recording and the statistics the end-to-end benchmark reports.
 *
 * Spans are recorded by the benchmark around its own calls into each
 * layer's public functions (nothing under src/ is instrumented): name,
 * start, end, and the span that caused it. They stay in memory and are
 * written out once, when the run ends. A layer's self time is its span
 * minus the part of that interval its direct children cover, so
 * children running in parallel on the thread pool are not subtracted
 * twice.
 */

#ifndef BENCH_E2E_TRACING_H
#define BENCH_E2E_TRACING_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace bench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** One closed span; times are nanoseconds since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int id = 0;
    int parent = -1; ///< -1 for a root span.
};

/**
 * In-memory span store. Disabled tracers record nothing, so untraced
 * runs pay one branch per span site. All methods are thread-safe.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const char *name, int parent);
    /** Close span @p id (no-op for -1). */
    void end(int id);

    /** Closed spans, in order of their ids. */
    std::vector<SpanRecord> spans() const;

    /** Write every closed span as one JSON document. */
    bool writeJson(const std::string &path, const std::string &workload,
                   std::uint64_t seed) const;

  private:
    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    mutable th::Mutex mu_;
    std::vector<SpanRecord> spans_ TH_GUARDED_BY(mu_);
};

/**
 * RAII span. The parent defaults to the innermost open span of the
 * calling thread; work fanned out to the thread pool passes the parent
 * explicitly, since pool threads do not inherit the caller's stack.
 */
class ScopedSpan
{
  public:
    /** Parent argument meaning "the calling thread's innermost span". */
    static constexpr int kInherit = -2;

    ScopedSpan(Tracer &tracer, const char *name, int parent = kInherit);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
    int saved_;
};

/** The innermost open span of the calling thread (-1 if none). */
int currentSpan();

/** Per-name totals over a set of spans. */
struct SpanTotals
{
    int count = 0;
    double totalMs = 0.0; ///< Sum of durations.
    double selfMs = 0.0;  ///< Sum of self times.
    std::vector<double> durationsMs;
};

/**
 * Aggregate @p spans by name. A span's self time is its duration minus
 * the union of its direct children's intervals, clipped to the span.
 */
std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<SpanRecord> &spans);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * A tail percentile chosen by the benchmark's reporting rule: the
 * highest of 99.9, 99, 95, 90, 75 and 50 that leaves at least ten
 * samples above it, with its nearest-rank value. With fewer than 20
 * samples no percentile qualifies and the maximum is reported as the
 * 100th percentile.
 */
struct Tail
{
    double pct = 0.0;
    double value = 0.0;
};
Tail tailPercentile(std::vector<double> v);

/** Nearest-rank percentile @p pct (0-100] of @p sorted (ascending). */
double nearestRank(const std::vector<double> &sorted, double pct);

/** FNV-1a 64-bit over @p text, continuing from @p h. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** 16-digit lowercase hex of @p v. */
std::string hex64(std::uint64_t v);

} // namespace bench

#endif // BENCH_E2E_TRACING_H
