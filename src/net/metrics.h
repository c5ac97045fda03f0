/**
 * @file
 * Server-side operational counters and their plain-text rendering (the
 * Metrics request kind). Counters are lock-free atomics updated on the
 * request path; the latency histogram is mutex-guarded because
 * LatencyHistogram itself is not atomic. None of this feeds any
 * simulation result — wall-clock sampling stays in src/net, outside
 * the deterministic result-producing layers.
 */

#ifndef TH_NET_METRICS_H
#define TH_NET_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/thread_annotations.h"

namespace th {

class System;

/** Counters for one SimServer. All methods are thread-safe. */
class ServerMetrics
{
  public:
    void noteServed() { requests_served_.fetch_add(1); }
    void noteDedupHit() { dedup_hits_.fetch_add(1); }
    void noteRejectedOverload() { rejected_overload_.fetch_add(1); }
    void noteRejectedShutdown() { rejected_shutdown_.fetch_add(1); }
    void noteDeadlineExpired() { deadline_expired_.fetch_add(1); }
    void noteBadRequest() { bad_requests_.fetch_add(1); }
    void noteSimulationRun() { simulations_run_.fetch_add(1); }

    /** Record one request's service time. */
    void sampleLatencyUs(std::uint64_t micros);

    std::uint64_t dedupHits() const { return dedup_hits_.load(); }
    std::uint64_t simulationsRun() const { return simulations_run_.load(); }
    std::uint64_t rejectedOverload() const
    {
        return rejected_overload_.load();
    }
    std::uint64_t deadlineExpired() const
    {
        return deadline_expired_.load();
    }
    std::uint64_t badRequests() const { return bad_requests_.load(); }

    /**
     * Render the metrics snapshot as "key value" lines: request
     * counters, latency quantile bounds, and the System's core-cache
     * and artifact-store counters. @p in_flight and @p queue_depth are
     * sampled by the server at render time.
     */
    std::string renderText(const System &sys, std::uint64_t in_flight,
                           std::uint64_t queue_depth) const;

    /**
     * The request-counter and latency block alone, without the System
     * cache/store lines — the router has no System of its own and
     * renders its backends' snapshots instead.
     */
    std::string renderCounters(std::uint64_t in_flight,
                               std::uint64_t queue_depth) const;

  private:
    std::atomic<std::uint64_t> requests_served_{0};
    std::atomic<std::uint64_t> dedup_hits_{0};
    std::atomic<std::uint64_t> rejected_overload_{0};
    std::atomic<std::uint64_t> rejected_shutdown_{0};
    std::atomic<std::uint64_t> deadline_expired_{0};
    std::atomic<std::uint64_t> bad_requests_{0};
    std::atomic<std::uint64_t> simulations_run_{0};

    mutable Mutex latency_mu_;
    LatencyHistogram latency_ TH_GUARDED_BY(latency_mu_);
};

} // namespace th

#endif // TH_NET_METRICS_H
