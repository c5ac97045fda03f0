/**
 * @file
 * Cooperative cancellation. A CancelToken is a shared flag a waiter
 * flips when it no longer wants a result (deadline expiry, every
 * single-flight subscriber gone); long-running simulation loops poll
 * it at safe points and unwind with Cancelled.
 *
 * Cancellation never corrupts state: the core checks between cycles,
 * the aborted run produces no CoreResult, and nothing partial is ever
 * cached or persisted (the memo/store writes happen strictly after a
 * run completes).
 */

#ifndef TH_COMMON_CANCEL_H
#define TH_COMMON_CANCEL_H

#include <atomic>
#include <cstdint>
#include <exception>

namespace th {

/**
 * Shared cancellation flag; cancel() is sticky. The token also tallies
 * the artifacts computed on its behalf (memo misses the store did not
 * serve): it already reaches every simulation a request runs, on
 * whichever thread runs it, so the tally needs no shared counter.
 */
class CancelToken
{
  public:
    CancelToken() = default;
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
    bool cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** Count one artifact computed under this token (any thread). */
    void noteComputed() const { computed_.fetch_add(1); }
    /** Artifacts computed under this token so far. */
    std::uint64_t computed() const { return computed_.load(); }

  private:
    std::atomic<bool> cancelled_{false};
    mutable std::atomic<std::uint64_t> computed_{0};
};

/** Thrown by simulation loops when their CancelToken fires. */
class Cancelled : public std::exception
{
  public:
    const char *what() const noexcept override
    {
        return "simulation cancelled";
    }
};

} // namespace th

#endif // TH_COMMON_CANCEL_H
