/**
 * @file
 * The th_serve server: accepts TSRV connections, validates requests,
 * coalesces identical simulations (single-flight), and pushes work
 * through a bounded admission queue into a worker pool driving one
 * shared System. Overload surfaces as structured Overloaded replies
 * (never unbounded queueing); shutdown() drains admitted work before
 * returning (never abandons a waiter).
 *
 * Concurrency shape:
 *  - one epoll event-loop thread (net/event_loop.h) owns every
 *    connection: idle connections cost a registered fd, not a thread,
 *    and replies are buffered/flushed on writability so a slow reader
 *    never blocks a worker;
 *  - a Flight per distinct simulation key; connections attach to the
 *    Flight as waiters, worker threads run it and publish the result
 *    back to each waiting connection through the loop;
 *  - deadline expiry is an event-loop timer; the underlying simulation
 *    is cancelled only when the last waiter gives up (a CancelToken
 *    polled by the cycle loop).
 */

#ifndef TH_NET_SERVER_H
#define TH_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/cancel.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/metrics.h"
#include "net/protocol.h"
#include "sim/system.h"

namespace th {

/** Construction-time knobs of a SimServer. */
struct ServerOptions
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read back via port()). */
    std::uint16_t port = 0;
    /** Simulation worker threads. */
    int workers = 2;
    /** Admission-queue capacity; a full queue rejects (Overloaded). */
    std::size_t queueCapacity = 16;
    /** Options of the server-owned System (window sizes, store dir). */
    SimOptions sim;
    /**
     * Test seam: start with the workers parked so a test can stack up
     * concurrent identical requests (dedup) or fill the queue
     * (backpressure) deterministically, then resumeWorkers().
     */
    bool startWorkersPaused = false;
};

class SimServer : public EventHandler
{
  public:
    explicit SimServer(const ServerOptions &opts);
    ~SimServer() override;

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /** Bind, listen, and launch the event loop + worker threads. */
    bool start(std::string &err);

    /** The bound port (after start(); resolves ephemeral requests). */
    std::uint16_t port() const;

    /**
     * Graceful drain: stop accepting connections and admitting work,
     * answer queued-behind requests with ShuttingDown, finish every
     * admitted simulation, wait (on a condition variable, not a spin)
     * until every reply — including error replies — is flushed, then
     * tear down connections. Idempotent; safe from a signal-watcher
     * thread.
     */
    void shutdown();

    /** Release parked workers (see ServerOptions::startWorkersPaused). */
    void resumeWorkers();

    const ServerMetrics &metrics() const { return metrics_; }
    /** The server-owned System (tests compare its counters). */
    System &system() { return *sys_; }
    /** Live connection count (tests assert no thread-per-connection). */
    std::uint64_t connCount() const { return loop_.connCount(); }

    // EventHandler interface (event-loop thread).
    Dispatch onRequest(std::uint64_t conn_id, SimRequest &&req,
                       SimResponse &rsp) override;
    void badFrameResponse(std::uint64_t conn_id, const std::string &err,
                          SimResponse &rsp) override;
    void onDeadline(std::uint64_t conn_id) override;
    void onConnClosed(std::uint64_t conn_id) override;

  private:
    /**
     * One coalesced simulation: the first request creates it, identical
     * concurrent requests attach as extra waiters, a worker publishes
     * the shared result to every waiting connection.
     */
    struct Flight
    {
        CancelToken cancel;
        Mutex mu;
        bool done TH_GUARDED_BY(mu) = false;
        /** Connections awaiting this flight's result. */
        std::vector<std::uint64_t> waiters TH_GUARDED_BY(mu);
    };

    /** One admitted work item: the flight plus its representative request. */
    struct Work
    {
        std::shared_ptr<Flight> flight;
        SimRequest request;
        std::string key;
    };

    /** Book-keeping for one connection's in-flight request. */
    struct Pending
    {
        std::shared_ptr<Flight> flight;
        std::string key;
        std::chrono::steady_clock::time_point t0;
    };

    void workerLoop();
    /** Park until resumeWorkers() when started paused. */
    void waitUntilResumed();

    /**
     * Unmap @p key, mark @p flight done, and deliver @p rsp to every
     * waiting connection (any thread).
     */
    void publishFlight(const std::shared_ptr<Flight> &flight,
                       const std::string &key, const SimResponse &rsp);
    /** Deliver @p rsp to @p conn_id, sampling served/latency metrics. */
    void finishRequest(std::uint64_t conn_id, const Pending &p,
                       const SimResponse &rsp);

    ServerOptions opts_;
    std::unique_ptr<System> sys_;
    ServerMetrics metrics_;
    Listener listener_;
    EventLoop loop_;
    BoundedQueue<Work> queue_;

    std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> in_flight_{0};

    Mutex pause_mu_;
    bool paused_ TH_GUARDED_BY(pause_mu_) = false;
    /// _any variant: waits on the annotated th::UniqueLock.
    // th_lint: guards(paused_, under pause_mu_)
    std::condition_variable_any pause_cv_;

    Mutex flights_mu_;
    std::map<std::string, std::shared_ptr<Flight>>
        flights_ TH_GUARDED_BY(flights_mu_);

    Mutex pending_mu_;
    std::map<std::uint64_t, Pending> pending_ TH_GUARDED_BY(pending_mu_);

    std::vector<std::thread> workers_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
};

} // namespace th

#endif // TH_NET_SERVER_H
