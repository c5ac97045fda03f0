/**
 * @file
 * Cluster front-end for th_serve: a RouterServer accepts the same TSRV
 * protocol as a SimServer but owns no System — it consistent-hashes
 * each request's flight key across a set of backend th_serve shards
 * and forwards over the same wire. Because the hash is over
 * flightKeyOf() (deadline excluded), every identical request lands on
 * the same shard, which makes the backend's single-flight dedup
 * cluster-wide. Shard outages surface as structured Unavailable
 * replies (with reconnect backoff), never hangs.
 */

#ifndef TH_NET_ROUTER_H
#define TH_NET_ROUTER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/thread_annotations.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/metrics.h"

namespace th {

/** Construction-time knobs of a RouterServer. */
struct RouterOptions
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read back via port()). */
    std::uint16_t port = 0;
    /** Forwarding worker threads (each does blocking backend I/O). */
    int workers = 4;
    /** Admission-queue capacity; a full queue rejects (Overloaded). */
    std::size_t queueCapacity = 64;
    /** Backend shards as "host:port"; at least one is required. */
    std::vector<std::string> backends;
    /** Reconnect backoff after a shard failure (doubles per failure,
     *  up to 5 s). */
    std::uint32_t backoffInitialMs = 100;
};

class RouterServer : public EventHandler
{
  public:
    explicit RouterServer(const RouterOptions &opts);
    ~RouterServer() override;

    RouterServer(const RouterServer &) = delete;
    RouterServer &operator=(const RouterServer &) = delete;

    /** Bind, listen, and launch the event loop + forwarding workers. */
    bool start(std::string &err);

    /** The bound port (after start(); resolves ephemeral requests). */
    std::uint16_t port() const;

    /**
     * Graceful drain: stop accepting, finish forwarding every admitted
     * request, flush every reply, then tear down. Idempotent.
     */
    void shutdown();

    const ServerMetrics &metrics() const { return metrics_; }
    /** Live client connection count. */
    std::uint64_t connCount() const { return loop_.connCount(); }

    /**
     * The backend index @p req routes to (pure ring lookup, no I/O).
     * Tests use it to predict placement and to target a specific shard.
     */
    std::size_t routeOf(const SimRequest &req) const;

    // EventHandler interface (event-loop thread).
    Dispatch onRequest(std::uint64_t conn_id, SimRequest &&req,
                       SimResponse &rsp) override;
    void badFrameResponse(std::uint64_t conn_id, const std::string &err,
                          SimResponse &rsp) override;

  private:
    /** One backend shard: its address, connection pool, and health. */
    struct Backend
    {
        std::string addr;
        std::string host;
        std::uint16_t port = 0;

        Mutex mu;
        /** Warm connections returned by finished forwards. */
        std::vector<std::unique_ptr<SimClient>> idle TH_GUARDED_BY(mu);
        /** Until this instant the shard is considered down. */
        std::chrono::steady_clock::time_point down_until TH_GUARDED_BY(mu);
        /** Current backoff span; 0 = healthy, doubles per failure. */
        std::uint32_t backoff_ms TH_GUARDED_BY(mu) = 0;
    };

    /** One admitted forward: the connection it answers and its request. */
    struct Work
    {
        std::uint64_t conn_id = 0;
        SimRequest request;
        std::chrono::steady_clock::time_point t0;
    };

    void workerLoop();
    /**
     * Forward @p req to @p b: reuse a pooled connection (one retry on
     * a fresh one — the pooled socket may have idled out), else
     * connect. Failure marks the shard down for the current backoff
     * span and fills a structured Unavailable reply.
     */
    void forward(Backend &b, const SimRequest &req, SimResponse &rsp);
    /** Aggregate local counters + every shard's metrics snapshot. */
    std::string aggregateMetrics();
    /** Deliver @p rsp for @p conn_id, sampling served/latency. */
    void finishRequest(std::uint64_t conn_id,
                       std::chrono::steady_clock::time_point t0,
                       const SimResponse &rsp);

    RouterOptions opts_;
    ServerMetrics metrics_;
    Listener listener_;
    EventLoop loop_;
    BoundedQueue<Work> queue_;

    std::vector<std::unique_ptr<Backend>> backends_;
    /** Consistent-hash ring: (point, backend index), sorted by point. */
    std::vector<std::pair<std::uint64_t, std::size_t>> ring_;

    std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> in_flight_{0};

    std::vector<std::thread> workers_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopped_{false};
};

} // namespace th

#endif // TH_NET_ROUTER_H
