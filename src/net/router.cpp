#include "net/router.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/version.h"
#include "io/serialize.h"

namespace th {

namespace {

/** FNV-1a 64-bit over @p n bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Split "host:port" (last colon wins); false on malformed input. */
bool parseHostPort(const std::string &addr, std::string &host,
                   std::uint16_t &port)
{
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == addr.size())
        return false;
    host = addr.substr(0, colon);
    const std::string digits = addr.substr(colon + 1);
    unsigned long value = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<unsigned long>(c - '0');
        if (value > 65535)
            return false;
    }
    if (value == 0)
        return false;
    port = static_cast<std::uint16_t>(value);
    return true;
}

/** Keep at most this many warm connections per backend. */
constexpr std::size_t kMaxIdlePerBackend = 4;

/** Virtual nodes per backend on the hash ring. */
constexpr int kVnodes = 64;

/** Longest reconnect backoff after repeated shard failures. */
constexpr std::uint32_t kBackoffMaxMs = 5000;

} // namespace

RouterServer::RouterServer(const RouterOptions &opts)
    : opts_(opts), loop_(*this, buildInfo()), queue_(opts.queueCapacity)
{
    // The ring only needs the address strings, so it is built here and
    // immutable afterwards — routeOf() is lock-free.
    for (std::size_t i = 0; i < opts_.backends.size(); ++i) {
        for (int v = 0; v < kVnodes; ++v) {
            const std::string point =
                opts_.backends[i] + '#' + std::to_string(v);
            ring_.emplace_back(fnv1a(point.data(), point.size()), i);
        }
    }
    std::sort(ring_.begin(), ring_.end());
}

RouterServer::~RouterServer()
{
    shutdown();
}

bool RouterServer::start(std::string &err)
{
    if (started_.exchange(true)) {
        err = "router already started";
        return false;
    }
    if (opts_.backends.empty()) {
        err = "router needs at least one --backend host:port";
        return false;
    }
    for (const std::string &addr : opts_.backends) {
        auto backend = std::make_unique<Backend>();
        backend->addr = addr;
        if (!parseHostPort(addr, backend->host, backend->port)) {
            err = "bad backend address '" + addr + "' (want host:port)";
            return false;
        }
        backends_.push_back(std::move(backend));
    }
    if (!listener_.listenOn(opts_.host, opts_.port, err))
        return false;
    if (!loop_.start(listener_.fd(), err))
        return false;
    const int n = opts_.workers < 1 ? 1 : opts_.workers;
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

std::uint16_t RouterServer::port() const
{
    return listener_.port();
}

void RouterServer::shutdown()
{
    if (!started_.load() || stopped_.exchange(true))
        return;
    // Same drain order as SimServer::shutdown(): reject new work, let
    // the workers finish every admitted forward, wait until every
    // reply has left the write buffers, then cut the sockets.
    draining_.store(true);
    loop_.stopAccepting();
    listener_.close();
    queue_.close();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    loop_.waitQuiescent();
    loop_.closeAllConns();
    loop_.stop();
    for (auto &b : backends_) {
        LockGuard lock(b->mu);
        b->idle.clear();
    }
}

std::size_t RouterServer::routeOf(const SimRequest &req) const
{
    const std::vector<std::uint8_t> key = flightKeyOf(req);
    const std::uint64_t h = fnv1a(key.data(), key.size());
    auto it = std::upper_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(h, std::numeric_limits<std::size_t>::max()));
    if (it == ring_.end())
        it = ring_.begin(); // wrap: first point clockwise from h
    return it->second;
}

void RouterServer::badFrameResponse(std::uint64_t, const std::string &err,
                                    SimResponse &rsp)
{
    metrics_.noteBadRequest();
    rsp.status = SimStatus::BadRequest;
    rsp.error = err;
}

EventHandler::Dispatch RouterServer::onRequest(std::uint64_t conn_id,
                                               SimRequest &&req,
                                               SimResponse &rsp)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    auto replied = [&] {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - t0)
                            .count();
        metrics_.sampleLatencyUs(static_cast<std::uint64_t>(us));
        metrics_.noteServed();
        return Dispatch::Reply;
    };

    // Ping is answered locally (liveness of the router itself); every
    // other kind — Metrics included, it does blocking shard calls — is
    // forwarded from a worker. Semantic validation is the backend's:
    // it owns the System whose windows the request must match.
    if (req.kind == SimRequestKind::Ping) {
        rsp.text = std::string(buildInfo()) + "\n";
        return replied();
    }
    if (draining_.load()) {
        metrics_.noteRejectedShutdown();
        rsp.status = SimStatus::ShuttingDown;
        rsp.error = "router is draining";
        return replied();
    }
    Work work;
    work.conn_id = conn_id;
    work.request = std::move(req);
    work.t0 = t0;
    if (!queue_.tryPush(std::move(work))) {
        if (draining_.load()) {
            metrics_.noteRejectedShutdown();
            rsp.status = SimStatus::ShuttingDown;
            rsp.error = "router is draining";
        } else {
            metrics_.noteRejectedOverload();
            rsp.status = SimStatus::Overloaded;
            rsp.error = "router queue full (capacity " +
                        std::to_string(queue_.capacity()) + "); retry later";
        }
        return replied();
    }
    return Dispatch::Async;
}

void RouterServer::finishRequest(std::uint64_t conn_id,
                                 std::chrono::steady_clock::time_point t0,
                                 const SimResponse &rsp)
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    metrics_.sampleLatencyUs(static_cast<std::uint64_t>(us));
    metrics_.noteServed();
    loop_.postResponse(conn_id, rsp);
}

void RouterServer::workerLoop()
{
    Work work;
    while (queue_.pop(work)) {
        in_flight_.fetch_add(1);
        SimResponse rsp;
        if (work.request.kind == SimRequestKind::Metrics) {
            rsp.text = aggregateMetrics();
        } else {
            forward(*backends_[routeOf(work.request)], work.request, rsp);
        }
        finishRequest(work.conn_id, work.t0, rsp);
        in_flight_.fetch_sub(1);
    }
}

void RouterServer::forward(Backend &b, const SimRequest &req,
                           SimResponse &rsp)
{
    using Clock = std::chrono::steady_clock;
    std::unique_ptr<SimClient> cli;
    {
        LockGuard lock(b.mu);
        if (Clock::now() < b.down_until) {
            rsp.status = SimStatus::Unavailable;
            rsp.error = "backend " + b.addr +
                        " is down; retrying after backoff";
            return;
        }
        if (!b.idle.empty()) {
            cli = std::move(b.idle.back());
            b.idle.pop_back();
        }
    }

    std::string err;
    if (cli) {
        // A pooled connection may have idled out (the shard restarted,
        // dropped it, ...) — a transport failure here is retried once
        // on a fresh connection before the shard is declared down.
        if (!cli->call(req, rsp, err))
            cli.reset();
    }
    if (!cli) {
        cli = std::make_unique<SimClient>();
        if (!cli->connect(b.host, b.port, err) ||
            !cli->call(req, rsp, err)) {
            LockGuard lock(b.mu);
            b.backoff_ms = b.backoff_ms == 0
                               ? opts_.backoffInitialMs
                               : std::min(kBackoffMaxMs,
                                          b.backoff_ms * 2);
            b.down_until =
                Clock::now() + std::chrono::milliseconds(b.backoff_ms);
            b.idle.clear(); // its siblings are dead too
            rsp = SimResponse{};
            rsp.status = SimStatus::Unavailable;
            rsp.error = "backend " + b.addr + " unavailable: " + err;
            return;
        }
    }
    LockGuard lock(b.mu);
    b.backoff_ms = 0;
    b.down_until = Clock::time_point{};
    if (b.idle.size() < kMaxIdlePerBackend)
        b.idle.push_back(std::move(cli));
}

std::string RouterServer::aggregateMetrics()
{
    std::ostringstream os;
    os << metrics_.renderCounters(in_flight_.load(), queue_.size());
    os << "backends " << backends_.size() << '\n';
    SimRequest probe;
    probe.kind = SimRequestKind::Metrics;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        SimResponse brsp;
        forward(*backends_[i], probe, brsp);
        const std::string prefix = "backend_" + std::to_string(i) + '_';
        if (brsp.status != SimStatus::Ok) {
            os << prefix << "up 0\n";
            continue;
        }
        os << prefix << "up 1\n";
        std::istringstream lines(brsp.text);
        std::string line;
        while (std::getline(lines, line))
            if (!line.empty())
                os << prefix << line << '\n';
    }
    return os.str();
}

} // namespace th
