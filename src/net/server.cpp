#include "net/server.h"

#include <utility>

#include "common/version.h"
#include "io/serialize.h"
#include "sim/dispatch.h"

namespace th {

SimServer::SimServer(const ServerOptions &opts)
    : opts_(opts), loop_(*this, buildInfo()), queue_(opts.queueCapacity)
{
    LockGuard lock(pause_mu_);
    paused_ = opts.startWorkersPaused;
}

SimServer::~SimServer()
{
    shutdown();
}

bool SimServer::start(std::string &err)
{
    if (started_.exchange(true)) {
        err = "server already started";
        return false;
    }
    sys_ = std::make_unique<System>(opts_.sim);
    if (!listener_.listenOn(opts_.host, opts_.port, err))
        return false;
    if (!loop_.start(listener_.fd(), err))
        return false;
    const int n = opts_.workers < 1 ? 1 : opts_.workers;
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
}

std::uint16_t SimServer::port() const
{
    return listener_.port();
}

void SimServer::shutdown()
{
    if (!started_.load() || stopped_.exchange(true))
        return;
    // Ordering matters. (1) Flag the drain so request handlers answer
    // ShuttingDown; (2) stop accepting; (3) close the queue — workers
    // finish every already-admitted simulation, publish its result to
    // the waiting connections, then exit; (4) wait (CV, not a spin)
    // until the event loop has flushed every reply — structured error
    // replies included — then cut the sockets and stop the loop.
    draining_.store(true);
    loop_.stopAccepting();
    listener_.close();
    queue_.close();
    resumeWorkers(); // a paused pool must not deadlock the drain
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    // Every flight is resolved; its responses may still be queued or
    // buffered. The loop signals quiescence once nothing is pending
    // and every write buffer is empty, so no reply is ever truncated.
    loop_.waitQuiescent();
    loop_.closeAllConns();
    loop_.stop();
}

void SimServer::resumeWorkers()
{
    {
        LockGuard lock(pause_mu_);
        paused_ = false;
    }
    pause_cv_.notify_all();
}

void SimServer::waitUntilResumed()
{
    UniqueLock lock(pause_mu_);
    while (paused_)
        pause_cv_.wait(lock);
}

void SimServer::badFrameResponse(std::uint64_t, const std::string &err,
                                 SimResponse &rsp)
{
    // Corrupt/oversize/garbage frame: say why, then the loop hangs
    // up — the stream cannot be resynchronized.
    metrics_.noteBadRequest();
    rsp.status = SimStatus::BadRequest;
    rsp.error = err;
}

EventHandler::Dispatch SimServer::onRequest(std::uint64_t conn_id,
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

    std::string verr;
    if (!validateRequest(req, sys_->options(), verr)) {
        metrics_.noteBadRequest();
        rsp.status = SimStatus::BadRequest;
        rsp.error = verr;
        return replied();
    }

    // Control-plane kinds are answered inline — they must work even
    // when the admission queue is full or the server is draining.
    if (req.kind == SimRequestKind::Ping) {
        rsp.text = std::string(buildInfo()) + "\n";
        return replied();
    }
    if (req.kind == SimRequestKind::Metrics) {
        rsp.text = metrics_.renderText(*sys_, in_flight_.load(),
                                       queue_.size());
        return replied();
    }

    if (draining_.load()) {
        metrics_.noteRejectedShutdown();
        rsp.status = SimStatus::ShuttingDown;
        rsp.error = "server is draining";
        return replied();
    }

    // Single-flight: identical requests (deadline aside) coalesce onto
    // one Flight; only its creator enqueues work.
    const std::vector<std::uint8_t> key_bytes = flightKeyOf(req);
    const std::string key(key_bytes.begin(), key_bytes.end());
    std::shared_ptr<Flight> flight;
    bool created = false;
    {
        // Attach while still holding flights_mu_: publishFlight unmaps
        // a flight (under this lock) before it marks it done and takes
        // its waiters, so a flight found here cannot publish until
        // this waiter is on it. Attaching after the unlock let a
        // worker publish in between and strand the connection.
        LockGuard lock(flights_mu_);
        auto it = flights_.find(key);
        if (it != flights_.end()) {
            flight = it->second;
        } else {
            flight = std::make_shared<Flight>();
            flights_.emplace(key, flight);
            created = true;
        }
        {
            LockGuard plock(pending_mu_);
            pending_.emplace(conn_id, Pending{flight, key, t0});
        }
        LockGuard flock(flight->mu);
        flight->waiters.push_back(conn_id);
    }
    if (!created)
        metrics_.noteDedupHit();
    if (req.deadlineMs != 0)
        loop_.armDeadline(conn_id, req.deadlineMs);

    if (created) {
        Work work;
        work.flight = flight;
        work.request = std::move(req);
        work.key = key;
        if (!queue_.tryPush(std::move(work))) {
            // Admission failed. Other requests may already have
            // attached to this flight, so publish the rejection as the
            // flight's result instead of just erasing it — every
            // waiter (including this connection) receives the
            // structured reject and nobody waits on a flight that
            // never runs.
            SimResponse reject;
            if (draining_.load()) {
                metrics_.noteRejectedShutdown();
                reject.status = SimStatus::ShuttingDown;
                reject.error = "server is draining";
            } else {
                metrics_.noteRejectedOverload();
                reject.status = SimStatus::Overloaded;
                reject.error = "admission queue full (capacity " +
                               std::to_string(queue_.capacity()) +
                               "); retry later";
            }
            publishFlight(flight, key, reject);
        }
    }
    return Dispatch::Async;
}

void SimServer::onDeadline(std::uint64_t conn_id)
{
    std::shared_ptr<Flight> flight;
    Pending entry;
    bool last_waiter = false;
    {
        LockGuard lock(pending_mu_);
        auto it = pending_.find(conn_id);
        if (it == pending_.end())
            return; // answered in the same loop round
        flight = it->second.flight;
        {
            LockGuard flock(flight->mu);
            if (flight->done)
                return; // result published; delivery is on its way
            auto &w = flight->waiters;
            for (auto wit = w.begin(); wit != w.end(); ++wit) {
                if (*wit == conn_id) {
                    w.erase(wit);
                    break;
                }
            }
            last_waiter = w.empty();
        }
        entry = it->second;
        pending_.erase(it);
    }
    if (last_waiter) {
        // Nobody wants this result anymore: fire the token so the
        // cycle loop unwinds, and unmap the key immediately so a
        // fresh request starts a fresh (uncancelled) flight.
        flight->cancel.cancel();
        LockGuard lock(flights_mu_);
        auto it = flights_.find(entry.key);
        if (it != flights_.end() && it->second == flight)
            flights_.erase(it);
    }
    metrics_.noteDeadlineExpired();
    SimResponse rsp;
    rsp.status = SimStatus::DeadlineExceeded;
    rsp.error = "deadline expired before the simulation completed";
    finishRequest(conn_id, entry, rsp);
}

void SimServer::onConnClosed(std::uint64_t conn_id)
{
    // The peer vanished mid-flight: detach its waiter; if it was the
    // last one, cancel the simulation nobody is waiting for.
    std::shared_ptr<Flight> flight;
    std::string key;
    bool last_waiter = false;
    {
        LockGuard lock(pending_mu_);
        auto it = pending_.find(conn_id);
        if (it == pending_.end())
            return;
        flight = it->second.flight;
        key = it->second.key;
        {
            LockGuard flock(flight->mu);
            if (!flight->done) {
                auto &w = flight->waiters;
                for (auto wit = w.begin(); wit != w.end(); ++wit) {
                    if (*wit == conn_id) {
                        w.erase(wit);
                        break;
                    }
                }
                last_waiter = w.empty();
            }
        }
        pending_.erase(it);
    }
    if (last_waiter) {
        flight->cancel.cancel();
        LockGuard lock(flights_mu_);
        auto it = flights_.find(key);
        if (it != flights_.end() && it->second == flight)
            flights_.erase(it);
    }
}

void SimServer::finishRequest(std::uint64_t conn_id, const Pending &p,
                              const SimResponse &rsp)
{
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - p.t0)
                        .count();
    metrics_.sampleLatencyUs(static_cast<std::uint64_t>(us));
    metrics_.noteServed();
    loop_.postResponse(conn_id, rsp);
}

void SimServer::publishFlight(const std::shared_ptr<Flight> &flight,
                              const std::string &key,
                              const SimResponse &rsp)
{
    // Unmap BEFORE publishing: once a waiter sees its response it may
    // immediately send another identical request, and that one must
    // start a fresh flight (the System memo/store answers it
    // instantly) rather than attach to this finished one.
    {
        LockGuard lock(flights_mu_);
        auto it = flights_.find(key);
        if (it != flights_.end() && it->second == flight)
            flights_.erase(it);
    }
    std::vector<std::uint64_t> waiters;
    {
        LockGuard lock(flight->mu);
        flight->done = true;
        waiters.swap(flight->waiters);
    }
    for (std::uint64_t conn_id : waiters) {
        Pending entry;
        {
            LockGuard lock(pending_mu_);
            auto it = pending_.find(conn_id);
            if (it == pending_.end())
                continue; // deadline or disconnect beat us to it
            entry = it->second;
            pending_.erase(it);
        }
        finishRequest(conn_id, entry, rsp);
    }
}

void SimServer::workerLoop()
{
    waitUntilResumed();
    Work work;
    while (queue_.pop(work)) {
        in_flight_.fetch_add(1);
        SimResponse rsp;
        if (work.flight->cancel.cancelled()) {
            // Every waiter timed out while this sat in the queue;
            // don't burn a simulation nobody is waiting for.
            rsp.status = SimStatus::DeadlineExceeded;
            rsp.error = "cancelled before execution";
        } else {
            try {
                rsp = runRequest(*sys_, work.request,
                                 &work.flight->cancel);
            } catch (const Cancelled &) {
                rsp.status = SimStatus::DeadlineExceeded;
                rsp.error = "cancelled mid-run after every waiter's "
                            "deadline expired";
            } catch (const std::exception &e) {
                rsp.status = SimStatus::Internal;
                rsp.error = e.what();
            }
            // A request counts as a simulation only when its run
            // computed an artifact; one served wholly from the memo or
            // the store ran none. Counted before publishing, so a
            // waiter that has its reply sees the count.
            if (work.flight->cancel.computed() != 0)
                metrics_.noteSimulationRun();
        }
        publishFlight(work.flight, work.key, rsp);
        in_flight_.fetch_sub(1);
    }
}

} // namespace th
