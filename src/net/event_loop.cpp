#include "net/event_loop.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "io/serialize.h"
#include "net/protocol.h"

namespace th {

namespace {

/** epoll user-data ids of the two non-connection descriptors. */
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;

bool setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Little-endian u32 at @p p (the chunk header's length field). */
std::uint32_t readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

EventLoop::EventLoop(EventHandler &handler, std::string build)
    : handler_(handler), build_(std::move(build))
{
    // Precompute this side's container header + HELO so accepting a
    // connection is one buffer append. Built with the real ChunkWriter
    // so the bytes are identical to the thread-per-connection era.
    MemSink sink;
    ChunkWriter writer(sink);
    writer.begin(kServerFormatTag, kWireSchemaVersion);
    Encoder enc;
    enc.str(build_);
    writer.chunk(kHelloTag, enc);
    hello_bytes_ = sink.data();
}

EventLoop::~EventLoop()
{
    stop();
}

bool EventLoop::start(int listen_fd, std::string &err)
{
    if (running_.exchange(true)) {
        err = "event loop already started";
        return false;
    }
    listen_fd_ = listen_fd;
    if (!setNonBlocking(listen_fd_)) {
        err = std::string("fcntl(listener): ") + std::strerror(errno);
        return false;
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        err = std::string("epoll_create1: ") + std::strerror(errno);
        return false;
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
        err = std::string("eventfd: ") + std::strerror(errno);
        ::close(epoll_fd_);
        epoll_fd_ = -1;
        return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
        err = std::string("epoll_ctl(listener): ") + std::strerror(errno);
        return false;
    }
    ev.data.u64 = kWakeId;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
        err = std::string("epoll_ctl(wake): ") + std::strerror(errno);
        return false;
    }
    accepting_ = true;
    thread_ = std::thread([this] { loop(); });
    return true;
}

void EventLoop::stopAccepting()
{
    LockGuard lock(ops_mu_);
    ops_.push_back(Op{Op::Kind::StopAccept, 0, SimResponse{}});
    wake();
}

void EventLoop::postResponse(std::uint64_t conn_id, SimResponse rsp)
{
    LockGuard lock(ops_mu_);
    ops_.push_back(Op{Op::Kind::Response, conn_id, std::move(rsp)});
    wake();
}

void EventLoop::closeAllConns()
{
    LockGuard lock(ops_mu_);
    ops_.push_back(Op{Op::Kind::CloseAll, 0, SimResponse{}});
    wake();
}

void EventLoop::armDeadline(std::uint64_t conn_id, std::uint32_t ms)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    timers_.push_back(Timer{std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(ms),
                            conn_id, it->second->generation});
}

void EventLoop::waitQuiescent()
{
    if (!running_.load())
        return;
    UniqueLock lock(quiesce_mu_);
    ++quiesce_waiters_;
    quiescent_ = false;
    wake(); // the loop re-evaluates and answers via quiesce_cv_
    while (!quiescent_ && running_.load())
        quiesce_cv_.wait(lock);
    --quiesce_waiters_;
}

void EventLoop::stop()
{
    if (!running_.load() || stopped_.exchange(true))
        return;
    running_.store(false);
    {
        // A drain waiter must not outlive the loop thread.
        LockGuard lock(quiesce_mu_);
        quiescent_ = true;
    }
    quiesce_cv_.notify_all();
    wake();
    if (thread_.joinable())
        thread_.join();
    conns_.clear();
    conn_count_.store(0);
    if (wake_fd_ >= 0) {
        ::close(wake_fd_);
        wake_fd_ = -1;
    }
    if (epoll_fd_ >= 0) {
        ::close(epoll_fd_);
        epoll_fd_ = -1;
    }
}

void EventLoop::wake()
{
    if (wake_fd_ < 0)
        return;
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

int EventLoop::timeoutMs() const
{
    if (timers_.empty())
        return -1;
    auto next = timers_.front().when;
    for (const Timer &t : timers_)
        if (t.when < next)
            next = t.when;
    const auto now = std::chrono::steady_clock::now();
    if (next <= now)
        return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        next - now)
                        .count();
    return static_cast<int>(ms) + 1;
}

void EventLoop::loop()
{
    epoll_event events[64];
    while (running_.load()) {
        runOps();
        fireTimers();
        checkQuiescent();
        if (!running_.load())
            break;
        const int n =
            ::epoll_wait(epoll_fd_, events, 64, timeoutMs());
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t id = events[i].data.u64;
            if (id == kWakeId) {
                std::uint64_t drain;
                while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
                }
                continue;
            }
            if (id == kListenerId) {
                if (accepting_)
                    acceptReady();
                continue;
            }
            auto it = conns_.find(id);
            if (it == conns_.end())
                continue; // destroyed by an earlier event this round
            Conn &c = *it->second;
            if (events[i].events & (EPOLLERR | EPOLLHUP)) {
                destroyConn(id, true);
                continue;
            }
            if (events[i].events & EPOLLOUT)
                writeReady(c);
            // writeReady may destroy (flush error / close-after-flush).
            if (conns_.find(id) == conns_.end())
                continue;
            if (events[i].events & EPOLLIN)
                readReady(c);
        }
    }
}

void EventLoop::acceptReady()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or listener gone
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        auto conn = std::make_unique<Conn>();
        conn->id = next_conn_id_++;
        conn->sock = Socket(fd);
        conn->outbuf = hello_bytes_; // both sides send before reading
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0)
            continue; // RAII closes the socket
        const std::uint64_t id = conn->id;
        conns_.emplace(id, std::move(conn));
        conn_count_.fetch_add(1);
        Conn &c = *conns_[id];
        flush(c);
        if (conns_.find(id) != conns_.end())
            updateInterest(c);
    }
}

void EventLoop::readReady(Conn &c)
{
    const std::uint64_t id = c.id;
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
            c.inbuf.insert(c.inbuf.end(), buf, buf + n);
            continue;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            destroyConn(id, true); // reset / transport error
            return;
        }
        // n == 0: orderly EOF. The peer may have half-closed after its
        // last request; any pending reply is still deliverable, so the
        // connection lives until its write side is drained.
        c.reading = false;
        c.close_after_flush = true;
        break;
    }
    parseFrames(c);
    if (conns_.find(id) == conns_.end())
        return;
    if (!connBusy(c) && c.close_after_flush) {
        destroyConn(id, false);
        return;
    }
    updateInterest(c);
}

void EventLoop::parseFrames(Conn &c)
{
    const std::uint64_t id = c.id;
    std::size_t off = 0;
    bool destroyed = false;
    while (!c.pending) {
        const std::size_t avail = c.inbuf.size() - off;
        if (!c.header_done) {
            if (avail < 16)
                break;
            MemSource src(c.inbuf.data() + off, 16);
            ChunkReader reader(src);
            std::uint32_t schema = 0;
            std::string err;
            if (!reader.readHeader(kServerFormatTag, schema, err) ||
                schema != kWireSchemaVersion) {
                // Handshake failure: the peer is not speaking our
                // protocol version; hang up without a reply.
                destroyConn(id, false);
                destroyed = true;
                break;
            }
            c.header_done = true;
            off += 16;
            continue;
        }
        if (avail < 12)
            break;
        const std::uint32_t len = readLe32(c.inbuf.data() + off + 4);
        if (len > kMaxRequestBytes) {
            // Reject the declared length before buffering it: the
            // hostile-length defence must hold per frame, not per read.
            SimResponse rsp;
            handler_.badFrameResponse(
                id, "request frame of " + std::to_string(len) +
                        " bytes exceeds cap " +
                        std::to_string(kMaxRequestBytes),
                rsp);
            enqueueResponse(c, rsp);
            c.reading = false;
            c.close_after_flush = true;
            break;
        }
        if (avail < 12 + static_cast<std::size_t>(len))
            break;
        MemSource src(c.inbuf.data() + off, 12 + len);
        ChunkReader reader(src);
        reader.setMaxChunkBytes(kMaxRequestBytes);
        std::string tag, err;
        std::vector<std::uint8_t> payload;
        const ChunkReader::Next r = reader.next(tag, payload, err);
        off += 12 + len;
        if (!c.hello_done) {
            // First chunk must be the peer's HELO.
            Decoder dec(payload);
            const std::string peer_build = dec.str();
            if (r != ChunkReader::Next::Chunk || tag != kHelloTag ||
                !dec.ok()) {
                destroyConn(id, false);
                destroyed = true;
                break;
            }
            c.hello_done = true;
            continue;
        }
        SimRequest req;
        std::string bad;
        if (r != ChunkReader::Next::Corrupt && tag != kRequestTag)
            bad = "expected chunk '" + std::string(kRequestTag) +
                  "', got '" + tag + "'";
        else if (r == ChunkReader::Next::Corrupt)
            bad = err;
        else {
            Decoder dec(payload);
            if (!decodeSimRequest(dec, req) || !dec.atEnd())
                bad = "malformed request payload";
        }
        if (!bad.empty()) {
            // The stream cannot be resynchronized past a bad frame:
            // say why, then hang up once the reply is flushed. The
            // connection counts as busy for the whole reply write, so
            // a concurrent drain waits instead of truncating it.
            SimResponse rsp;
            handler_.badFrameResponse(id, bad, rsp);
            enqueueResponse(c, rsp);
            c.reading = false;
            c.close_after_flush = true;
            break;
        }
        c.pending = true;
        ++c.generation;
        SimResponse rsp;
        const EventHandler::Dispatch d =
            handler_.onRequest(id, std::move(req), rsp);
        if (d == EventHandler::Dispatch::Reply) {
            c.pending = false;
            ++c.generation;
            enqueueResponse(c, rsp);
        }
        // Async: stop parsing; EPOLLIN is disarmed by updateInterest
        // until the response is posted, so a pipelining client cannot
        // grow the input buffer unboundedly.
    }
    if (destroyed)
        return;
    if (off > 0)
        c.inbuf.erase(c.inbuf.begin(),
                      c.inbuf.begin() + static_cast<std::ptrdiff_t>(off));
    flush(c);
}

void EventLoop::enqueueResponse(Conn &c, const SimResponse &rsp)
{
    MemSink sink;
    ChunkWriter writer(sink);
    Encoder enc;
    encodeSimResponse(enc, rsp);
    writer.chunk(kResponseTag, enc);
    c.outbuf.insert(c.outbuf.end(), sink.data().begin(), sink.data().end());
}

void EventLoop::flush(Conn &c)
{
    const std::uint64_t id = c.id;
    while (c.out_off < c.outbuf.size()) {
        const ssize_t n =
            ::send(c.sock.fd(), c.outbuf.data() + c.out_off,
                   c.outbuf.size() - c.out_off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return; // writability will resume the flush
            destroyConn(id, true);
            return;
        }
        c.out_off += static_cast<std::size_t>(n);
    }
    c.outbuf.clear();
    c.out_off = 0;
    if (c.close_after_flush && !c.pending)
        destroyConn(id, false);
}

void EventLoop::writeReady(Conn &c)
{
    flush(c);
    if (conns_.find(c.id) != conns_.end())
        updateInterest(c);
}

void EventLoop::updateInterest(Conn &c)
{
    std::uint32_t events = 0;
    if (c.reading && !c.pending)
        events |= EPOLLIN;
    const bool want_write = c.out_off < c.outbuf.size();
    if (want_write)
        events |= EPOLLOUT;
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = c.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.sock.fd(), &ev);
    c.want_write = want_write;
}

void EventLoop::destroyConn(std::uint64_t id, bool notify_handler)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    const bool was_pending = it->second->pending;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->sock.fd(), nullptr);
    conns_.erase(it);
    conn_count_.fetch_sub(1);
    if (notify_handler && was_pending)
        handler_.onConnClosed(id);
}

void EventLoop::runOps()
{
    std::vector<Op> ops;
    {
        LockGuard lock(ops_mu_);
        ops.swap(ops_);
    }
    for (Op &op : ops) {
        switch (op.kind) {
        case Op::Kind::StopAccept:
            if (accepting_) {
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
                accepting_ = false;
            }
            break;
        case Op::Kind::CloseAll: {
            std::vector<std::uint64_t> ids;
            ids.reserve(conns_.size());
            for (const auto &kv : conns_)
                ids.push_back(kv.first);
            for (std::uint64_t id : ids) {
                auto it = conns_.find(id);
                if (it == conns_.end())
                    continue;
                it->second->sock.shutdownBoth();
                destroyConn(id, true);
            }
            break;
        }
        case Op::Kind::Response: {
            auto it = conns_.find(op.conn_id);
            if (it == conns_.end())
                break; // connection died while the work ran
            Conn &c = *it->second;
            if (!c.pending)
                break; // duplicate completion; first one won
            c.pending = false;
            ++c.generation; // a stale deadline timer must not fire
            enqueueResponse(c, op.rsp);
            // The reply may unblock the next buffered request.
            parseFrames(c);
            if (conns_.find(op.conn_id) == conns_.end())
                break;
            if (!connBusy(c) && c.close_after_flush) {
                destroyConn(op.conn_id, false);
                break;
            }
            updateInterest(c);
            break;
        }
        }
    }
}

void EventLoop::fireTimers()
{
    if (timers_.empty())
        return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<Timer> keep;
    std::vector<std::uint64_t> fire;
    keep.reserve(timers_.size());
    for (const Timer &t : timers_) {
        auto it = conns_.find(t.conn_id);
        const bool live = it != conns_.end() && it->second->pending &&
                          it->second->generation == t.generation;
        if (!live)
            continue; // answered or closed; the timer is stale
        if (t.when <= now)
            fire.push_back(t.conn_id);
        else
            keep.push_back(t);
    }
    timers_.swap(keep);
    for (std::uint64_t id : fire)
        handler_.onDeadline(id);
}

bool EventLoop::connBusy(const Conn &c) const
{
    return c.pending || c.out_off < c.outbuf.size();
}

void EventLoop::checkQuiescent()
{
    {
        LockGuard lock(quiesce_mu_);
        if (quiesce_waiters_ == 0)
            return;
    }
    bool busy;
    {
        LockGuard lock(ops_mu_);
        busy = !ops_.empty();
    }
    if (!busy)
        for (const auto &kv : conns_)
            if (connBusy(*kv.second)) {
                busy = true;
                break;
            }
    if (busy)
        return;
    {
        LockGuard lock(quiesce_mu_);
        quiescent_ = true;
    }
    quiesce_cv_.notify_all();
}

} // namespace th
