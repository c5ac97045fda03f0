/**
 * @file
 * The serve workload. The benchmark spawns th_serve itself (2 workers,
 * one store), then one client process — this one — drives it over 2
 * closed-loop connections: each sends its next Core request only after
 * the previous reply. An operation is one block of 21 requests. The
 * first connection sends 19 warm requests drawn from a pool of 8 keys
 * primed before the blocks, then one fresh key. The second connection
 * sends the same fresh key, either 2 ms after the first (single-flight
 * dedup onto the running simulation) or after its reply (memo hit),
 * alternately. The block ends when both have their reply. Every reply
 * must be Ok and identical to every other reply for its key, and a
 * sample must equal a local run.
 *
 * A round starts a fresh server on an empty store, primes the pool, and
 * runs one block per fresh key, so each block repeats once per round
 * and gets a fastest time like a batch input (RunResult::bestMs). The
 * keys are fixed; the seed draws the blocks' order and warm draws.
 *
 * Why blocks, not requests: a warm request takes about 50 us, most of
 * it thread wake-ups across CPUs, and its median moved from 0.06 to
 * 0.10 ms when one batch job ran beside it on the host. A block's time
 * is mostly the server's simulation of its fresh key; the warm and
 * fresh latencies are per-layer metrics (net.*).
 *
 * The stream never sends one key on both connections near the moment
 * its flight completes. SimServer::onRequest attaches a waiter to an
 * existing flight after releasing flights_mu_; when publishFlight runs
 * in between, that waiter is never answered and its client blocks
 * forever. So warm requests use one connection only, and a fresh key
 * reaches the second connection 2 ms into a simulation that lasts tens
 * of ms, or after the reply. A watchdog kills the server if a call
 * stalls anyway, which turns a hang into counted failures.
 */

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "io/chunkio.h"
#include "io/serialize.h"
#include "net/client.h"
#include "sim/configs.h"
#include "sim/report.h"
#include "sim/system.h"
#include "workloads.h"

extern char **environ;

namespace bench {

namespace {

using namespace th;

/** The server's simulation window (requests send 0 = the server's). */
constexpr std::uint64_t kServeInsts = 40000;
constexpr std::uint64_t kServeWarmup = 20000;

/** Warm requests per block, before its fresh key. */
constexpr std::size_t kWarmPerBlock = 19;
constexpr int kConnections = 2;
/** Keys compared against a local run after the window. */
constexpr std::size_t kLocalChecks = 4;
/** Timed rounds a run completes at least, whatever its window. */
constexpr int kMinRounds = 3;
/** Head start of the first connection on a deduplicated fresh key. */
constexpr auto kDedupLag = std::chrono::milliseconds(2);
/** A call outstanding this long is a hung server. */
constexpr double kStallS = 30.0;

/** A th_serve child process; stopped (SIGTERM, then SIGKILL) on drop. */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** Spawn and wait for the "listening on" line. */
    bool start(const std::string &bin, const std::vector<std::string> &args,
               std::string &err)
    {
        int fds[2];
        if (::pipe(fds) != 0) {
            err = "pipe failed";
            return false;
        }
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(bin.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        pid_t pid = -1;
        const int rc = posix_spawn(&pid, bin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        if (rc != 0) {
            ::close(fds[0]);
            err = "cannot spawn " + bin + ": " + std::strerror(rc);
            return false;
        }
        pid_ = pid;
        out_ = fds[0];
        return readPort(err);
    }

    std::uint16_t port() const { return port_; }
    long pid() const { return pid_; }

    /** SIGKILL without reaping (safe from a watchdog thread). */
    void kill() const
    {
        if (pid_ > 0)
            ::kill(pid_, SIGKILL);
    }

    void stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            int status = 0;
            const Clock::time_point t0 = Clock::now();
            while (::waitpid(pid_, &status, WNOHANG) == 0) {
                if (secondsSince(t0) > 15.0) {
                    ::kill(pid_, SIGKILL);
                    ::waitpid(pid_, &status, 0);
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            pid_ = -1;
        }
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

  private:
    bool readPort(std::string &err)
    {
        static constexpr char kTag[] = "listening on ";
        std::string buf;
        const Clock::time_point t0 = Clock::now();
        while (secondsSince(t0) < 30.0) {
            pollfd p{out_, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char chunk[512];
            const ssize_t n = ::read(out_, chunk, sizeof chunk);
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
            const std::size_t at = buf.find(kTag);
            if (at == std::string::npos ||
                buf.find('\n', at) == std::string::npos)
                continue;
            const std::size_t from = at + std::strlen(kTag);
            const std::string addr =
                buf.substr(from, buf.find(' ', from) - from);
            port_ = static_cast<std::uint16_t>(
                std::atoi(addr.c_str() + addr.rfind(':') + 1));
            return port_ != 0;
        }
        err = "th_serve did not report a listening port: " + buf;
        return false;
    }

    pid_t pid_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
};

struct Key
{
    std::string bench;
    ConfigKind kind = ConfigKind::Base;

    std::string name() const { return bench + '|' + configName(kind); }
};

/** The warm pool: primed at the start of every round. */
const std::vector<Key> kWarmPool = {
    {"gzip", ConfigKind::Base},      {"gcc", ConfigKind::ThreeD},
    {"art", ConfigKind::TH},         {"jpeg", ConfigKind::Pipe},
    {"sha", ConfigKind::Fast},       {"bc", ConfigKind::ThreeDNoTH},
    {"doom", ConfigKind::Base},      {"hmmer", ConfigKind::ThreeD},
};

/** One fresh key per block: one benchmark per suite, every config. */
const std::vector<Key> kFreshKeys = {
    {"crafty", ConfigKind::Base},    {"mcf", ConfigKind::ThreeD},
    {"swim", ConfigKind::TH},        {"mpeg2enc", ConfigKind::Pipe},
    {"patricia", ConfigKind::Fast},  {"yacr2", ConfigKind::ThreeDNoTH},
    {"quake", ConfigKind::ThreeD},   {"blast", ConfigKind::Base},
};

SimRequest
coreRequest(const Key &k)
{
    SimRequest req;
    req.kind = SimRequestKind::Core;
    req.benchmarks = {k.bench};
    req.config = configName(k.kind);
    return req;
}

/** The seed's blocks: fresh keys in a drawn order, each with its warm
 *  draws. Even blocks deduplicate their fresh key onto the running
 *  simulation; odd ones send it again after the reply (memo). */
struct Block
{
    Key fresh;
    bool dedup = false;
    std::vector<std::size_t> warm;
};

std::vector<Block>
makeBlocks(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
    std::vector<Key> keys = kFreshKeys;
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[rng.range(i)]);
    std::vector<Block> blocks;
    for (std::size_t b = 0; b < keys.size(); ++b) {
        Block blk;
        blk.fresh = keys[b];
        blk.dedup = b % 2 == 0;
        for (std::size_t j = 0; j < kWarmPerBlock; ++j)
            blk.warm.push_back(rng.range(kWarmPool.size()));
        blocks.push_back(blk);
    }
    return blocks;
}

std::vector<std::string>
serverArgs(const std::string &store)
{
    return {"--insts",  std::to_string(kServeInsts),
            "--warmup", std::to_string(kServeWarmup),
            "--store",  store,
            "--port",   "0",
            "--workers", "2"};
}

/** "key value" lines of a metrics snapshot. */
std::map<std::string, double>
parseMetrics(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream is(text);
    std::string key;
    double v = 0.0;
    while (is >> key >> v)
        out[key] = v;
    return out;
}

double
metric(const std::map<std::string, double> &m, const std::string &name)
{
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
}

/** encodeSimRequest + decodeSimResponse of one exchange, microseconds. */
double
wireCodecUs(const SimRequest &req, const SimResponse &rsp)
{
    Encoder renc;
    encodeSimResponse(renc, rsp);
    const std::vector<std::uint8_t> rsp_bytes = renc.data();
    constexpr int kRounds = 2000;
    const Clock::time_point t0 = Clock::now();
    std::size_t sink = 0;
    for (int i = 0; i < kRounds; ++i) {
        Encoder enc;
        encodeSimRequest(enc, req);
        Decoder dec(rsp_bytes);
        SimResponse out;
        decodeSimResponse(dec, out);
        sink += enc.data().size() + out.text.size();
    }
    const double us = secondsSince(t0) * 1e6 / kRounds;
    return sink > 0 ? us : 0.0;
}

class ServeRun
{
  public:
    ServeRun(const RunOptions &opts, Tracer &tr, RunResult &out)
        : opts_(opts), tr_(tr), out_(out), blocks_(makeBlocks(opts.seed))
    {
    }

    ~ServeRun() { stopServer(); }

    ServeRun(const ServeRun &) = delete;
    ServeRun &operator=(const ServeRun &) = delete;

    /**
     * Round 0 warms up and is not timed; then whole rounds, at least
     * kMinRounds, stopping at the round whose end lies nearest the
     * window's. A traced run traces the rounds that start in the second
     * half of its window; the first half is the untraced reference.
     */
    void run()
    {
        noteProgress();
        const WatchdogThread watch(*this);
        Partner partner(*this);
        if (!round(0, false, false))
            return;
        const Clock::time_point w0 = Clock::now();
        for (int r = 1;; ++r) {
            const Clock::time_point r0 = Clock::now();
            const bool traced =
                opts_.traced && secondsSince(w0) >= opts_.seconds / 2;
            if (!round(r, true, traced))
                return;
            if (r >= kMinRounds &&
                secondsSince(w0) + 0.5 * secondsSince(r0) >= opts_.seconds)
                break;
        }
        out_.windowS = secondsSince(w0);
        afterRounds();
    }

  private:
    /** Runs watchdog() on its own thread for its lifetime. */
    class WatchdogThread
    {
      public:
        explicit WatchdogThread(ServeRun &run)
            : run_(run), thread_([this] { run_.watchdog(); })
        {
        }
        ~WatchdogThread()
        {
            run_.watch_stop_.store(true);
            thread_.join();
        }

        WatchdogThread(const WatchdogThread &) = delete;
        WatchdogThread &operator=(const WatchdogThread &) = delete;

      private:
        ServeRun &run_;
        std::thread thread_;
    };

    /**
     * The second connection's thread: runs each fresh-key call the
     * first connection hands it, one at a time. Registers itself with
     * the run for its lifetime.
     */
    class Partner
    {
      public:
        explicit Partner(ServeRun &run)
            : run_(run), thread_([this] { loop(); })
        {
            run_.partner_ = this;
        }
        ~Partner()
        {
            run_.partner_ = nullptr;
            {
                th::LockGuard lock(mu_);
                stop_ = true;
            }
            cv_.notify_all();
            thread_.join();
        }

        Partner(const Partner &) = delete;
        Partner &operator=(const Partner &) = delete;

        /** Send @p k on connection 1, after kDedupLag if @p lag. */
        void submit(const Key &k, bool lag, int parent)
        {
            {
                th::LockGuard lock(mu_);
                key_ = k;
                lag_ = lag;
                parent_ = parent;
                pending_ = true;
            }
            cv_.notify_all();
        }

        /** Wait for the submitted call; its outcome. */
        bool wait()
        {
            th::UniqueLock lock(mu_);
            while (pending_)
                cv_.wait(lock);
            return ok_;
        }

      private:
        void loop()
        {
            th::UniqueLock lock(mu_);
            for (;;) {
                while (!pending_ && !stop_)
                    cv_.wait(lock);
                if (stop_)
                    return;
                const Key k = key_;
                const bool lag = lag_;
                const int parent = parent_;
                lock.unlock();
                if (lag)
                    std::this_thread::sleep_for(kDedupLag);
                const bool ok = run_.request(1, k, parent, nullptr);
                lock.lock();
                ok_ = ok;
                pending_ = false;
                cv_.notify_all();
            }
        }

        ServeRun &run_;
        th::Mutex mu_;
        /// _any variant: waits on the annotated th::UniqueLock.
        std::condition_variable_any cv_;
        Key key_ TH_GUARDED_BY(mu_);
        bool lag_ TH_GUARDED_BY(mu_) = false;
        int parent_ TH_GUARDED_BY(mu_) = -1;
        bool pending_ TH_GUARDED_BY(mu_) = false;
        bool ok_ TH_GUARDED_BY(mu_) = true;
        bool stop_ TH_GUARDED_BY(mu_) = false;
        std::thread thread_;
    };

    /**
     * Start a server on a fresh store and connect both clients: one
     * set-up sample. False (with the failure counted) if it cannot.
     */
    bool startServer(int r)
    {
        store_ = opts_.workDir + "/store-" + std::to_string(r);
        const Clock::time_point t0 = Clock::now();
        std::string err;
        auto proc = std::make_unique<ServerProcess>();
        bool ok = proc->start(BENCH_E2E_TH_SERVE, serverArgs(store_), err);
        const std::uint16_t port = proc->port();
        server_pid_ = proc->pid();
        {
            th::LockGuard lock(server_mu_);
            server_ = std::move(proc);
        }
        for (int c = 0; ok && c < kConnections; ++c)
            ok = clients_[c].connect("127.0.0.1", port, err);
        if (!out_.check(ok, "server set-up: " + err))
            return false;
        out_.setupS.push_back(secondsSince(t0));
        return true;
    }

    void stopServer()
    {
        for (SimClient &c : clients_)
            c.close();
        std::unique_ptr<ServerProcess> proc;
        {
            th::LockGuard lock(server_mu_);
            proc = std::move(server_);
        }
        proc.reset();
        std::error_code ec;
        if (!store_.empty())
            std::filesystem::remove_all(store_, ec);
    }

    /**
     * One round on a fresh server: prime the warm pool, run every
     * block, and (timed) record each block as an op on its input.
     */
    bool round(int r, bool timed, bool traced)
    {
        if (!startServer(r))
            return false;
        prime();
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            const Clock::time_point t0 = Clock::now();
            int failed = 0;
            if (traced) {
                ScopedSpan op(tr_, "op");
                failed = block(blocks_[b], op.id(), timed);
            } else {
                failed = block(blocks_[b], -1, timed);
            }
            const double ms = secondsSince(t0) * 1e3;
            out_.failed += static_cast<std::uint64_t>(failed);
            if (timed) {
                out_.addOp(b, ms);
                (traced ? traced_ops_ : untraced_ops_).push_back(ms);
            }
        }
        if (timed) {
            snapshot();
            server_rss_mb_.push_back(peakRssMb(server_pid_));
        }
        stopServer();
        return true;
    }

    /** Both connections simulate half the warm pool each. */
    void prime()
    {
        std::vector<std::thread> threads;
        std::vector<int> failures(kConnections, 0);
        for (int c = 0; c < kConnections; ++c) {
            threads.emplace_back([this, c, &failures] {
                for (std::size_t i = static_cast<std::size_t>(c);
                     i < kWarmPool.size(); i += kConnections)
                    if (!request(c, kWarmPool[i], -1, nullptr))
                        ++failures[static_cast<std::size_t>(c)];
            });
        }
        for (std::thread &t : threads)
            t.join();
        for (int f : failures)
            out_.check(f == 0, "priming the warm pool");
    }

    /**
     * One block: its warm requests on connection 0, then the fresh key
     * on both connections. Returns the failed requests.
     */
    int block(const Block &blk, int parent, bool timed)
    {
        int failed = 0;
        for (const std::size_t w : blk.warm) {
            double ms = 0.0;
            failed += request(0, kWarmPool[w], parent, &ms) ? 0 : 1;
            if (timed)
                warm_ms_.push_back(ms);
        }
        if (blk.dedup)
            partner_->submit(blk.fresh, true, parent);
        double ms = 0.0;
        failed += request(0, blk.fresh, parent, &ms) ? 0 : 1;
        if (timed)
            fresh_ms_.push_back(ms);
        if (!blk.dedup)
            partner_->submit(blk.fresh, false, parent);
        failed += partner_->wait() ? 0 : 1;
        out_.attempted += kWarmPerBlock + 2;
        return failed;
    }

    /** Record @p text as @p key's reply, or check it equals the first. */
    bool sameReply(const std::string &key, const std::string &text)
    {
        th::LockGuard lock(mu_);
        auto [it, fresh] = replies_.emplace(key, text);
        return fresh || it->second == text;
    }

    /** The first reply recorded for @p k ("" if none). */
    std::string reply(const Key &k)
    {
        th::LockGuard lock(mu_);
        const auto it = replies_.find(k.name());
        return it == replies_.end() ? std::string() : it->second;
    }

    /**
     * Kill the server if calls are in flight and none has completed for
     * kStallS: a blocked client then fails instead of hanging the run.
     */
    void watchdog()
    {
        bool fired = false;
        while (!watch_stop_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            const double idle =
                std::chrono::duration<double>(
                    Clock::now().time_since_epoch()).count() -
                last_progress_s_.load();
            if (!fired && inflight_.load() > 0 && idle > kStallS) {
                std::fprintf(stderr, "bench_e2e: no reply for %.0f s; "
                                     "killing the server\n", idle);
                th::LockGuard lock(server_mu_);
                if (server_)
                    server_->kill();
                fired = true;
            }
        }
    }

    void noteProgress()
    {
        last_progress_s_.store(std::chrono::duration<double>(
                                   Clock::now().time_since_epoch())
                                   .count());
    }

    /**
     * One Core request for @p k on connection @p conn, under a
     * net.request span of @p parent when tracing (parent >= 0); its
     * latency goes to @p ms. False on a transport error, a non-Ok reply
     * or a reply that differs from an earlier one for the key.
     */
    bool request(int conn, const Key &k, int parent, double *ms)
    {
        const int span = parent >= 0 ? tr_.begin("net.request", parent) : -1;
        SimResponse rsp;
        std::string err;
        const Clock::time_point t0 = Clock::now();
        ++inflight_;
        const bool sent = clients_[conn].call(coreRequest(k), rsp, err);
        noteProgress();
        --inflight_;
        if (ms != nullptr)
            *ms = secondsSince(t0) * 1e3;
        tr_.end(span);
        if (!sent || rsp.status != SimStatus::Ok) {
            std::fprintf(stderr, "bench_e2e: %s: %s\n", k.name().c_str(),
                         sent ? rsp.error.c_str() : err.c_str());
            return false;
        }
        if (!sameReply(k.name(), rsp.text)) {
            std::fprintf(stderr, "bench_e2e: %s: reply differs from an "
                                 "earlier reply for the same key\n",
                         k.name().c_str());
            return false;
        }
        return true;
    }

    /** The round's server counters (the last timed round's are kept). */
    void snapshot()
    {
        SimRequest mreq;
        mreq.kind = SimRequestKind::Metrics;
        SimResponse mrsp;
        std::string err;
        if (!out_.check(clients_[0].call(mreq, mrsp, err) &&
                            mrsp.status == SimStatus::Ok,
                        "metrics snapshot " + err))
            return;
        const auto m = parseMetrics(mrsp.text);
        Counters &p = out_.probes;
        p.set("net.server_p50_us_le", metric(m, "latency_p50_us_le"));
        p.set("net.server_p99_us_le", metric(m, "latency_p99_us_le"));
        for (const char *name :
             {"simulations_run", "dedup_hits", "rejected_overload"})
            p.set(std::string("net.") + name, metric(m, name));
        p.set("core.cache_hits", metric(m, "core_cache_hits"));
        p.set("core.cache_misses", metric(m, "core_cache_misses"));
        p.set("store.hits", metric(m, "store_hits"));
        p.set("store.misses", metric(m, "store_misses"));
        p.set("store.stores", metric(m, "store_stores"));
    }

    void afterRounds()
    {
        // The last round's server alone spread 8% (IQR / median) over 10
        // runs; the median over rounds, 4%.
        out_.peakRssMb = median(server_rss_mb_);
        Counters &p = out_.probes;
        std::sort(warm_ms_.begin(), warm_ms_.end());
        p.set("net.warm_p50_ms", median(warm_ms_));
        p.set("net.warm_p99_ms", nearestRank(warm_ms_, 99.0));
        p.set("net.cold_p50_ms", median(fresh_ms_));
        if (opts_.traced) {
            out_.tracedOps = static_cast<int>(traced_ops_.size());
            out_.tracedOpMs.push_back(median(traced_ops_));
            out_.untracedRefMs.push_back(median(untraced_ops_));
            SimResponse rsp;
            rsp.text = reply(kWarmPool[0]);
            p.set("io.wire_codec_us",
                  wireCodecUs(coreRequest(kWarmPool[0]), rsp));
        }

        // Served equals local on a sample of the warm pool.
        SimOptions so;
        so.instructions = kServeInsts;
        so.warmupInstructions = kServeWarmup;
        System local(so);
        const std::size_t n = std::min(kLocalChecks, kWarmPool.size());
        const std::vector<std::string> texts =
            ThreadPool::global().parallelMap(n, [&](std::size_t i) {
                const Key &k = kWarmPool[i];
                return renderCoreRun(k.bench, configName(k.kind),
                                     local.runCore(k.bench, k.kind));
            });
        for (std::size_t i = 0; i < n; ++i)
            out_.check(sameReply(kWarmPool[i].name(), texts[i]),
                       "served reply equals a local run for " +
                           kWarmPool[i].name());

        std::uint64_t h = fnv1a("");
        {
            th::LockGuard lock(mu_);
            for (const auto &[k, v] : replies_)
                h = fnv1a(k + '\n' + v + '\n', h);
        }
        out_.digest = hex64(h);
        if (!opts_.goldenDigest.empty())
            out_.check(out_.digest == opts_.goldenDigest,
                       "reply digest " + out_.digest + " != golden " +
                           opts_.goldenDigest);
    }

    const RunOptions &opts_;
    Tracer &tr_;
    RunResult &out_;
    const std::vector<Block> blocks_;
    std::string store_;
    SimClient clients_[kConnections];
    Partner *partner_ = nullptr;
    long server_pid_ = -1;

    /** The current round's server; the watchdog may kill it. */
    th::Mutex server_mu_;
    std::unique_ptr<ServerProcess> server_ TH_GUARDED_BY(server_mu_);

    th::Mutex mu_;
    /** First reply per key; every later reply must equal it. */
    std::map<std::string, std::string> replies_ TH_GUARDED_BY(mu_);

    std::vector<double> warm_ms_, fresh_ms_;
    /** Each timed round's server VmHWM (peak_rss_mb is their median). */
    std::vector<double> server_rss_mb_;
    std::vector<double> traced_ops_, untraced_ops_;

    std::atomic<int> inflight_{0};
    std::atomic<double> last_progress_s_{0.0};
    std::atomic<bool> watch_stop_{false};
};

} // namespace

void
runServe(const RunOptions &opts, Tracer &tracer, RunResult &out)
{
    ServeRun run(opts, tracer, out);
    run.run();
}

} // namespace bench
