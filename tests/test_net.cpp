/**
 * Loopback tests of the th_serve stack: a real SimServer on an
 * ephemeral 127.0.0.1 port, driven by real SimClients. Covers the
 * acceptance contract of the serving layer — served responses are
 * byte-identical to direct local runs, identical concurrent requests
 * coalesce onto one simulation, overload is a structured reject,
 * deadlines cancel abandoned work, and shutdown drains admitted work.
 *
 * The startWorkersPaused seam makes the concurrency tests
 * deterministic: requests stack up against a parked worker pool, the
 * test asserts the queue/flight state it arranged, then releases the
 * workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/resource.h>

#include "common/version.h"
#include "io/serialize.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "sim/report.h"

namespace th {
namespace {

/**
 * Server options sized for test speed: a tiny simulation window, no
 * persistent store. TH_STORE_DIR is scrubbed from the environment —
 * a leaked store would make "how many simulations ran" depend on what
 * a previous run persisted.
 */
ServerOptions
testOptionsNoStore()
{
    ::unsetenv("TH_STORE_DIR");
    ServerOptions opts;
    opts.host = "127.0.0.1";
    opts.port = 0; // Ephemeral; parallel test runs must not collide.
    opts.sim.instructions = 20000;
    opts.sim.warmupInstructions = 5000;
    return opts;
}

/** A Core request for @p benchmark on @p config. */
SimRequest
coreRequest(const std::string &benchmark, const std::string &config)
{
    SimRequest req;
    req.kind = SimRequestKind::Core;
    req.benchmarks = {benchmark};
    req.config = config;
    return req;
}

/** Spin until @p cond or @p ms elapse; true when the condition held. */
template <typename Cond>
bool
waitFor(Cond cond, int ms = 5000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(ms);
    while (!cond()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

TEST(NetTest, HandshakeEchoesBuildInfo)
{
    SimServer server(testOptionsNoStore());
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    ASSERT_NE(server.port(), 0);

    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    EXPECT_EQ(client.serverBuild(), buildInfo());

    SimRequest ping;
    ping.kind = SimRequestKind::Ping;
    SimResponse rsp;
    ASSERT_TRUE(client.call(ping, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::Ok);
    EXPECT_EQ(rsp.text, std::string(buildInfo()) + "\n");
}

TEST(NetTest, ServedCoreRunIsByteIdenticalToDirectRun)
{
    ServerOptions opts = testOptionsNoStore();
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    SimResponse rsp;
    ASSERT_TRUE(client.call(coreRequest("gcc", "Base"), rsp, err)) << err;
    ASSERT_EQ(rsp.status, SimStatus::Ok) << rsp.error;

    // A direct System under the same options must render the same
    // bytes — the served path adds nothing and loses nothing.
    System direct(opts.sim);
    const CoreResult r = direct.runCore("gcc", ConfigKind::Base);
    EXPECT_EQ(rsp.text, renderCoreRun("gcc", "Base", r));
}

TEST(NetTest, ServedWidthStudyIsByteIdenticalToDirectRun)
{
    ServerOptions opts = testOptionsNoStore();
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    SimRequest req;
    req.kind = SimRequestKind::Width;
    req.benchmarks = {"gcc"};
    SimResponse rsp;
    ASSERT_TRUE(client.call(req, rsp, err)) << err;
    ASSERT_EQ(rsp.status, SimStatus::Ok) << rsp.error;

    System direct(opts.sim);
    EXPECT_EQ(rsp.text, renderWidth(runWidthStudy(direct, {"gcc"})));
}

TEST(NetTest, ValidationRejectsBadRequestsStructurally)
{
    SimServer server(testOptionsNoStore());
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;

    SimResponse rsp;
    // Unknown benchmark.
    ASSERT_TRUE(client.call(coreRequest("no-such-app", "Base"), rsp, err));
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);
    EXPECT_NE(rsp.error.find("unknown benchmark"), std::string::npos);

    // Unknown config.
    ASSERT_TRUE(client.call(coreRequest("gcc", "Bogus"), rsp, err));
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);

    // Window mismatch: the store keys omit insts/warmup, so the server
    // must refuse rather than serve a result from a different window.
    SimRequest req = coreRequest("gcc", "Base");
    req.insts = 999999;
    ASSERT_TRUE(client.call(req, rsp, err));
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);
    EXPECT_NE(rsp.error.find("window"), std::string::npos);

    // Config on a sweep request is a client bug, not a simulation.
    SimRequest fig;
    fig.kind = SimRequestKind::Fig8;
    fig.config = "Base";
    ASSERT_TRUE(client.call(fig, rsp, err));
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);

    EXPECT_GE(server.metrics().badRequests(), 4u);
    // The connection survives structured errors.
    SimRequest ping;
    ping.kind = SimRequestKind::Ping;
    ASSERT_TRUE(client.call(ping, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::Ok);
}

TEST(NetTest, IdenticalConcurrentRequestsCoalesceOntoOneSimulation)
{
    ServerOptions opts = testOptionsNoStore();
    opts.workers = 2;
    opts.startWorkersPaused = true;
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    constexpr int kClients = 4;
    std::vector<std::thread> threads;
    std::vector<SimResponse> responses(kClients);
    std::vector<std::string> errors(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            SimClient client;
            std::string cerr;
            if (!client.connect("127.0.0.1", server.port(), cerr)) {
                errors[i] = cerr;
                return;
            }
            SimResponse rsp;
            if (!client.call(coreRequest("gcc", "Base"), rsp, cerr))
                errors[i] = cerr;
            else
                responses[i] = rsp;
        });
    }

    // With the workers parked, all four requests must pile onto one
    // flight: three dedup hits, zero simulations so far.
    ASSERT_TRUE(waitFor([&] {
        return server.metrics().dedupHits() == kClients - 1;
    })) << "requests did not coalesce; dedupHits="
        << server.metrics().dedupHits();
    EXPECT_EQ(server.metrics().simulationsRun(), 0u);

    server.resumeWorkers();
    for (std::thread &t : threads)
        t.join();

    // Exactly one simulation ran...
    EXPECT_EQ(server.metrics().simulationsRun(), 1u);
    const System::CacheStats cache = server.system().coreCacheStats();
    EXPECT_EQ(cache.misses, 1u);

    // ...and every waiter got the same bytes, which are the bytes a
    // direct System::runCore would have produced.
    System direct(opts.sim);
    const std::string expect =
        renderCoreRun("gcc", "Base", direct.runCore("gcc", ConfigKind::Base));
    for (int i = 0; i < kClients; ++i) {
        ASSERT_TRUE(errors[i].empty()) << errors[i];
        EXPECT_EQ(responses[i].status, SimStatus::Ok) << responses[i].error;
        EXPECT_EQ(responses[i].text, expect);
    }
}

TEST(NetTest, FullQueueRejectsWithStructuredOverload)
{
    ServerOptions opts = testOptionsNoStore();
    opts.workers = 1;
    opts.queueCapacity = 1;
    opts.startWorkersPaused = true;
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;

    // Occupy the whole queue with a request whose waiter gives up
    // almost immediately: the reply is DeadlineExceeded, the work item
    // stays queued (cancelled), and the pool is parked so it cannot
    // drain.
    SimRequest occupant = coreRequest("gcc", "Base");
    occupant.deadlineMs = 1;
    SimResponse rsp;
    ASSERT_TRUE(client.call(occupant, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::DeadlineExceeded);
    EXPECT_EQ(server.metrics().deadlineExpired(), 1u);

    // A different simulation now finds the queue full: a structured
    // busy reply, not a hang and not a dropped connection.
    ASSERT_TRUE(client.call(coreRequest("mcf", "Base"), rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::Overloaded);
    EXPECT_NE(rsp.error.find("queue full"), std::string::npos);
    EXPECT_EQ(server.metrics().rejectedOverload(), 1u);

    // Release the pool: it discards the cancelled occupant without
    // simulating (nobody is waiting) and the server is healthy again.
    // Wait for the pop before re-submitting — admission races the
    // worker's dequeue, and losing that race is just another honest
    // Overloaded.
    server.resumeWorkers();
    ASSERT_TRUE(waitFor([&] {
        SimRequest m;
        m.kind = SimRequestKind::Metrics;
        SimResponse mrsp;
        std::string merr;
        return client.call(m, mrsp, merr) &&
               mrsp.text.find("queue_depth 0\n") != std::string::npos;
    }));
    ASSERT_TRUE(client.call(coreRequest("mcf", "Base"), rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::Ok) << rsp.error;
    EXPECT_EQ(server.metrics().simulationsRun(), 1u)
        << "the abandoned occupant must not have been simulated";
}

TEST(NetTest, ShutdownDrainsAdmittedWorkBeforeExiting)
{
    ServerOptions opts = testOptionsNoStore();
    opts.workers = 1;
    opts.startWorkersPaused = true;
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    SimResponse admitted_rsp;
    std::string admitted_err;
    std::thread waiter([&] {
        SimClient client;
        std::string cerr;
        if (!client.connect("127.0.0.1", server.port(), cerr)) {
            admitted_err = cerr;
            return;
        }
        SimResponse rsp;
        if (!client.call(coreRequest("gcc", "Base"), rsp, cerr))
            admitted_err = cerr;
        else
            admitted_rsp = rsp;
    });

    // Wait until the request is admitted (it is the flight creator, so
    // one queued item and zero dedup hits mark the admission).
    SimClient probe;
    ASSERT_TRUE(probe.connect("127.0.0.1", server.port(), err)) << err;
    ASSERT_TRUE(waitFor([&] {
        SimRequest m;
        m.kind = SimRequestKind::Metrics;
        SimResponse rsp;
        std::string perr;
        if (!probe.call(m, rsp, perr))
            return false;
        return rsp.text.find("queue_depth 1\n") != std::string::npos;
    }));

    // shutdown() resumes the pool, finishes the admitted simulation,
    // delivers its response, then tears the connections down.
    server.shutdown();
    waiter.join();
    ASSERT_TRUE(admitted_err.empty()) << admitted_err;
    EXPECT_EQ(admitted_rsp.status, SimStatus::Ok) << admitted_rsp.error;
    EXPECT_FALSE(admitted_rsp.text.empty());
    EXPECT_EQ(server.metrics().simulationsRun(), 1u);

    // The port no longer accepts new connections.
    SimClient late;
    EXPECT_FALSE(late.connect("127.0.0.1", server.port(), err));
}

TEST(NetTest, RepeatedRequestIsServedFromTheCoreCache)
{
    ServerOptions opts = testOptionsNoStore();
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    SimResponse first, second;
    ASSERT_TRUE(client.call(coreRequest("gcc", "Base"), first, err));
    ASSERT_EQ(first.status, SimStatus::Ok) << first.error;
    ASSERT_TRUE(client.call(coreRequest("gcc", "Base"), second, err));
    ASSERT_EQ(second.status, SimStatus::Ok) << second.error;

    EXPECT_EQ(first.text, second.text);
    const System::CacheStats cache = server.system().coreCacheStats();
    EXPECT_EQ(cache.misses, 1u) << "warm repeat must not re-simulate";
    EXPECT_EQ(cache.hits, 1u);
}

TEST(NetTest, MetricsSnapshotExposesTheServingCounters)
{
    SimServer server(testOptionsNoStore());
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;

    SimResponse rsp;
    ASSERT_TRUE(client.call(coreRequest("gcc", "Base"), rsp, err));
    ASSERT_EQ(rsp.status, SimStatus::Ok) << rsp.error;

    SimRequest m;
    m.kind = SimRequestKind::Metrics;
    ASSERT_TRUE(client.call(m, rsp, err)) << err;
    ASSERT_EQ(rsp.status, SimStatus::Ok);
    for (const char *key :
         {"requests_served ", "queue_depth ", "dedup_hits ",
          "simulations_run ", "rejected_overload ", "latency_p50_us_le ",
          "latency_p99_us_le ", "core_cache_hits ", "store_race_lost "})
        EXPECT_NE(rsp.text.find(key), std::string::npos)
            << "metrics text lacks '" << key << "':\n" << rsp.text;
    EXPECT_NE(rsp.text.find("simulations_run 1\n"), std::string::npos);
}

TEST(NetTest, HostileDtmKnobsAreRejectedNotWrapped)
{
    // Workers stay parked: validation rejects run inline on the event
    // loop, and the boundary probe below must never actually execute.
    ServerOptions opts = testOptionsNoStore();
    opts.startWorkersPaused = true;
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;

    // Regression: dtmIntervals/dtmGridN ride the wire as u32 but land
    // in int-typed DtmOptions fields. A value above INT_MAX used to
    // wrap negative through the narrowing cast, sail past the "> 0"
    // default-selection guards, and reach the engine. It must be a
    // structured reject instead.
    SimRequest req;
    req.kind = SimRequestKind::Dtm;
    req.dtmIntervals = static_cast<std::uint32_t>(INT_MAX) + 1u;
    SimResponse rsp;
    ASSERT_TRUE(client.call(req, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);
    EXPECT_NE(rsp.error.find("out of range"), std::string::npos)
        << rsp.error;

    req.dtmIntervals = 0;
    req.dtmGridN = 0xFFFFFFFFu;
    ASSERT_TRUE(client.call(req, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);
    EXPECT_NE(rsp.error.find("out of range"), std::string::npos)
        << rsp.error;

    // A grid coarser than the engines accept used to pass validation
    // and reach the gridN check in DtmEngine::run or
    // MulticoreSystem::run, whose fatal() exits the whole server. Both
    // kinds that carry the knob must reject it structurally. The 1 ms
    // deadline keeps an admitted request from parking on the paused
    // pool, so a regression fails here instead of hanging.
    for (const SimRequestKind kind :
         {SimRequestKind::Dtm, SimRequestKind::Multicore}) {
        SimRequest coarse;
        coarse.kind = kind;
        coarse.dtmGridN = 3;
        coarse.deadlineMs = 1;
        ASSERT_TRUE(client.call(coarse, rsp, err)) << err;
        EXPECT_EQ(rsp.status, SimStatus::BadRequest) << rsp.error;
        EXPECT_NE(rsp.error.find("dtmGridN"), std::string::npos)
            << rsp.error;
    }
    // A knob that is not finite used to pass validation: an infinite
    // dilation reached the stepper's step-count cast (undefined
    // behaviour) and a NaN trigger silently became the default. Both
    // kinds that carry the knobs must reject them.
    for (const SimRequestKind kind :
         {SimRequestKind::Dtm, SimRequestKind::Multicore}) {
        SimRequest knob;
        knob.kind = kind;
        knob.deadlineMs = 1;
        knob.dtmDilation = std::numeric_limits<double>::infinity();
        ASSERT_TRUE(client.call(knob, rsp, err)) << err;
        EXPECT_EQ(rsp.status, SimStatus::BadRequest) << rsp.error;
        EXPECT_NE(rsp.error.find("dtmDilation"), std::string::npos)
            << rsp.error;

        knob.dtmDilation = 0.0;
        knob.dtmTriggerK = std::numeric_limits<double>::quiet_NaN();
        ASSERT_TRUE(client.call(knob, rsp, err)) << err;
        EXPECT_EQ(rsp.status, SimStatus::BadRequest) << rsp.error;
        EXPECT_NE(rsp.error.find("dtmTriggerK"), std::string::npos)
            << rsp.error;

        // A negative knob used to fail the > 0 guard and silently run
        // the default instead.
        knob.dtmTriggerK = -1.0;
        ASSERT_TRUE(client.call(knob, rsp, err)) << err;
        EXPECT_EQ(rsp.status, SimStatus::BadRequest) << rsp.error;
        EXPECT_NE(rsp.error.find("dtmTriggerK"), std::string::npos)
            << rsp.error;

        knob.dtmTriggerK = 0.0;
        knob.dtmDilation = -5.0;
        ASSERT_TRUE(client.call(knob, rsp, err)) << err;
        EXPECT_EQ(rsp.status, SimStatus::BadRequest) << rsp.error;
        EXPECT_NE(rsp.error.find("dtmDilation"), std::string::npos)
            << rsp.error;
    }
    SimRequest ping;
    ping.kind = SimRequestKind::Ping;
    ASSERT_TRUE(client.call(ping, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::Ok);

    // Nothing hostile reached the worker pool.
    EXPECT_EQ(server.metrics().simulationsRun(), 0u);

    // The exact INT_MAX boundary passes validation (the guard rejects
    // only values that would wrap). The request is admitted against
    // the parked pool and its 1 ms deadline abandons it — cancelled,
    // never executed — so the probe is cheap.
    req.dtmGridN = static_cast<std::uint32_t>(INT_MAX);
    req.deadlineMs = 1;
    ASSERT_TRUE(client.call(req, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::DeadlineExceeded) << rsp.error;
    EXPECT_EQ(server.metrics().simulationsRun(), 0u);
}

TEST(NetTest, ShutdownDoesNotTruncateErrorReplyInFlight)
{
    SimServer server(testOptionsNoStore());
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    Socket sock = Socket::connectTo("127.0.0.1", server.port(), err);
    ASSERT_TRUE(sock.valid()) << err;

    // Handshake plus one deliberately corrupted request frame, crafted
    // as raw bytes: flipping the last payload byte breaks the CRC.
    MemSink out;
    ChunkWriter writer(out);
    ASSERT_TRUE(writer.begin(kServerFormatTag, kWireSchemaVersion));
    Encoder hello;
    hello.str("drain-race-regression");
    ASSERT_TRUE(writer.chunk(kHelloTag, hello));
    Encoder body;
    encodeSimRequest(body, SimRequest{});
    ASSERT_TRUE(writer.chunk(kRequestTag, body));
    out.data().back() ^= 0x01;
    SocketSink sink(sock);
    ASSERT_TRUE(sink.write(out.data().data(), out.data().size()));

    // The loop counts the bad request before the error reply reaches
    // the connection's write buffer; once the counter ticks the reply
    // is in flight.
    ASSERT_TRUE(waitFor([&] {
        return server.metrics().badRequests() == 1;
    }));

    // Regression: the reply write used to run with the connection not
    // marked busy, so a concurrent drain could cut the socket mid-way
    // through the error reply. The drain must flush it completely.
    server.shutdown();

    // Read the server's whole stream (header + HELO + the reply); the
    // drain's teardown provides the EOF.
    std::vector<std::uint8_t> bytes(64 * 1024);
    SocketSource source(sock);
    bytes.resize(source.read(bytes.data(), bytes.size()));
    ASSERT_GT(bytes.size(), 0u) << "error reply was dropped entirely";

    MemSource replay(bytes);
    ChunkReader reader(replay);
    std::uint32_t schema = 0;
    ASSERT_TRUE(reader.readHeader(kServerFormatTag, schema, err)) << err;
    std::string tag;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(reader.next(tag, payload, err), ChunkReader::Next::Chunk)
        << err;
    ASSERT_EQ(tag, kHelloTag);
    ASSERT_EQ(reader.next(tag, payload, err), ChunkReader::Next::Chunk)
        << "error reply truncated by the drain: " << err;
    ASSERT_EQ(tag, kResponseTag);
    Decoder dec(payload);
    SimResponse rsp;
    ASSERT_TRUE(decodeSimResponse(dec, rsp));
    EXPECT_EQ(rsp.status, SimStatus::BadRequest);
    EXPECT_FALSE(rsp.error.empty());
}

TEST(NetTest, LateAttachToAPublishingFlightIsAnswered)
{
    // Regression: onRequest found an in-flight key under flights_mu_
    // but attached its waiter only after releasing the lock. A worker
    // that published in between had already taken the waiter list, so
    // the late connection was never answered — not even by its
    // deadline, since onDeadline skips finished flights. Connections
    // hammer one memoized key, so every flight publishes within
    // microseconds and each attach keeps racing a publish; every call
    // must be answered before the client gives up.
    ServerOptions opts = testOptionsNoStore();
    opts.workers = 2;
    auto server = std::make_unique<SimServer>(opts);
    std::string err;
    ASSERT_TRUE(server->start(err)) << err;
    const SimRequest req = coreRequest("gcc", "Base");
    {
        SimClient primer; // Memoize the key before the race starts.
        ASSERT_TRUE(primer.connect("127.0.0.1", server->port(), err))
            << err;
        SimResponse rsp;
        ASSERT_TRUE(primer.call(req, rsp, err)) << err;
        ASSERT_EQ(rsp.status, SimStatus::Ok) << rsp.error;
    }

    constexpr int kConns = 2;
    constexpr int kCalls = 20000;
    std::vector<std::unique_ptr<WireConn>> conns;
    for (int i = 0; i < kConns; ++i) {
        Socket sock = Socket::connectTo("127.0.0.1", server->port(), err);
        ASSERT_TRUE(sock.valid()) << err;
        conns.push_back(std::make_unique<WireConn>(std::move(sock)));
        std::string peer;
        ASSERT_TRUE(conns.back()->helloAsClient(buildInfo(), peer, err))
            << err;
    }
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    for (auto &conn : conns) {
        clients.emplace_back([&answered, &req, c = conn.get()] {
            for (int i = 0; i < kCalls; ++i) {
                SimResponse rsp;
                std::string e;
                if (!c->sendRequest(req) || !c->recvResponse(rsp, e) ||
                    rsp.status != SimStatus::Ok)
                    return;
                answered.fetch_add(1);
            }
        });
    }

    // The client timeout: replies arrive every few microseconds, so
    // two seconds without one means a call was stranded. Shutting the
    // sockets down unblocks the stranded reader.
    int last = -1;
    auto progressed = std::chrono::steady_clock::now();
    while (answered.load() < kConns * kCalls) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto now = std::chrono::steady_clock::now();
        if (answered.load() != last) {
            last = answered.load();
            progressed = now;
        } else if (now - progressed > std::chrono::seconds(2)) {
            break;
        }
    }
    for (auto &conn : conns)
        conn->shutdownBoth();
    for (std::thread &t : clients)
        t.join();
    if (answered.load() != kConns * kCalls) {
        ADD_FAILURE() << "a call was never answered after "
                      << answered.load() << " replies (lost "
                         "single-flight wakeup)";
        // The stranded request stays pending, and the server's drain
        // waits for it forever; leave the server running rather than
        // hang the suite.
        (void)server.release();
    }
}

/** Live thread count of this process (Linux: /proc/self/task). */
int
countThreads()
{
    DIR *dir = ::opendir("/proc/self/task");
    if (dir == nullptr)
        return -1;
    int n = 0;
    while (dirent *entry = ::readdir(dir))
        if (entry->d_name[0] != '.')
            ++n;
    ::closedir(dir);
    return n;
}

TEST(NetTest, IdleConnectionsCostNoThreads)
{
    // ~1000 client sockets plus their server-side peers; make sure the
    // fd budget allows it before committing to the assertion.
    constexpr int kConns = 1000;
    rlimit rl{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &rl), 0);
    if (rl.rlim_cur < 2 * kConns + 128) {
        rl.rlim_cur = 2 * kConns + 128;
        if (rl.rlim_max != RLIM_INFINITY && rl.rlim_cur > rl.rlim_max)
            rl.rlim_cur = rl.rlim_max;
        if (::setrlimit(RLIMIT_NOFILE, &rl) != 0 ||
            rl.rlim_cur < 2 * kConns + 128)
            GTEST_SKIP() << "RLIMIT_NOFILE too low for " << kConns
                         << " connections";
    }

    ServerOptions opts = testOptionsNoStore();
    opts.workers = 2;
    SimServer server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const int threads_before = countThreads();
    ASSERT_GT(threads_before, 0);

    std::vector<Socket> conns;
    conns.reserve(kConns);
    for (int i = 0; i < kConns; ++i) {
        Socket s = Socket::connectTo("127.0.0.1", server.port(), err);
        ASSERT_TRUE(s.valid()) << "connection " << i << ": " << err;
        conns.push_back(std::move(s));
    }
    ASSERT_TRUE(waitFor([&] {
        return server.connCount() >= static_cast<std::uint64_t>(kConns);
    })) << "accepted " << server.connCount() << " of " << kConns;

    // The whole point of the event loop: an idle connection is a
    // registered fd, not a parked thread.
    EXPECT_EQ(countThreads(), threads_before);

    // And the loop still serves real traffic among the idle herd.
    SimClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), err)) << err;
    SimRequest ping;
    ping.kind = SimRequestKind::Ping;
    SimResponse rsp;
    ASSERT_TRUE(client.call(ping, rsp, err)) << err;
    EXPECT_EQ(rsp.status, SimStatus::Ok);
}

} // namespace
} // namespace th
