/**
 * @file
 * th_serve — the networked simulation service. Binds a TCP port,
 * answers TSRV-protocol requests (see net/protocol.h) with the same
 * reports th_run prints locally, coalesces identical in-flight
 * simulations, and sheds overload as structured busy replies. SIGTERM
 * and SIGINT drain gracefully: admitted simulations finish and their
 * responses are delivered before the process exits.
 *
 * With one or more --backend flags the process runs as a cluster
 * front-end instead (net/router.h): it owns no System and
 * consistent-hashes each request across the given th_serve shards,
 * making their single-flight dedup cluster-wide. Clients connect to
 * either tier with the identical protocol.
 *
 * Usage:
 *   th_serve [--host A] [--port N] [--store DIR] [--workers N]
 *            [--queue N] [--insts N] [--warmup N]
 *   th_serve --backend H:P [--backend H:P ...] [--host A] [--port N]
 *            [--workers N] [--queue N]
 *
 * --port 0 (the default) binds an ephemeral port; the chosen port is
 * printed on the "listening on" line, which scripts can parse.
 */

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/version.h"
#include "net/router.h"
#include "net/server.h"

using namespace th;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "th_serve: %s\n\n", msg);
    std::fprintf(stderr,
        "usage:\n"
        "  th_serve [--host A] [--port N] [--store DIR] [--workers N]\n"
        "           [--queue N] [--insts N] [--warmup N]\n"
        "  th_serve --backend H:P [--backend H:P ...]\n"
        "           [--host A] [--port N] [--workers N] [--queue N]\n"
        "\n"
        "Serves the simulation surface over TCP (th_run --connect).\n"
        "--port 0 binds an ephemeral port, printed on startup.\n"
        "--store enables the persistent artifact store (also honours\n"
        "TH_STORE_DIR). With --backend the process is a cluster router\n"
        "that shards requests across th_serve backends by consistent\n"
        "hash of the request key. SIGTERM/SIGINT drain in-flight work,\n"
        "then exit.\n");
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') {
        std::fprintf(stderr, "th_serve: %s expects a number, got '%s'\n",
                     flag, s.c_str());
        std::exit(2);
    }
    return v;
}

/** parseU64 for a flag whose field holds at most @p max. */
std::uint64_t
parseAtMost(const std::string &s, const char *flag, std::uint64_t max)
{
    const std::uint64_t v = parseU64(s, flag);
    if (v > max) {
        std::fprintf(stderr, "th_serve: %s %s out of range (max %llu)\n",
                     flag, s.c_str(), static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return v;
}

/** Park until SIGTERM/SIGINT, then run the tier's drain. */
template <typename ServerT>
int
serveUntilSignalled(ServerT &server)
{
    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::printf("draining...\n");
    std::fflush(stdout);
    server.shutdown();
    std::printf("drained, exiting\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ServerOptions opts;
    RouterOptions router_opts;
    bool workers_set = false;
    bool queue_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage((std::string(flag) + " requires a value").c_str());
            return argv[++i];
        };
        if (a == "--host")
            opts.host = value("--host");
        else if (a == "--port")
            opts.port = static_cast<std::uint16_t>(
                parseAtMost(value("--port"), "--port", 65535));
        else if (a == "--store")
            opts.sim.storeDir = value("--store");
        else if (a == "--workers") {
            opts.workers = static_cast<int>(
                parseAtMost(value("--workers"), "--workers", INT_MAX));
            workers_set = true;
        } else if (a == "--queue") {
            opts.queueCapacity = parseU64(value("--queue"), "--queue");
            queue_set = true;
        } else if (a == "--backend")
            router_opts.backends.push_back(value("--backend"));
        else if (a == "--insts")
            opts.sim.instructions = parseU64(value("--insts"), "--insts");
        else if (a == "--warmup")
            opts.sim.warmupInstructions =
                parseU64(value("--warmup"), "--warmup");
        else if (a == "--version") {
            std::printf("%s\n", buildInfo());
            return 0;
        } else if (a == "--help" || a == "-h")
            usage();
        else
            usage(("unknown flag '" + a + "'").c_str());
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    if (!router_opts.backends.empty()) {
        if (!opts.sim.storeDir.empty())
            usage("--store is a backend flag (the router owns no "
                  "System); set it on each th_serve backend");
        router_opts.host = opts.host;
        router_opts.port = opts.port;
        if (workers_set)
            router_opts.workers = opts.workers;
        if (queue_set)
            router_opts.queueCapacity = opts.queueCapacity;
        RouterServer router(router_opts);
        std::string err;
        if (!router.start(err)) {
            std::fprintf(stderr, "th_serve: %s\n", err.c_str());
            return 1;
        }
        std::printf("%s\n", buildInfo());
        std::printf("routing on %s:%u (%zu backends, %d workers, "
                    "queue %zu)\n",
                    router_opts.host.c_str(),
                    static_cast<unsigned>(router.port()),
                    router_opts.backends.size(),
                    router_opts.workers < 1 ? 1 : router_opts.workers,
                    router_opts.queueCapacity);
        std::fflush(stdout);
        return serveUntilSignalled(router);
    }

    SimServer server(opts);
    std::string err;
    if (!server.start(err)) {
        std::fprintf(stderr, "th_serve: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s\n", buildInfo());
    std::printf("listening on %s:%u (%d workers, queue %zu%s)\n",
                opts.host.c_str(), static_cast<unsigned>(server.port()),
                opts.workers < 1 ? 1 : opts.workers, opts.queueCapacity,
                server.system().storeEnabled() ? ", store on" : "");
    std::fflush(stdout);
    return serveUntilSignalled(server);
}
