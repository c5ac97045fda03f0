/**
 * @file
 * bench_e2e — the end-to-end benchmark: four user-visible jobs driven
 * through the public th_sim / th_net APIs and the th_serve binary, with
 * per-layer spans recorded from outside the program.
 *
 * Usage:
 *   bench_e2e --workload NAME --work-dir DIR [--seed N] [--seconds S]
 *             [--trace 0|1] [--golden HEX] [--spans-out FILE]
 *   bench_e2e --self-test
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * holding every end-to-end metric (untraced) or every per-layer metric
 * (--trace 1) of the catalogue, each as {"value": v, "unit": u}.
 * It is normally invoked through run.py, which builds it, gives it a
 * scrubbed environment and a fresh work directory, and validates the
 * result against BENCHMARK.json.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "catalogue.h"
#include "tracing.h"
#include "workloads.h"

namespace bench {
int runSelfTest(const std::string &catalogue);
} // namespace bench

namespace {

using namespace bench;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\n\n"
                 "usage:\n"
                 "  bench_e2e --workload NAME --work-dir DIR [--seed N] "
                 "[--seconds S]\n"
                 "            [--trace 0|1] [--golden HEX] "
                 "[--spans-out FILE]\n"
                 "  bench_e2e --self-test\n",
                 msg);
    std::exit(2);
}

bool
knownWorkload(const std::string &w)
{
    for (const char *k : kWorkloads)
        if (w == k)
            return true;
    return false;
}

void
printMetric(bool &first, const char *name, const char *unit, double v)
{
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name, v, unit);
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string spans_out;
    bool self_test = false;
    // Internal: one batch set-up sample in a fresh process.
    bool setup_probe = false;
    std::string store_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((a + " requires a value").c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opts.workload = value();
        else if (a == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            opts.traced = value() == "1";
        else if (a == "--work-dir")
            opts.workDir = value();
        else if (a == "--golden")
            opts.goldenDigest = value();
        else if (a == "--spans-out")
            spans_out = value();
        else if (a == "--self-test")
            self_test = true;
        else if (a == "--setup-probe")
            setup_probe = true;
        else if (a == "--store-dir")
            store_dir = value();
        else
            usage(("unknown flag '" + a + "'").c_str());
    }
    if (self_test)
        return runSelfTest(BENCH_E2E_CATALOGUE);
    if (!knownWorkload(opts.workload))
        usage(("unknown workload '" + opts.workload + "'").c_str());
    if (setup_probe)
        return runSetupProbe(opts, store_dir);
    if (opts.seconds <= 0.0)
        usage("--seconds must be positive");
    // Stores and temp files live in this directory; the caller (run.py)
    // creates it fresh and removes it afterwards.
    if (opts.workDir.empty())
        usage("--work-dir is required");
    if (::access(BENCH_E2E_TH_SERVE, X_OK) != 0) {
        std::fprintf(stderr, "bench_e2e: th_serve not found at %s "
                             "(build the th_serve target)\n",
                     BENCH_E2E_TH_SERVE);
        return 2;
    }

    Tracer tracer(opts.traced);
    RunResult res;
    res.keepOpMs = opts.traced;
    if (opts.workload == "serve")
        runServe(opts, tracer, res);
    else
        runBatch(opts, tracer, res);

    if (opts.traced && !spans_out.empty() &&
        !tracer.writeJson(spans_out, opts.workload, opts.seed))
        std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                     spans_out.c_str());

    std::fprintf(stderr,
                 "bench_e2e: %s seed %llu: %llu ops in %.2f s, digest %s, "
                 "%llu/%llu failed\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed),
                 static_cast<unsigned long long>(res.ops), res.windowS,
                 res.digest.c_str(),
                 static_cast<unsigned long long>(res.failed),
                 static_cast<unsigned long long>(res.attempted));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.failed == 0 && res.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    bool first = true;
    if (opts.traced) {
        const auto m = perLayerMetrics(res, tracer.spans());
        for (const MetricDef &d : kPerLayer)
            printMetric(first, d.name, d.unit, m.at(d.name));
    } else {
        const std::map<std::string, double> m = {
            {"setup_s", median(res.setupS)},
            {"op_best_ms", res.bestMs()},
            {"peak_rss_mb", res.peakRssMb},
        };
        for (const MetricDef &d : kEndToEnd)
            printMetric(first, d.name, d.unit, m.at(d.name));
    }
    std::printf("}}\n");
    return 0;
}
