/**
 * @file
 * `bench_e2e --self-test`: the benchmark's own checks, fast enough for
 * a ctest and safe under the sanitizer builds — the percentile rule
 * and medians, nested-span self time (including children running on
 * the thread pool), the chunked trace decorator leaving a core result
 * bit-identical, and the catalogue matching BENCHMARK.json.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "catalogue.h"
#include "circuit/blocks.h"
#include "common/threadpool.h"
#include "core/pipeline.h"
#include "decorators.h"
#include "io/serialize.h"
#include "json.h"
#include "sim/configs.h"
#include "trace/suites.h"
#include "tracing.h"
#include "workloads.h"

namespace bench {

namespace {

int g_checks = 0;
int g_failures = 0;

void
expectTrue(bool ok, const std::string &what)
{
    ++g_checks;
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testStatistics()
{
    expectTrue(median({}) == 0.0, "median of nothing is 0");
    expectTrue(median({3, 1, 2}) == 2.0, "odd median");
    expectTrue(median({4, 1, 3, 2}) == 2.5, "even median");

    auto series = [](int n) {
        std::vector<double> v;
        for (int i = n; i >= 1; --i)
            v.push_back(i);
        return v;
    };
    const Tail few = tailPercentile(series(5));
    expectTrue(few.pct == 100.0 && few.value == 5.0,
               "under 20 samples the tail is the maximum");
    const Tail t20 = tailPercentile(series(20));
    expectTrue(t20.pct == 50.0 && t20.value == 10.0,
               "20 samples: p50 leaves exactly 10 beyond");
    const Tail t100 = tailPercentile(series(100));
    expectTrue(t100.pct == 90.0 && t100.value == 90.0,
               "100 samples: p90 (p95 leaves only 5)");
    const Tail t1000 = tailPercentile(series(1000));
    expectTrue(t1000.pct == 99.0 && t1000.value == 990.0,
               "1000 samples: p99");
    const Tail t10k = tailPercentile(series(10000));
    expectTrue(t10k.pct == 99.9 && t10k.value == 9990.0,
               "10000 samples: p99.9");
    expectTrue(nearestRank({1, 2, 3, 4}, 50.0) == 2.0,
               "nearest-rank p50 of 4");

    expectTrue(hex64(fnv1a("")) == "cbf29ce484222325", "FNV-1a of ''");
    expectTrue(hex64(fnv1a("a")) == "af63dc4c8601ec8c", "FNV-1a of 'a'");
}

SpanRecord
span(const char *name, int id, int parent, std::int64_t a, std::int64_t b)
{
    SpanRecord s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startNs = a * 1000000;
    s.endNs = b * 1000000;
    return s;
}

void
testSelfTime()
{
    // op [0,100] has children [10,30] and [20,50] (overlapping: union
    // 40) and [90,120] (clipped to 10); the grandchild inside [10,30]
    // reduces only its own parent.
    const std::vector<SpanRecord> spans = {
        span("op", 0, -1, 0, 100),
        span("a", 1, 0, 10, 30),
        span("a", 2, 0, 20, 50),
        span("b", 3, 0, 90, 120),
        span("c", 4, 1, 12, 17),
    };
    const auto agg = aggregateSpans(spans);
    expectTrue(near(agg.at("op").selfMs, 50.0), "self time: union of "
                                                "children, clipped");
    expectTrue(near(agg.at("op").totalMs, 100.0), "total time");
    expectTrue(near(agg.at("a").selfMs, 15.0 + 30.0),
               "grandchild only reduces its parent");
    expectTrue(agg.at("a").count == 2, "span count");

    // Live spans: nesting by thread-local stack, and pool children
    // that name their parent explicitly.
    Tracer tr(true);
    int root_id = -1;
    {
        ScopedSpan root(tr, "root");
        root_id = root.id();
        {
            ScopedSpan inner(tr, "inner");
            expectTrue(currentSpan() == inner.id(), "innermost span");
        }
        th::ThreadPool::global().parallelFor(64, [&](std::size_t) {
            ScopedSpan child(tr, "pooled", root_id);
            ScopedSpan grandchild(tr, "nested");
        });
    }
    expectTrue(currentSpan() == -1, "span stack unwound");
    const std::vector<SpanRecord> live = tr.spans();
    int pooled = 0, nested_ok = 0;
    for (const SpanRecord &s : live) {
        if (s.name == "pooled" && s.parent == root_id)
            ++pooled;
        if (s.name == "nested" &&
            live[static_cast<std::size_t>(s.parent)].name == "pooled")
            ++nested_ok;
        if (s.name == "inner")
            expectTrue(s.parent == root_id, "inner's parent is root");
    }
    expectTrue(pooled == 64 && nested_ok == 64,
               "pool spans attach to the explicit parent");
    const auto live_agg = aggregateSpans(live);
    expectTrue(live_agg.at("root").selfMs >= 0.0 &&
                   live_agg.at("root").selfMs <=
                       live_agg.at("root").totalMs,
               "live self time within the span");
}

void
testDecoratorBitIdentical()
{
    const th::BlockLibrary lib;
    const th::CoreConfig cfg = th::makeConfig(th::ConfigKind::ThreeD, lib);
    const th::BenchmarkProfile &profile =
        th::benchmarkByName("mpeg2enc");
    constexpr std::uint64_t kInsts = 5000;

    th::SyntheticTrace plain(profile);
    th::Core a(cfg);
    const auto expect_bytes =
        th::serializeCoreResult(a.run(plain, kInsts, kInsts / 2));

    Tracer tr(true);
    th::SyntheticTrace inner(profile);
    ChunkTimedTrace timed(inner, tr);
    th::Core b(cfg);
    const auto got_bytes =
        th::serializeCoreResult(b.run(timed, kInsts, kInsts / 2));
    expectTrue(expect_bytes == got_bytes,
               "chunk-timed trace leaves the CoreResult bit-identical");
    expectTrue(timed.records() >= kInsts && !tr.spans().empty(),
               "decorator generated and timed chunks");
}

void
testCatalogue(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    JsonValue doc;
    std::string err;
    expectTrue(in.good() || in.eof(), "read " + path);
    if (!parseJson(ss.str(), doc, err)) {
        expectTrue(false, "parse " + path + ": " + err);
        return;
    }
    const JsonValue &workloads = doc["workloads"];
    bool same = workloads.array.size() == std::size(kWorkloads);
    for (std::size_t i = 0; same && i < workloads.array.size(); ++i)
        same = workloads.array[i]["name"].string == kWorkloads[i];
    expectTrue(same, "workloads match BENCHMARK.json name for name");

    auto metricsMatch = [&](const char *key, const MetricDef *defs,
                            std::size_t n) {
        const JsonValue &list = doc[key];
        bool ok = list.array.size() == n;
        for (std::size_t i = 0; ok && i < n; ++i)
            ok = list.array[i]["name"].string == defs[i].name &&
                list.array[i]["unit"].string == defs[i].unit;
        expectTrue(ok, std::string(key) +
                           " match BENCHMARK.json name and unit");
    };
    metricsMatch("end_to_end", kEndToEnd, std::size(kEndToEnd));
    metricsMatch("per_layer", kPerLayer, std::size(kPerLayer));

    const RunResult empty;
    const auto computed = perLayerMetrics(empty, {});
    bool covered = computed.size() == std::size(kPerLayer);
    for (const MetricDef &d : kPerLayer)
        covered = covered && computed.count(d.name) == 1;
    expectTrue(covered, "traced runs compute exactly the per-layer "
                        "catalogue");

    JsonValue bad;
    expectTrue(!parseJson("{\"a\": [1, 2", bad, err),
               "truncated JSON is rejected");
}

} // namespace

int
runSelfTest(const std::string &catalogue)
{
    testStatistics();
    testSelfTime();
    testDecoratorBitIdentical();
    testCatalogue(catalogue);
    std::printf("self-test: %d checks, %d failed\n", g_checks, g_failures);
    return g_failures == 0 ? 0 : 1;
}

} // namespace bench
