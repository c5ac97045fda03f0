/**
 * @file
 * Result bookkeeping shared by the workloads, and the per-layer
 * metrics of a traced run: span self times by layer, counters, and
 * probe results, each reported per traced operation.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "workloads.h"

namespace bench {

void
Counters::add(const std::string &name, double v)
{
    th::LockGuard lock(mu_);
    values_[name] += v;
}

void
Counters::set(const std::string &name, double v)
{
    th::LockGuard lock(mu_);
    values_[name] = v;
}

void
Counters::max(const std::string &name, double v)
{
    th::LockGuard lock(mu_);
    auto [it, fresh] = values_.emplace(name, v);
    if (!fresh)
        it->second = std::max(it->second, v);
}

double
Counters::get(const std::string &name) const
{
    th::LockGuard lock(mu_);
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
RunResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "bench_e2e: failed: %s\n", what.c_str());
    }
    return ok;
}

void
RunResult::addOp(std::size_t input, double ms)
{
    ++ops;
    if (keepOpMs)
        opMs.push_back(ms);
    if (inputBestMs.size() <= input)
        inputBestMs.resize(input + 1, HUGE_VAL);
    inputBestMs[input] = std::min(inputBestMs[input], ms);
}

double
RunResult::bestMs() const
{
    double log_sum = 0.0;
    int n = 0;
    for (const double best : inputBestMs) {
        if (best != HUGE_VAL) {
            log_sum += std::log(best);
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / n) : 0.0;
}

double
peakRssMb(long pid)
{
    const std::string path = pid > 0
        ? "/proc/" + std::to_string(pid) + "/status"
        : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::map<std::string, double>
perLayerMetrics(const RunResult &res, const std::vector<SpanRecord> &spans)
{
    const auto agg = aggregateSpans(spans);
    auto totals = [&](const char *name) {
        const auto it = agg.find(name);
        return it == agg.end() ? SpanTotals{} : it->second;
    };
    const double n = std::max(1, res.tracedOps);
    // Counters are summed over traced ops; probes are taken once.
    auto value = [&](const char *name) {
        return res.counters.get(name) / n + res.probes.get(name);
    };

    std::map<std::string, double> m;
    m["sim.system_ms"] = totals("sim.system").totalMs / n;
    m["sim.calibrate_ms"] = totals("sim.calibrate").totalMs / n;
    m["sim.harness_ms"] =
        (totals("sim.fig8").selfMs + totals("sim.fig9").selfMs) / n;
    m["sim.render_ms"] = totals("sim.render").totalMs / n;

    m["trace.records"] = value("trace.records");
    m["trace.gen_ms"] = totals("trace.gen").totalMs / n;

    const SpanTotals core = totals("core.run");
    const double core_ms = core.selfMs + totals("dtm.core").selfMs;
    m["core.runs"] = (core.count + totals("dtm.run").count) / n;
    m["core.minst"] = value("core.minst");
    m["core.mcycles"] = value("core.mcycles");
    m["core.run_ms"] = core_ms / n;
    std::vector<double> durations = core.durationsMs;
    std::sort(durations.begin(), durations.end());
    m["core.run_p50_ms"] = median(durations);
    m["core.run_p90_ms"] = nearestRank(durations, 90.0);
    m["core.minst_per_s"] =
        core_ms > 0.0 ? res.counters.get("core.minst") / (core_ms * 1e-3)
                      : 0.0;
    m["core.cache_hits"] = value("core.cache_hits");
    m["core.cache_misses"] = value("core.cache_misses");

    m["floorplan.deposit_ms"] = value("floorplan.deposit_ms");
    for (const char *name :
         {"thermal.steady_iters", "thermal.explicit.steps_per_interval",
          "thermal.explicit.interval_ms", "thermal.imex.steps_per_interval",
          "thermal.imex.interval_ms"})
        m[name] = value(name);

    const SpanTotals dtm = totals("dtm.run");
    m["dtm.runs"] = dtm.count / n;
    m["dtm.intervals"] = value("dtm.intervals");
    m["dtm.run_ms"] = dtm.totalMs / n;
    m["dtm.core_ms"] = totals("dtm.core").totalMs / n;
    m["dtm.loop_ms"] = dtm.selfMs / n;

    m["io.encode_ms"] = totals("io.encode").totalMs / n;
    m["io.decode_ms"] = totals("io.decode").totalMs / n;
    m["io.bytes"] = value("io.bytes");
    m["io.wire_codec_us"] = value("io.wire_codec_us");

    for (const char *name :
         {"store.hits", "store.misses", "store.stores", "store.bytes"})
        m[name] = value(name);
    m["store.load_ms"] = totals("store.load").totalMs / n;
    m["store.store_ms"] = totals("store.store").totalMs / n;

    for (const char *name :
         {"net.warm_p50_ms", "net.warm_p99_ms", "net.cold_p50_ms",
          "net.server_p50_us_le", "net.server_p99_us_le",
          "net.simulations_run", "net.dedup_hits", "net.rejected_overload"})
        m[name] = value(name);

    const Tail tail = tailPercentile(res.opMs);
    m["op.p50_ms"] = median(res.opMs);
    m["op.tail_ms"] = tail.value;
    m["op.tail_pct"] = tail.pct;
    m["op.samples"] = static_cast<double>(res.opMs.size());

    const SpanTotals op = totals("op");
    m["trace.unaccounted_ms"] = op.selfMs / n;
    m["trace.accounted_frac"] =
        op.totalMs > 0.0 ? 1.0 - op.selfMs / op.totalMs : 0.0;
    const double ref = median(res.untracedRefMs);
    m["trace.overhead_frac"] =
        ref > 0.0 ? median(res.tracedOpMs) / ref - 1.0 : 0.0;
    return m;
}

} // namespace bench
