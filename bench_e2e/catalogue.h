/**
 * @file
 * The benchmark's catalogue: workload names and every metric it
 * prints, with units. BENCHMARK.json at the repository root must list
 * the same names in the same order; `bench_e2e --self-test` checks it.
 * README.md gives each workload's reason and each per-layer metric's
 * target (the end-to-end metric and workload it should move).
 */

#ifndef BENCH_E2E_CATALOGUE_H
#define BENCH_E2E_CATALOGUE_H

namespace bench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

inline constexpr const char *kWorkloads[] = {
    "figs_cold", "figs_warm", "dtm_exact", "serve",
};

/** Printed by untraced runs (--trace 0). */
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_best_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/** Printed by traced runs (--trace 1); per traced operation. */
inline constexpr MetricDef kPerLayer[] = {
    {"sim.system_ms", "ms"},
    {"sim.calibrate_ms", "ms"},
    {"sim.harness_ms", "ms"},
    {"sim.render_ms", "ms"},
    {"trace.records", "count"},
    {"trace.gen_ms", "ms"},
    {"core.runs", "count"},
    {"core.minst", "Minst"},
    {"core.mcycles", "Mcycles"},
    {"core.run_ms", "ms"},
    {"core.run_p50_ms", "ms"},
    {"core.run_p90_ms", "ms"},
    {"core.minst_per_s", "Minst/s"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"floorplan.deposit_ms", "ms"},
    {"thermal.steady_iters", "count"},
    {"thermal.explicit.steps_per_interval", "count"},
    {"thermal.explicit.interval_ms", "ms"},
    {"thermal.imex.steps_per_interval", "count"},
    {"thermal.imex.interval_ms", "ms"},
    {"dtm.runs", "count"},
    {"dtm.intervals", "count"},
    {"dtm.run_ms", "ms"},
    {"dtm.core_ms", "ms"},
    {"dtm.loop_ms", "ms"},
    {"io.encode_ms", "ms"},
    {"io.decode_ms", "ms"},
    {"io.bytes", "bytes"},
    {"io.wire_codec_us", "us"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.stores", "count"},
    {"store.bytes", "bytes"},
    {"store.load_ms", "ms"},
    {"store.store_ms", "ms"},
    {"net.warm_p50_ms", "ms"},
    {"net.warm_p99_ms", "ms"},
    {"net.cold_p50_ms", "ms"},
    {"net.server_p50_us_le", "us"},
    {"net.server_p99_us_le", "us"},
    {"net.simulations_run", "count"},
    {"net.dedup_hits", "count"},
    {"net.rejected_overload", "count"},
    {"op.p50_ms", "ms"},
    {"op.tail_ms", "ms"},
    {"op.tail_pct", "%"},
    {"op.samples", "count"},
    {"trace.unaccounted_ms", "ms"},
    {"trace.accounted_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

} // namespace bench

#endif // BENCH_E2E_CATALOGUE_H
