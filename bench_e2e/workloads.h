/**
 * @file
 * Shared types of the end-to-end benchmark's workloads: the run
 * options the command line fills, the per-run result the reporter
 * turns into metrics, and a thread-safe counter set for per-layer
 * counts that no span carries.
 */

#ifndef BENCH_E2E_WORKLOADS_H
#define BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "tracing.h"

namespace bench {

/**
 * Control interval, in core cycles, of dtm_exact's closed-loop DTM runs
 * and of the thermal probes: a quarter of DtmOptions' default 50K. An operation then takes
 * about 0.1 s. The host's interference comes in bursts of milliseconds,
 * so a short operation's fastest repeat finds a quiet stretch: at the
 * default interval, operations of 0.3-0.8 s had fastest repeats that
 * spread 21-23% over 10 runs.
 */
inline constexpr std::uint64_t kDtmIntervalCycles = 12500;

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Scratch directory owned by this run (stores, temp files). */
    std::string workDir;
    /** Seed-1 golden digests ("" = none to compare). */
    std::string goldenDigest;
};

/** Thread-safe named counters (per-layer counts, probe results). */
class Counters
{
  public:
    void add(const std::string &name, double v);
    void set(const std::string &name, double v);
    /** Keep the larger of the current value and @p v. */
    void max(const std::string &name, double v);
    double get(const std::string &name) const;

  private:
    mutable th::Mutex mu_;
    std::map<std::string, double> values_ TH_GUARDED_BY(mu_);
};

struct RunResult
{
    /** Set-up samples, seconds (median reported as setup_s). */
    std::vector<double> setupS;
    /** Untraced operations recorded. */
    std::uint64_t ops = 0;
    /** Each input's fastest untraced operation, milliseconds. */
    std::vector<double> inputBestMs;
    /**
     * Every untraced operation latency, milliseconds, in run order, for
     * the op.* per-layer metrics. Kept by traced runs only: an untraced
     * run of 100K short operations would otherwise grow the peak RSS it
     * reports by megabytes, in steps wherever the vector reallocates.
     */
    bool keepOpMs = false;
    std::vector<double> opMs;
    /** Wall time of the measured window, seconds. */
    double windowS = 0.0;
    double peakRssMb = 0.0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Digest of the run's first round (golden-checked at seed 1). */
    std::string digest;

    /** Record one untraced operation on @p input. */
    void addOp(std::size_t input, double ms);
    /**
     * op_best_ms: the geometric mean over inputs of each input's
     * fastest operation. See README.md for why not the median.
     */
    double bestMs() const;

    // Traced runs only.
    int tracedOps = 0;
    std::vector<double> tracedOpMs;
    std::vector<double> untracedRefMs;
    /** Summed over traced ops; reported per op. */
    Counters counters;
    /** Reported as recorded: probe results, maxima, server snapshots. */
    Counters probes;

    /** Count one checked outcome; prints @p what to stderr on failure. */
    bool check(bool ok, const std::string &what);
};

/** figs_cold, figs_warm, dtm_exact. */
void runBatch(const RunOptions &opts, Tracer &tracer, RunResult &out);

/**
 * The child side of a batch set-up sample: build the workload's System
 * on @p store_dir ("" = none), calibrate power, and return the exit
 * code.
 */
int runSetupProbe(const RunOptions &opts, const std::string &store_dir);

/** serve. */
void runServe(const RunOptions &opts, Tracer &tracer, RunResult &out);

/**
 * Traced runs: time the thermal layers on @p workload's own grid
 * (steady iterations, one interval's deposit, one control interval of
 * each transient scheme) into @p out's counters.
 */
void runThermalProbes(const std::string &workload, Counters &out);

/** Peak resident set (VmHWM) of @p pid in MB; 0 when unreadable. */
double peakRssMb(long pid);

/** Per-layer metrics of a traced run, keyed by catalogue name. */
std::map<std::string, double>
perLayerMetrics(const RunResult &res, const std::vector<SpanRecord> &spans);

} // namespace bench

#endif // BENCH_E2E_WORKLOADS_H
