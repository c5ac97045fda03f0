#include "sim/system.h"

#include <cstdlib>

#include "common/log.h"
#include "interval/fitter.h"
#include "interval/replay.h"
#include "trace/suites.h"

namespace th {

namespace {

/** Resolve the store directory: explicit option, else TH_STORE_DIR. */
std::string
resolveStoreDir(const SimOptions &opts)
{
    if (!opts.storeDir.empty())
        return opts.storeDir;
    const char *env = std::getenv("TH_STORE_DIR");
    return env ? env : "";
}

} // namespace

System::System(const SimOptions &opts)
    : opts_(opts), lib_(), power_(lib_), hotspot_(),
      planar_fp_(FloorplanBuilder::planar()),
      stacked_fp_(FloorplanBuilder::stacked())
{
    const std::string dir = resolveStoreDir(opts_);
    if (!dir.empty()) {
        StoreOptions sopts;
        sopts.dir = dir;
        sopts.maxBytes = opts_.storeMaxBytes;
        store_ = std::make_unique<ArtifactStore>(sopts);
        if (!store_->enabled())
            store_.reset(); // Directory creation failed (warned).
    }
}

CoreResult
System::simulate(const std::string &benchmark, const CoreConfig &cfg,
                 const CancelToken *cancel) const
{
    SyntheticTrace trace(benchmarkByName(benchmark));
    Core core(cfg);
    return core.run(trace, opts_.instructions, opts_.warmupInstructions,
                    cancel);
}

CoreResult
System::runCore(const std::string &benchmark, ConfigKind kind,
                const CancelToken *cancel) const
{
    return runCore(benchmark, makeConfig(kind, lib_), cancel);
}

CoreResult
System::runCore(const std::string &benchmark, const CoreConfig &cfg,
                const CancelToken *cancel) const
{
    // Memoize on (benchmark, config hash): traces are seeded by the
    // benchmark profile and the core is deterministic, so a repeat of
    // the same pair is bit-identical to the first run. Between the
    // memory and a fresh simulation sits the persistent store: a warm
    // process finds every (benchmark, config) pair of a previous sweep
    // on disk and skips simulation entirely.
    return core_memo_.get(store_.get(), benchmark, configHash(cfg), [&] {
        return simulate(benchmark, cfg, cancel);
    });
}

CoreResult
System::runTrace(TraceSource &trace, const CoreConfig &cfg) const
{
    Core core(cfg);
    return core.run(trace, opts_.instructions,
                    opts_.warmupInstructions);
}

System::CacheStats
System::coreCacheStats() const
{
    return core_memo_.stats();
}

void
System::clearCoreCache()
{
    core_memo_.clear();
}

StoreStats
System::storeStats() const
{
    return store_ ? store_->stats() : StoreStats{};
}

bool
System::storeEnabled() const
{
    return store_ != nullptr;
}

std::string
System::storeDir() const
{
    return store_ ? store_->dir() : std::string();
}

void
System::ensureCalibrated(const CancelToken *cancel) const
{
    // call_once makes the lazy calibration safe when the experiment
    // pool issues the first evaluate() calls concurrently. A Cancelled
    // throw leaves the flag unset, so the next caller recalibrates.
    std::call_once(calibrate_once_, [this, cancel] {
        const CoreConfig base_cfg = makeConfig(ConfigKind::Base, lib_);
        const CoreResult base_run =
            runCore(kPowerReferenceBenchmark, base_cfg, cancel);
        power_.calibrate(base_run, base_cfg);
    });
}

PowerModel &
System::power()
{
    ensureCalibrated();
    return power_;
}

Evaluation
System::evaluate(const std::string &benchmark, ConfigKind kind,
                 const CancelToken *cancel)
{
    ensureCalibrated(cancel);
    Evaluation ev;
    ev.benchmark = benchmark;
    ev.config = kind;
    const CoreConfig cfg = makeConfig(kind, lib_);
    ev.core = runCore(benchmark, cfg, cancel);
    ev.power = power_.compute(ev.core, cfg);
    return ev;
}

DtmReport
System::runDtm(const std::string &benchmark, ConfigKind kind,
               const DtmOptions &dtm_opts, const CancelToken *cancel)
{
    const CoreConfig cfg = makeConfig(kind, lib_);
    // The persistent lookup precedes power calibration: on a warm
    // rerun even the calibration core run is skipped, so a cached DTM
    // sweep performs zero core simulations.
    return dtm_memo_.get(
        store_.get(), benchmark, dtmConfigHash(cfg, dtm_opts), [&] {
            ensureCalibrated(cancel);
            const DtmEngine engine(power_, hotspot_, planar_fp_,
                                   stacked_fp_);
            return engine.run(benchmarkByName(benchmark), cfg,
                              configName(kind), dtm_opts, cancel);
        });
}

MulticoreReport
System::runMulticore(ConfigKind kind, const MulticoreConfig &mc,
                     const CancelToken *cancel)
{
    if (mc.numCores < 1)
        fatal("runMulticore: numCores must be >= 1 (got %d)",
              mc.numCores);
    // Resolve the per-core mix up front so the cache key, the store
    // key, and the report rows all see the same canonical list: the
    // requested mix cycled over the cores, or the power-reference
    // benchmark everywhere when no mix is given.
    MulticoreConfig resolved = mc;
    resolved.benchmarks.clear();
    resolved.benchmarks.reserve(static_cast<std::size_t>(mc.numCores));
    for (int c = 0; c < mc.numCores; ++c) {
        std::string name = kPowerReferenceBenchmark;
        if (!mc.benchmarks.empty())
            name = mc.benchmarks[static_cast<std::size_t>(c) %
                                 mc.benchmarks.size()];
        if (!hasBenchmark(name))
            fatal("runMulticore: unknown benchmark '%s'", name.c_str());
        resolved.benchmarks.push_back(std::move(name));
    }
    std::string mix;
    for (std::size_t i = 0; i < resolved.benchmarks.size(); ++i) {
        if (i != 0)
            mix += '+';
        mix += resolved.benchmarks[i];
    }

    const CoreConfig cfg = makeConfig(kind, lib_);
    // Like runDtm: the persistent lookup precedes power calibration,
    // so a warm rerun of a many-core sweep performs zero simulations.
    return multicore_memo_.get(
        store_.get(), mix, multicoreConfigHash(cfg, resolved), [&] {
            ensureCalibrated(cancel);
            std::vector<BenchmarkProfile> profiles;
            profiles.reserve(resolved.benchmarks.size());
            for (const std::string &b : resolved.benchmarks)
                profiles.push_back(benchmarkByName(b));
            const MulticoreSystem engine(power_, hotspot_);
            return engine.run(profiles, cfg, configName(kind), resolved,
                              cancel);
        });
}

IntervalModel
System::runIntervalFit(const std::string &benchmark, ConfigKind kind,
                       const IntervalOptions &iopts,
                       const CancelToken *cancel)
{
    const CoreConfig cfg = makeConfig(kind, lib_);
    // Fitting needs no power model, so the store lookup alone makes a
    // warm fast-path run perform zero core simulations for the models.
    return interval_memo_.get(
        store_.get(), benchmark, intervalModelKey(cfg, iopts), [&] {
            return fitIntervalModel(benchmarkByName(benchmark), cfg, iopts,
                                    intervalFamilyHash(cfg),
                                    configHash(cfg), cancel);
        });
}

DtmReport
System::runIntervalDtm(const std::string &benchmark, ConfigKind kind,
                       const DtmOptions &dtm_opts,
                       const IntervalOptions &iopts,
                       const CancelToken *cancel)
{
    const IntervalModel model = runIntervalFit(benchmark, kind, iopts,
                                               cancel);
    // Replay still needs the calibrated power model (the calibration
    // core run is itself store-cached, so warm runs stay sim-free).
    ensureCalibrated(cancel);
    const CoreConfig cfg = makeConfig(kind, lib_);
    ReplayIntervalSource src(model, cfg);
    const DtmEngine engine(power_, hotspot_, planar_fp_, stacked_fp_);
    // Replay pairs the table-lookup core with the vertical-implicit
    // transient scheme: with the core cost gone, the explicit
    // stepper's stability-bound microsecond steps would dominate the
    // fast path, and the implicit scheme removes them for ~100x less
    // thermal work. Exact anchors measure the combined model +
    // integrator error, so the substitution is bounded, not assumed.
    return engine.run(src, benchmark, cfg, configName(kind), dtm_opts,
                      cancel, TransientScheme::VerticalImplicit);
}

ThermalReport
System::thermal(const Evaluation &eval, double power_scale) const
{
    const CoreConfig cfg = makeConfig(eval.config, lib_);
    const Floorplan &fp = cfg.stacked ? stacked_fp_ : planar_fp_;
    return hotspot_.analyze(fp, eval.power, cfg.stacked, power_scale);
}

} // namespace th
