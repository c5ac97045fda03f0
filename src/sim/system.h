/**
 * @file
 * Top-level facade: wires the circuit library, trace generator, core
 * model, power model, floorplans, and thermal model into one object —
 * the library's main entry point for running paper-style experiments.
 *
 * Thread model: runCore(), evaluate(), thermal(), and power() are safe
 * to call concurrently from the experiment thread pool. Each run owns
 * its trace generator, RNG, and core, so runs are independent; the
 * shared state is the lazily-calibrated power model (guarded by a
 * std::once_flag) and one mutex-guarded memo per artifact kind.
 */

#ifndef TH_SIM_SYSTEM_H
#define TH_SIM_SYSTEM_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "circuit/blocks.h"
#include "common/cancel.h"
#include "common/thread_annotations.h"
#include "core/pipeline.h"
#include "floorplan/floorplan.h"
#include "power/power_model.h"
#include "sim/configs.h"
#include "store/artifact_store.h"
#include "thermal/hotspot.h"
#include "trace/generator.h"

namespace th {

/** Simulation window sizes and persistence options. */
struct SimOptions
{
    std::uint64_t instructions = 200000;
    std::uint64_t warmupInstructions = 100000;

    /**
     * Directory of the persistent CoreResult store. Empty (the
     * default) falls back to the TH_STORE_DIR environment variable;
     * when that is unset too, the store is disabled and only the
     * in-memory cache memoizes runs.
     */
    std::string storeDir;
    /** LRU size cap of the store (0 = unlimited). */
    std::uint64_t storeMaxBytes = 256ULL << 20;
};

/** Combined results of one (benchmark, configuration) evaluation. */
struct Evaluation
{
    std::string benchmark;
    ConfigKind config = ConfigKind::Base;
    CoreResult core;
    PowerResult power;
};

/**
 * The Thermal Herding evaluation system. Construct once; it owns the
 * circuit library and the power calibration (against the dual-core
 * mpeg2 planar baseline, Section 5.2).
 */
class System
{
  public:
    explicit System(const SimOptions &opts = SimOptions{});

    /**
     * Run a benchmark's trace on a configuration (IPC only). @p cancel,
     * when non-null, is polled by the cycle loop: a fired token aborts
     * the run with a Cancelled throw and nothing partial is cached.
     */
    CoreResult runCore(const std::string &benchmark, ConfigKind kind,
                       const CancelToken *cancel = nullptr) const;

    /** Run a benchmark's trace on an explicit core configuration. */
    CoreResult runCore(const std::string &benchmark,
                       const CoreConfig &cfg,
                       const CancelToken *cancel = nullptr) const;

    /**
     * Run an arbitrary trace source (e.g. a replayed .thtrace file)
     * through a fresh core, using this system's simulation window.
     * Uncached: external traces have no registry-backed cache key.
     */
    CoreResult runTrace(TraceSource &trace, const CoreConfig &cfg) const;

    /** Run and compute power (calibrates lazily on first use). */
    Evaluation evaluate(const std::string &benchmark, ConfigKind kind,
                        const CancelToken *cancel = nullptr);

    /**
     * Closed-loop DTM run: couples the core, power model, and transient
     * thermal solver in fixed intervals under a throttling policy (see
     * dtm/engine.h). Results are memoized in memory and, when a store
     * is configured, persisted under dtmConfigHash(cfg, opts). The
     * persistent lookup happens *before* power calibration, so a warm
     * rerun of a DTM sweep performs zero core simulations.
     */
    DtmReport runDtm(const std::string &benchmark, ConfigKind kind,
                     const DtmOptions &dtm_opts,
                     const CancelToken *cancel = nullptr);

    /**
     * Fetch (or fit) the interval model of (benchmark, @p kind's
     * config-family): memory cache -> store (intervalModelKey) -> one
     * cycle-accurate fitting run, persisted when a store is configured.
     * The expensive entry point of the fast path; everything replayed
     * afterwards reuses the returned model.
     */
    IntervalModel runIntervalFit(const std::string &benchmark,
                                 ConfigKind kind,
                                 const IntervalOptions &iopts,
                                 const CancelToken *cancel = nullptr);

    /**
     * Many-core stack run: N cycle cores with private L1s and per-core
     * trace streams over a banked shared L2 and a generated floorplan,
     * per-core DTM on top (see multicore/multicore.h). The per-core
     * mix comes from @p mc.benchmarks cycled over the cores (empty =
     * kPowerReferenceBenchmark everywhere). Results are memoized in
     * memory and, when a store is configured, persisted under
     * multicoreConfigHash with the resolved mix joined by '+' as the
     * benchmark key; like runDtm, the persistent lookup happens before
     * power calibration so a warm rerun performs zero simulations.
     */
    MulticoreReport runMulticore(ConfigKind kind,
                                 const MulticoreConfig &mc,
                                 const CancelToken *cancel = nullptr);

    /**
     * Closed-loop DTM run on the interval fast path: replays the
     * fitted model of (benchmark, config-family) through the DtmEngine
     * instead of stepping the cycle-accurate core — 100-1000x faster,
     * approximate (callers report error bounds against exact anchors;
     * see runFamilySweep in sim/experiments.h). Replayed reports are
     * cheap and approximate, so they are neither memoized nor
     * persisted; only the fitted model is.
     */
    DtmReport runIntervalDtm(const std::string &benchmark,
                             ConfigKind kind, const DtmOptions &dtm_opts,
                             const IntervalOptions &iopts,
                             const CancelToken *cancel = nullptr);

    /** Thermal analysis of an evaluation. */
    ThermalReport thermal(const Evaluation &eval,
                          double power_scale = 1.0) const;

    /** Hit/miss counters of the memoizing CoreResult cache. */
    struct CacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /**
     * Cache accounting. Figures sharing a (benchmark, config) pair —
     * Fig 8/9/10 all re-run Base and 3D — simulate it only once.
     */
    CacheStats coreCacheStats() const;

    /** Drop all memoized CoreResults and reset the counters. */
    void clearCoreCache();

    /**
     * Counters of the persistent artifact store (all zero when no
     * store directory is configured). On a warm run of a figure sweep
     * every simulation the cold run performed is served as a store
     * hit instead.
     */
    StoreStats storeStats() const;

    /** True when a persistent store directory is configured. */
    bool storeEnabled() const;

    /** The store directory ("" when disabled). */
    std::string storeDir() const;

    const BlockLibrary &circuits() const { return lib_; }
    PowerModel &power();
    const HotspotModel &hotspot() const { return hotspot_; }
    const SimOptions &options() const { return opts_; }
    const Floorplan &planarFloorplan() const { return planar_fp_; }
    const Floorplan &stackedFloorplan() const { return stacked_fp_; }

    /** The benchmark the paper calibrates power against. */
    static constexpr const char *kPowerReferenceBenchmark = "mpeg2enc";

  private:
    void ensureCalibrated(const CancelToken *cancel = nullptr) const;
    /** The uncached simulation path behind the memoizing cache. */
    CoreResult simulate(const std::string &benchmark,
                        const CoreConfig &cfg,
                        const CancelToken *cancel) const;

    SimOptions opts_;
    BlockLibrary lib_;
    mutable PowerModel power_;
    HotspotModel hotspot_;
    Floorplan planar_fp_;
    Floorplan stacked_fp_;
    // th_lint: guards(power_ — calibrated exactly once before first read)
    mutable std::once_flag calibrate_once_;

    /**
     * Memo of one artifact kind: memory, then the store, then compute.
     * Safe to call concurrently; two concurrent misses of one key both
     * compute (bit-identical results) and the first insert wins.
     */
    template <typename T>
    class Memo
    {
      public:
        /**
         * The memoized @p T of (@p benchmark, @p key_hash): a memory
         * hit, else a store hit, else @p compute() persisted to the
         * store; either way inserted into memory.
         */
        template <typename Compute>
        T get(ArtifactStore *store, const std::string &benchmark,
              std::uint64_t key_hash, Compute &&compute)
        {
            const std::string key =
                benchmark + '\0' + std::to_string(key_hash);
            {
                LockGuard lock(mu_);
                auto it = map_.find(key);
                if (it != map_.end()) {
                    hits_.fetch_add(1, std::memory_order_relaxed);
                    return it->second;
                }
            }
            misses_.fetch_add(1, std::memory_order_relaxed);
            // A corrupt store entry is quarantined inside load() and
            // falls through to recomputation.
            T value;
            if (store == nullptr ||
                !store->load(benchmark, key_hash, value)) {
                value = compute();
                if (store != nullptr)
                    store->save(benchmark, key_hash, value);
            }
            LockGuard lock(mu_);
            map_.emplace(key, value);
            return value;
        }

        CacheStats stats() const
        {
            return {hits_.load(std::memory_order_relaxed),
                    misses_.load(std::memory_order_relaxed)};
        }

        /** Drop every memoized value and reset the counters. */
        void clear()
        {
            LockGuard lock(mu_);
            map_.clear();
            hits_.store(0, std::memory_order_relaxed);
            misses_.store(0, std::memory_order_relaxed);
        }

      private:
        Mutex mu_;
        std::unordered_map<std::string, T> // th_lint: excluded(lookup-only cache; never iterated)
            map_ TH_GUARDED_BY(mu_);
        std::atomic<std::uint64_t> hits_{0};
        std::atomic<std::uint64_t> misses_{0};
    };

    mutable Memo<CoreResult> core_memo_;
    mutable Memo<DtmReport> dtm_memo_;
    mutable Memo<IntervalModel> interval_memo_;
    mutable Memo<MulticoreReport> multicore_memo_;

    /** Disk-backed artifact store; null when disabled. */
    mutable std::unique_ptr<ArtifactStore> store_;
};

} // namespace th

#endif // TH_SIM_SYSTEM_H
