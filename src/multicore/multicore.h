/**
 * @file
 * Many-core 3D stack simulation: N independent cycle cores (private
 * L1s, per-core trace streams so mixed benchmarks share one stack)
 * over a banked shared L2 contention model and a generated floorplan,
 * closed-loop per-core DTM on top.
 *
 * Each control interval the engine steps every core for its policy's
 * share of the interval (fanned across th::ThreadPool — cores are
 * independent, results reduce in core order, so any TH_THREADS value
 * is bit-identical), converts each core's activity delta into that
 * core's block powers, deposits the per-core map plus the
 * access-weighted L2 bank powers onto one shared thermal grid, and
 * marches the transient stepper. Every core then gets its own ladder
 * decision from its own block-peak temperature: only the hot core
 * throttles, and neighbour cores feel it purely through the silicon.
 */

#ifndef TH_MULTICORE_MULTICORE_H
#define TH_MULTICORE_MULTICORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/params.h"
#include "dtm/engine.h"
#include "power/power_model.h"
#include "thermal/hotspot.h"
#include "trace/generator.h"

namespace th {

/** Knobs of one many-core run (hashed by multicoreConfigHash). */
struct MulticoreConfig
{
    /** Cores on the stack. */
    int numCores = 2;
    /** Shared-L2 banks in the generated floorplan and queue model. */
    int l2Banks = 4;
    /** Bank busy cycles per L2 access (queue model service time). */
    int l2BankServiceCycles = 4;
    /** Outstanding-miss window per core (overlap hides queue delay). */
    int l2MshrPerCore = 8;
    /**
     * Per-core benchmark mix, cycled over the cores (core c runs
     * benchmarks[c % size]); empty = the caller's default benchmark
     * on every core.
     */
    std::vector<std::string> benchmarks;
    /** Per-core DTM knobs (each core owns a policy ladder instance). */
    DtmOptions dtm;
};

/** Final per-core row of a many-core run. */
struct MulticoreCoreStats
{
    std::string benchmark;
    double ipcFree = 0.0;      ///< Unthrottled interval-0 IPC.
    double ipcEffective = 0.0; ///< Committed / wall cycles.
    double throttleDuty = 0.0; ///< Mean capacity removed by DTM.
    double perfLost = 0.0;     ///< 1 - effective / free IPC.
    double startPeakK = 0.0;   ///< Core block peak, free-running field.
    double peakK = 0.0;        ///< Hottest core block peak over the run.
    double finalPeakK = 0.0;   ///< Core block peak at run end.
    /** Dilated time this core's block peak spent above the trigger. */
    double timeAboveTriggerS = 0.0;
    std::uint64_t wallCycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t l2Accesses = 0;
    /** Mean shared-L2 queueing latency per access (cycles). */
    double extraMissCycles = 0.0;
    /** Contention stall cycles / wall cycles. */
    double contentionStallFrac = 0.0;
};

/** Final per-bank row of the shared-L2 model. */
struct MulticoreBankStats
{
    std::uint64_t accesses = 0;
    double occupancy = 0.0;     ///< Mean busy fraction.
    double peakOccupancy = 0.0; ///< Hottest single interval.
};

/** Results of one many-core run (serialized by io/serialize.h). */
struct MulticoreReport
{
    std::string config; ///< Configuration display name.
    std::string policy; ///< dtmPolicyName() of the per-core policies.
    double triggerK = 0.0;
    double freqGhz = 0.0;
    std::uint32_t numCores = 0;
    std::uint32_t l2Banks = 0;
    std::uint32_t intervals = 0; ///< Control intervals completed.

    double startPeakK = 0.0; ///< Stack peak of the free-running field.
    double peakK = 0.0;      ///< Hottest instantaneous stack peak.
    double finalPeakK = 0.0;

    double totalTimeS = 0.0;        ///< Dilated time simulated.
    double timeAboveTriggerS = 0.0; ///< Dilated time above trigger.
    double throughputIpc = 0.0;     ///< Sum of per-core effective IPCs.

    std::vector<MulticoreCoreStats> cores;
    std::vector<MulticoreBankStats> banks;
};

/**
 * The many-core interval-coupling engine. Stateless across runs, like
 * DtmEngine: construct once per System, call run() per configuration.
 * The power model must already be calibrated.
 */
class MulticoreSystem
{
  public:
    MulticoreSystem(const PowerModel &power, const HotspotModel &hotspot);

    /**
     * Run the closed loop. @p profiles holds one benchmark profile per
     * core (size must equal mc.numCores); @p cfg supplies the core
     * microarchitecture, frequency, and planar/stacked selection the
     * generated floorplan follows. The transient integrator is the
     * explicit stepper, as in the cycle-accurate DtmEngine::run.
     */
    MulticoreReport run(const std::vector<BenchmarkProfile> &profiles,
                        const CoreConfig &cfg,
                        const std::string &config_name,
                        const MulticoreConfig &mc,
                        const CancelToken *cancel = nullptr) const;

  private:
    const PowerModel &power_;
    const HotspotModel &hotspot_;
};

} // namespace th

#endif // TH_MULTICORE_MULTICORE_H
