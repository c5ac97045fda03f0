/**
 * @file
 * Closed-loop dynamic thermal management engine — the interval-coupled
 * performance -> power -> transient-thermal loop (the CoMeT-style
 * methodology) the paper's Section 5 DTM claims call for.
 *
 * Each control interval the engine (1) runs the core incrementally for
 * one interval of cycles (scaled by the policy's clock duty), (2)
 * converts the interval's activity delta into a PowerResult with the
 * calibrated power model, (3) deposits that power onto the thermal
 * grid — dynamic and clock power scaled by the duty cycle, leakage
 * always on — and marches the resumable transient stepper forward by
 * the interval's (dilated) wall time, then (4) feeds the new stack
 * peak temperature to the DtmPolicy, which picks the next interval's
 * actuator setting. The run starts from the steady-state field of the
 * free-running power map, so the policy immediately sees whether the
 * configuration's sustained operating point violates the trigger (the
 * paper's qualitative claim: naive 3D does, herding does not).
 */

#ifndef TH_DTM_ENGINE_H
#define TH_DTM_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/params.h"
#include "core/pipeline.h"
#include "dtm/policy.h"
#include "floorplan/floorplan.h"
#include "power/power_model.h"
#include "thermal/hotspot.h"
#include "trace/generator.h"

namespace th {

/**
 * Coarsest thermal grid the closed-loop engines accept (DtmEngine and
 * MulticoreSystem). Request validation rejects anything below it, so
 * a served request never reaches the engines' fatal() check.
 */
inline constexpr int kMinDtmGridN = 4;

/** Knobs of one DTM run. */
struct DtmOptions
{
    /** Control interval length in core cycles. */
    std::uint64_t intervalCycles = 50000;
    /** Number of control intervals simulated (after the measurement
     *  interval that establishes the free-running operating point). */
    int maxIntervals = 40;
    /** Core warm-up window before the first interval (instructions). */
    std::uint64_t warmupInstructions = 20000;

    DtmPolicyKind policy = DtmPolicyKind::ClockGate;
    DtmTriggers triggers;

    /**
     * Thermal-time acceleration. One 50K-cycle interval spans ~19 us
     * of wall time — far below the millisecond die/spreader time
     * constants, so an undilated run would never move the thermal
     * state. Each interval's power map is instead held for
     * timeDilation x the interval's wall time, standing in for the
     * paper-scale sampling windows a full-length trace would provide.
     */
    double timeDilation = 400.0;

    /** Thermal grid resolution (coarser than Fig. 10's default 48:
     *  the transient loop steps the grid thousands of times). */
    int gridN = 16;
    /** Requested transient step; clamped to the stability bound. */
    double maxDtS = 1e-4;
    /** Steady-state solver for the free-running starting field
     *  (multigrid pays off at high gridN). */
    SolverKind solver = SolverKind::Sor;
};

/**
 * Call fn(name, o.knob...) once per DtmOptions knob (the DtmTriggers
 * members under "triggers."), passing the same member of every
 * argument, in store-key order. This is the one list of DTM inputs:
 * dtmConfigHash and multicoreConfigHash (sim/configs.cpp) fold it.
 * Changing the order or the set changes both keys, so it must bump
 * kDtmReportSchemaVersion and kMulticoreReportSchemaVersion and update
 * the golden table in tests/test_configs.cpp.
 */
template <class Fn, class... Opts>
void
forEachDtmOption(Fn &&fn, Opts &&...o)
{
    fn("intervalCycles", o.intervalCycles...);
    fn("maxIntervals", o.maxIntervals...);
    fn("warmupInstructions", o.warmupInstructions...);
    fn("policy", o.policy...);
    fn("triggers.triggerK", o.triggers.triggerK...);
    fn("triggers.hysteresisK", o.triggers.hysteresisK...);
    fn("timeDilation", o.timeDilation...);
    fn("gridN", o.gridN...);
    fn("maxDtS", o.maxDtS...);
    fn("solver", o.solver...);
}

/** One control interval of a DTM run. */
struct DtmIntervalSample
{
    double timeS = 0.0;  ///< Dilated thermal time at interval end.
    double peakK = 0.0;  ///< Stack peak at interval end.
    double clockDuty = 1.0;
    int fetchOn = 1;
    int fetchPeriod = 1;
    std::uint64_t cycles = 0;    ///< Core cycles actually run.
    std::uint64_t committed = 0; ///< Instructions committed.
    double powerW = 0.0;         ///< Wall-averaged chip power.
    bool throttled = false;
};

/** Results of one closed-loop DTM run (serialized by io/serialize.h). */
struct DtmReport
{
    std::string benchmark;
    std::string config; ///< Configuration display name.
    std::string policy; ///< dtmPolicyName() of the active policy.
    double triggerK = 0.0;
    double freqGhz = 0.0;

    std::vector<DtmIntervalSample> intervals;

    /** Steady-state stack peak of the free-running power map. */
    double startPeakK = 0.0;
    /** Hottest instantaneous stack peak over the run. */
    double peakK = 0.0;
    double finalPeakK = 0.0;

    double totalTimeS = 0.0;        ///< Dilated time simulated.
    double timeAboveTriggerS = 0.0; ///< Dilated time above trigger.

    /** Mean fraction of machine capacity removed by the actuators
     *  (0 = never throttled, 0.75 = pinned at the deepest level). */
    double throttleDuty = 0.0;
    /** Throughput lost to DTM: 1 - effective IPC / free-run IPC. */
    double perfLost = 0.0;

    double ipcFree = 0.0;      ///< Unthrottled interval-0 IPC.
    double ipcEffective = 0.0; ///< Committed / wall cycles.
    std::uint64_t wallCycles = 0;
    std::uint64_t committed = 0;
};

/**
 * What the DTM control loop needs from a performance model: an
 * actuator for the fetch throttle and an incremental stepper that
 * yields per-interval delta statistics. The cycle-accurate Core
 * satisfies it via CoreIntervalSource; the fitted-model fast path via
 * interval/replay.h's ReplayIntervalSource. The engine is oblivious
 * to which one drives it.
 */
class IntervalSource
{
  public:
    virtual ~IntervalSource() = default;

    /** Fetch enabled @p on cycles out of every @p period (1/1 = off). */
    virtual void setFetchThrottle(int on, int period) = 0;

    /**
     * Advance up to @p cycles cycles and return that interval's delta
     * statistics (zero cycles once the workload is exhausted).
     */
    virtual CoreResult runFor(std::uint64_t cycles) = 0;

    /** True once the workload ended and no further work remains. */
    virtual bool done() const = 0;
};

/** The exact path: pure delegation to a stepping cycle-level Core. */
class CoreIntervalSource : public IntervalSource
{
  public:
    /** @p core must have beginRun() already called and outlive this. */
    explicit CoreIntervalSource(Core &core) : core_(core) {}

    void setFetchThrottle(int on, int period) override
    {
        core_.setFetchThrottle(on, period);
    }
    CoreResult runFor(std::uint64_t cycles) override
    {
        return core_.runFor(cycles);
    }
    bool done() const override { return core_.runDone(); }

  private:
    Core &core_;
};

/**
 * The interval-coupling engine. Stateless across runs: construct once
 * per System and call run() per (benchmark, config, options) triple.
 * The power model must already be calibrated.
 */
class DtmEngine
{
  public:
    DtmEngine(const PowerModel &power, const HotspotModel &hotspot,
              const Floorplan &planar_fp, const Floorplan &stacked_fp);

    /**
     * Run the closed loop over the cycle-accurate core (the exact
     * path): constructs the trace and Core, then delegates to the
     * IntervalSource overload below — computationally identical to
     * driving it by hand.
     *
     * @p cancel, when non-null, is checked between control intervals;
     * a fired token aborts the run with a Cancelled throw.
     */
    DtmReport run(const BenchmarkProfile &profile,
                  const CoreConfig &cfg, const std::string &config_name,
                  const DtmOptions &opts,
                  const CancelToken *cancel = nullptr) const;

    /**
     * Run the closed loop over an arbitrary interval source (warmed-up
     * and ready to step). @p cfg supplies the frequency, floorplan
     * selection, and power-model configuration the source's statistics
     * are interpreted under.
     *
     * @p scheme selects the transient integrator: the cycle-accurate
     * path keeps the explicit stepper (byte-compatible with every
     * report produced before the scheme existed), while interval
     * replay passes TransientScheme::VerticalImplicit — with the core
     * model reduced to a table lookup, the explicit stepper's
     * stability-bound microsecond steps would dominate the fast path's
     * wall clock, and the implicit scheme steps at a fixed fraction of
     * the control interval instead (engine.cpp kImplicitStepsPerInterval).
     * The fast path's exact anchors measure whatever error the scheme
     * difference adds, so it is bounded, not assumed.
     */
    DtmReport run(IntervalSource &src, const std::string &benchmark,
                  const CoreConfig &cfg, const std::string &config_name,
                  const DtmOptions &opts,
                  const CancelToken *cancel = nullptr,
                  TransientScheme scheme =
                      TransientScheme::Explicit) const;

  private:
    const PowerModel &power_;
    const HotspotModel &hotspot_;
    const Floorplan &planar_;
    const Floorplan &stacked_;
};

} // namespace th

#endif // TH_DTM_ENGINE_H
