#include "dtm/engine.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "core/pipeline.h"
#include "thermal/grid.h"

namespace th {

namespace {

/**
 * Deposit one interval's power map onto the grid. Dynamic and clock
 * power scale with @p duty (wall-averaging: the gated clock spends
 * duty of the interval switching); leakage burns whenever the supply
 * is on, i.e. always. Mirrors HotspotModel::analyze's block placement
 * but without the leakage-temperature feedback — the transient loop
 * resamples power every interval anyway, and nominal leakage keeps the
 * closed loop's actuation the only feedback path.
 */
void
depositPower(ThermalGrid &grid, const Floorplan &fp,
             const PowerResult &power, bool stacked, double duty)
{
    const int dies = stacked ? kNumDies : 1;
    const double total_area = fp.blockArea();
    for (const BlockRect &rect : fp.blocks) {
        const double area_frac = rect.area() / total_area;
        for (int d = 0; d < dies; ++d) {
            double dyn;
            if (rect.id == BlockId::L2) {
                dyn = power.l2.dieW[static_cast<size_t>(d)];
            } else {
                dyn = power.coreBlocks[static_cast<size_t>(rect.id)]
                          .dieW[static_cast<size_t>(d)];
            }
            const double watts =
                duty * (dyn + power.clockW * area_frac / dies) +
                power.leakW * area_frac / dies;
            grid.addPower(d, rect.x, rect.y, rect.w, rect.h, watts);
        }
    }
}

} // namespace

DtmEngine::DtmEngine(const PowerModel &power, const HotspotModel &hotspot,
                     const Floorplan &planar_fp,
                     const Floorplan &stacked_fp)
    : power_(power), hotspot_(hotspot), planar_(planar_fp),
      stacked_(stacked_fp)
{
}

DtmReport
DtmEngine::run(const BenchmarkProfile &profile, const CoreConfig &cfg,
               const std::string &config_name, const DtmOptions &opts,
               const CancelToken *cancel) const
{
    SyntheticTrace trace(profile);
    Core core(cfg);
    core.beginRun(trace, opts.warmupInstructions);
    CoreIntervalSource src(core);
    return run(src, profile.name, cfg, config_name, opts, cancel);
}

DtmReport
DtmEngine::run(IntervalSource &src, const std::string &benchmark,
               const CoreConfig &cfg, const std::string &config_name,
               const DtmOptions &opts, const CancelToken *cancel,
               TransientScheme scheme) const
{
    if (!power_.calibrated())
        fatal("DTM engine needs a calibrated power model");
    if (opts.intervalCycles == 0 || opts.maxIntervals < 1)
        fatal("DTM needs a positive interval length and count");
    if (opts.gridN < kMinDtmGridN)
        fatal("DTM thermal grid too coarse (gridN %d)", opts.gridN);

    const Floorplan &fp = cfg.stacked ? stacked_ : planar_;
    ThermalParams tp = hotspot_.params();
    tp.gridN = opts.gridN;
    tp.solver = opts.solver;
    ThermalGrid grid(tp,
                     cfg.stacked ? HotspotModel::stackedStack()
                                 : HotspotModel::planarStack(),
                     fp.chipW, fp.chipH);
    const std::vector<int> die_layers = grid.dieLayers();

    const double wall_interval_s =
        static_cast<double>(opts.intervalCycles) / (cfg.freqGhz * 1e9);
    const double thermal_interval_s =
        wall_interval_s * opts.timeDilation;

    DtmReport rep;
    rep.benchmark = benchmark;
    rep.config = config_name;
    rep.policy = dtmPolicyName(opts.policy);
    rep.triggerK = opts.triggers.triggerK;
    rep.freqGhz = cfg.freqGhz;

    // Measurement interval: one free-running interval establishes the
    // sustained power map and the baseline IPC the perf-lost metric is
    // judged against.
    const CoreResult first = src.runFor(opts.intervalCycles);
    if (first.perf.cycles.value() == 0)
        fatal("trace of '%s' drained before the first DTM interval",
              benchmark.c_str());
    const PowerResult free_power = power_.compute(first, cfg);
    rep.ipcFree = first.perf.ipc();

    // Starting state: the steady field of the free-running map — the
    // temperature the package settles at if DTM never intervenes. The
    // policy's first decision sees exactly this operating point.
    depositPower(grid, fp, free_power, cfg.stacked, 1.0);
    ThermalField init = grid.solve();
    rep.startPeakK = init.peak(die_layers);
    rep.peakK = rep.startPeakK;

    // The explicit scheme's step request is the options' maxDtS (the
    // stability clamp usually bites first). The implicit scheme is
    // stable at any lateral-bounded step, so its request is accuracy-
    // driven: a fixed fraction of the control interval, fine enough
    // that the resolved (lateral + sink) dynamics match the explicit
    // trajectory to well under the fast path's anchor error bounds.
    constexpr double kImplicitStepsPerInterval = 16.0;
    const double dt_request =
        scheme == TransientScheme::VerticalImplicit
            ? thermal_interval_s / kImplicitStepsPerInterval
            : opts.maxDtS;
    TransientStepper stepper(grid, init, dt_request, scheme);
    std::unique_ptr<DtmPolicy> policy =
        makeDtmPolicy(opts.policy, opts.triggers);

    double peak_now = rep.startPeakK;
    double duty_removed = 0.0;
    rep.intervals.reserve(static_cast<size_t>(opts.maxIntervals));

    for (int i = 0; i < opts.maxIntervals && !src.done(); ++i) {
        if (cancel != nullptr && cancel->cancelled())
            throw Cancelled();
        const DtmControl ctl = policy->decide(peak_now);
        src.setFetchThrottle(ctl.fetchOn, ctl.fetchPeriod);
        const auto run_cycles = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(
                   ctl.clockDuty *
                   static_cast<double>(opts.intervalCycles))));

        const CoreResult r = src.runFor(run_cycles);
        if (r.perf.cycles.value() == 0)
            break; // Trace drained exactly at the boundary.

        const PowerResult p = power_.compute(r, cfg);
        grid.clearPower();
        depositPower(grid, fp, p, cfg.stacked, ctl.clockDuty);
        stepper.advance(thermal_interval_s);
        peak_now = stepper.field().peak(die_layers);

        DtmIntervalSample s;
        s.timeS = stepper.timeS();
        s.peakK = peak_now;
        s.clockDuty = ctl.clockDuty;
        s.fetchOn = ctl.fetchOn;
        s.fetchPeriod = ctl.fetchPeriod;
        s.cycles = r.perf.cycles.value();
        s.committed = r.perf.committedInsts.value();
        s.powerW = ctl.clockDuty * (p.dynamicW() + p.clockW) + p.leakW;
        s.throttled = ctl.throttled();
        rep.intervals.push_back(s);

        rep.peakK = std::max(rep.peakK, peak_now);
        rep.wallCycles += opts.intervalCycles;
        rep.committed += s.committed;
        duty_removed += 1.0 - ctl.dutyFraction();
        if (peak_now > opts.triggers.triggerK)
            rep.timeAboveTriggerS += thermal_interval_s;
    }

    const auto n = static_cast<double>(rep.intervals.size());
    rep.finalPeakK = peak_now;
    rep.totalTimeS = stepper.timeS();
    rep.throttleDuty = n > 0.0 ? duty_removed / n : 0.0;
    rep.ipcEffective =
        rep.wallCycles > 0
            ? static_cast<double>(rep.committed) /
                  static_cast<double>(rep.wallCycles)
            : 0.0;
    rep.perfLost =
        rep.ipcFree > 0.0
            ? std::max(0.0, 1.0 - rep.ipcEffective / rep.ipcFree)
            : 0.0;
    return rep;
}

} // namespace th
