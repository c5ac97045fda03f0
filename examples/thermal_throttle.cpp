/**
 * @file
 * Dynamic thermal management example (the paper's conclusions point at
 * trading a slice of the 3D performance gain for temperature — Black
 * et al.'s observation cited in Section 5.3). Uses the transient
 * thermal stepper: start the 4-die stack from an idle steady state, hit
 * it with a high-power phase, and compare free-running heating against
 * a simple throttle that sheds 30% of core power whenever the peak
 * crosses a trigger temperature.
 *
 *   ./build/examples/thermal_throttle
 */

#include <iostream>

#include "common/table.h"
#include "sim/system.h"

namespace {

using namespace th;

/** Deposit an evaluation's block powers into a grid. */
void
depositPower(ThermalGrid &grid, const System &sys,
             const ThermalReport &rep, const Floorplan &fp,
             double scale)
{
    grid.clearPower();
    (void)sys;
    for (const auto &b : rep.blocks) {
        const BlockRect *rect = fp.find(b.id, b.core);
        if (rect != nullptr)
            grid.addPower(b.die, rect->x, rect->y, rect->w, rect->h,
                          b.powerW * scale);
    }
}

} // namespace

int
main()
{
    using namespace th;

    SimOptions opts;
    opts.instructions = 120000;
    opts.warmupInstructions = 70000;
    System sys(opts);

    // High-power phase: the max-power app on the 3D-noTH processor
    // (the worst thermal actor).
    Evaluation hot = sys.evaluate("mpeg2enc", ConfigKind::ThreeDNoTH);
    const ThermalReport hot_rep = sys.thermal(hot);
    const Floorplan &fp = sys.stackedFloorplan();

    ThermalParams params = sys.hotspot().params();
    params.gridN = 32; // transient stepping is per-cell; keep it quick
    ThermalGrid grid(params, HotspotModel::stackedStack(), fp.chipW,
                     fp.chipH);

    // Idle steady state: 20% of the active power.
    depositPower(grid, sys, hot_rep, fp, 0.2);
    const ThermalField idle = grid.solve();
    std::cout << "idle steady state: peak "
              << fmtDouble(idle.peak(grid.dieLayers()), 1) << " K\n";

    // Free-running: full power burst for 60 ms, sampled every 5 ms.
    depositPower(grid, sys, hot_rep, fp, 1.0);
    TransientStepper free_run(grid, idle, 1e-4);
    std::vector<double> free_peaks;
    for (int interval = 0; interval < 12; ++interval) {
        free_run.advance(0.005);
        free_peaks.push_back(free_run.field().peak(grid.dieLayers()));
    }

    // Throttled: re-evaluate every 5 ms; if the peak exceeds the
    // trigger, shed 30% of the power for the next interval.
    const double trigger_k = 352.0;
    TransientStepper throttled(grid, idle, 1e-4);
    std::vector<double> throttled_peaks;
    int throttle_events = 0;
    for (int interval = 0; interval < 12; ++interval) {
        const bool too_hot =
            throttled.field().peak(grid.dieLayers()) > trigger_k;
        throttle_events += too_hot ? 1 : 0;
        depositPower(grid, sys, hot_rep, fp, too_hot ? 0.7 : 1.0);
        throttled.advance(0.005);
        throttled_peaks.push_back(
            throttled.field().peak(grid.dieLayers()));
    }

    std::cout << "\ntime (ms) | free-running peak (K) | throttled peak "
                 "(K)\n";
    Table t({"t (ms)", "free (K)", "throttled (K)"});
    for (size_t i = 0; i < throttled_peaks.size(); ++i) {
        t.addRow({fmtDouble((i + 1) * 5.0, 0),
                  fmtDouble(free_peaks[i], 1),
                  fmtDouble(throttled_peaks[i], 1)});
    }
    t.print(std::cout);

    std::cout << "\nthrottle trigger: " << fmtDouble(trigger_k, 0)
              << " K; intervals throttled: " << throttle_events
              << "/12 (30% power shed)\n";
    std::cout << "final peaks: free "
              << fmtDouble(free_peaks.back(), 1) << " K vs throttled "
              << fmtDouble(throttled_peaks.back(), 1) << " K\n";
    std::cout << "\nThermal Herding attacks the same problem at zero "
                 "performance cost by\nmoving the activity to the "
                 "heat-sink die instead of removing it.\n";
    return 0;
}
