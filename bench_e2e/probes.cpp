/**
 * @file
 * Thermal-layer probes of dtm_exact's traced runs. DtmEngine builds its
 * grid internally, so the per-interval cost of depositing a block map
 * and of one control interval under each transient scheme is measured
 * here on a grid built the way the engine builds it for the 3D config
 * (same layer stack, floorplan, resolution and interval length), under
 * the calibrated mpeg2enc power map. The implicit scheme's numbers are
 * what dtm_exact's stacked runs would cost on it.
 */

#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "sim/configs.h"
#include "sim/system.h"
#include "thermal/grid.h"
#include "workloads.h"

namespace bench {

namespace {

using namespace th;

/**
 * One interval's block map at full duty, as DtmEngine deposits it on a
 * stacked floorplan: per-block dynamic power plus the block's area share
 * of clock and leakage, on every die.
 */
void
depositBlockMap(ThermalGrid &grid, const Floorplan &fp, const PowerResult &p)
{
    const double total_area = fp.blockArea();
    for (const BlockRect &rect : fp.blocks) {
        const double area_frac = rect.area() / total_area;
        for (int d = 0; d < kNumDies; ++d) {
            const auto die = static_cast<std::size_t>(d);
            const double dyn = rect.id == BlockId::L2
                ? p.l2.dieW[die]
                : p.coreBlocks[static_cast<std::size_t>(rect.id)].dieW[die];
            grid.addPower(d, rect.x, rect.y, rect.w, rect.h,
                          dyn + (p.clockW + p.leakW) * area_frac / kNumDies);
        }
    }
}

template <typename Fn>
double
medianMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return median(ms);
}

} // namespace

void
runThermalProbes(const std::string &workload, Counters &out)
{
    if (workload != "dtm_exact")
        return; // figs_* and serve drive no thermal grid.
    DtmOptions dtm;
    dtm.intervalCycles = kDtmIntervalCycles;
    ThermalParams params = HotspotModel().params();
    params.gridN = dtm.gridN;
    const Floorplan fp = FloorplanBuilder::stacked();

    System sys;
    const Evaluation ev =
        sys.evaluate(System::kPowerReferenceBenchmark, ConfigKind::ThreeD);
    const CoreConfig cfg = makeConfig(ConfigKind::ThreeD, sys.circuits());
    ThermalGrid grid(params, HotspotModel::stackedStack(), fp.chipW,
                     fp.chipH);

    out.set("floorplan.deposit_ms", medianMs(20, [&] {
                grid.clearPower();
                depositBlockMap(grid, fp, ev.power);
            }));
    ThermalGrid::SolveStats stats;
    const ThermalField init = grid.solve(&stats);
    out.set("thermal.steady_iters", stats.iterations);

    const double interval_s = static_cast<double>(dtm.intervalCycles) /
        (cfg.freqGhz * 1e9) * dtm.timeDilation;
    struct Scheme
    {
        TransientScheme scheme;
        double dtRequest;
        const char *steps;
        const char *ms;
    };
    // The requests DtmEngine::run makes: maxDtS for the explicit
    // scheme, a sixteenth of the interval for the implicit one.
    const Scheme schemes[] = {
        {TransientScheme::Explicit, dtm.maxDtS,
         "thermal.explicit.steps_per_interval",
         "thermal.explicit.interval_ms"},
        {TransientScheme::VerticalImplicit, interval_s / 16.0,
         "thermal.imex.steps_per_interval", "thermal.imex.interval_ms"},
    };
    for (const Scheme &s : schemes) {
        std::int64_t steps = 0;
        out.set(s.ms, medianMs(3, [&] {
                    TransientStepper stepper(grid, init, s.dtRequest,
                                             s.scheme);
                    stepper.advance(interval_s);
                    steps = stepper.steps();
                }));
        out.set(s.steps, static_cast<double>(steps));
    }
}

} // namespace bench
