/**
 * @file
 * Thermal-map example: renders ASCII heat maps of the processor dies
 * for the planar chip and the 4-die stack (with and without Thermal
 * Herding), the library's equivalent of the paper's Figure 10 plots.
 *
 *   ./build/examples/thermal_map [benchmark]
 */

#include <iostream>
#include <string>

#include "common/table.h"
#include "sim/system.h"
#include "thermal/grid.h"
#include "trace/suites.h"

namespace {

using namespace th;

/** Render one die layer of a solved field as ASCII art. */
void
renderDie(const ThermalGrid &grid, const ThermalField &field, int die,
          double lo_k, double hi_k, double chip_w, double chip_h)
{
    static const char shades[] = " .:-=+*#%@";
    const int cols = 44, rows = 20;
    for (int r = 0; r < rows; ++r) {
        std::cout << "  ";
        for (int c = 0; c < cols; ++c) {
            const double x = (c + 0.5) * chip_w / cols;
            // Row 0 at the top of the floorplan.
            const double y = chip_h - (r + 0.5) * chip_h / rows;
            double avg, peak;
            grid.blockTemps(field, die, x - 0.01, y - 0.01, 0.02, 0.02,
                            avg, peak);
            int idx = static_cast<int>((avg - lo_k) / (hi_k - lo_k) *
                                       9.0);
            idx = std::clamp(idx, 0, 9);
            std::cout << shades[idx];
        }
        std::cout << "\n";
    }
}

void
mapConfig(System &sys, const std::string &bench, ConfigKind kind)
{
    const Evaluation ev = sys.evaluate(bench, kind);
    const CoreConfig cfg = makeConfig(kind, sys.circuits());
    const Floorplan &fp = cfg.stacked ? sys.stackedFloorplan()
                                      : sys.planarFloorplan();

    // Re-run the analysis at grid level so we can render the field.
    ThermalGrid grid(sys.hotspot().params(),
                     cfg.stacked ? HotspotModel::stackedStack()
                                 : HotspotModel::planarStack(),
                     fp.chipW, fp.chipH);
    const ThermalReport rep = sys.thermal(ev);
    const int dies = cfg.stacked ? kNumDies : 1;
    for (const auto &b : rep.blocks) {
        const BlockRect *rect = fp.find(b.id, b.core);
        if (rect != nullptr)
            grid.addPower(b.die, rect->x, rect->y, rect->w, rect->h,
                          b.powerW);
    }
    const ThermalField field = grid.solve();

    std::cout << "=== " << configName(kind) << " on " << bench
              << ": total " << fmtDouble(ev.power.totalW(), 1)
              << " W, peak " << fmtDouble(rep.peakK, 1) << " K at "
              << rep.hottestBlock << " ===\n";
    const double lo = kAmbientK + 10.0;
    const double hi = rep.peakK;
    for (int d = 0; d < dies; ++d) {
        std::cout << "\n  die " << d
                  << (d == 0 ? " (closest to heat sink)" : "") << ":\n";
        renderDie(grid, field, d, lo, hi, fp.chipW, fp.chipH);
    }
    std::cout << "\n  scale: ' ' = " << fmtDouble(lo, 0) << " K ... '@' = "
              << fmtDouble(hi, 0) << " K\n\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace th;

    const std::string bench = argc > 1 ? argv[1] : "mpeg2enc";
    if (!hasBenchmark(bench)) {
        std::cerr << "unknown benchmark '" << bench << "'\n";
        return 1;
    }

    SimOptions opts;
    opts.instructions = 120000;
    opts.warmupInstructions = 70000;
    System sys(opts);

    mapConfig(sys, bench, ConfigKind::Base);
    mapConfig(sys, bench, ConfigKind::ThreeDNoTH);
    mapConfig(sys, bench, ConfigKind::ThreeD);
    return 0;
}
