/**
 * @file
 * Physics properties of the thermal RC grid. They hold for any correct
 * steady solver or transient scheme on any floorplan, so they are
 * checked on every solver and scheme over planar and stacked generated
 * 1-8 core chips at the DTM grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "thermal/grid.h"
#include "thermal/hotspot.h"

namespace th {
namespace {

/** A generated chip under the multicore spreader rule. */
struct Chip
{
    Floorplan fp;
    ThermalParams params;
    bool stacked = false;
    int dies = 1;

    ThermalGrid grid() const
    {
        return ThermalGrid(params,
                           stacked ? HotspotModel::stackedStack()
                                   : HotspotModel::planarStack(),
                           fp.chipW, fp.chipH);
    }

    /** Deterministic, uneven block powers on every die. */
    void deposit(ThermalGrid &g) const
    {
        for (int d = 0; d < dies; ++d)
            for (size_t b = 0; b < fp.blocks.size(); ++b) {
                const BlockRect &r = fp.blocks[b];
                g.addPower(d, r.x, r.y, r.w, r.h,
                           0.5 + 0.1 * static_cast<double>((b + d) % 5));
            }
    }

    /** Every block's average and peak on every die, in that order. */
    std::vector<double> blockTemps(const ThermalGrid &g,
                                   const ThermalField &f) const
    {
        std::vector<double> out;
        for (int d = 0; d < dies; ++d)
            for (const BlockRect &r : fp.blocks) {
                double avg = 0.0, peak = 0.0;
                g.blockTemps(f, d, r.x, r.y, r.w, r.h, avg, peak);
                out.push_back(avg);
                out.push_back(peak);
            }
        return out;
    }
};

Chip
generatedChip(int cores, bool stacked, SolverKind solver,
              double max_residual_k)
{
    Chip c;
    c.fp = FloorplanBuilder::generate(cores, 4, stacked);
    c.stacked = stacked;
    c.dies = stacked ? kNumDies : 1;
    c.params.gridN = 16;
    c.params.solver = solver;
    c.params.maxResidualK = max_residual_k;
    c.params.spreaderMm = std::max(
        c.params.spreaderMm, std::max(c.fp.chipW, c.fp.chipH) * 5.0 / 3.0);
    return c;
}

/**
 * Add one watt to a block of chip @p c that varies with @p cores;
 * returns the index of that block's average in Chip::blockTemps().
 */
size_t
addOneWatt(ThermalGrid &grid, const Chip &c, int cores)
{
    const size_t b = static_cast<size_t>(cores * 3) % c.fp.blocks.size();
    const int die = cores % c.dies;
    const BlockRect &r = c.fp.blocks[b];
    grid.addPower(die, r.x, r.y, r.w, r.h, 1.0);
    return 2 * (static_cast<size_t>(die) * c.fp.blocks.size() + b);
}

/**
 * No block's average or peak in @p after may sit more than @p tol_k
 * below @p before; the heated block's own average must rise.
 */
void
expectNoBlockCools(const std::vector<double> &before,
                   const std::vector<double> &after, size_t heated_avg,
                   double tol_k, const std::string &what)
{
    ASSERT_EQ(before.size(), after.size());
    double worst = 0.0;
    for (size_t i = 0; i < before.size(); ++i)
        worst = std::min(worst, after[i] - before[i]);
    EXPECT_GE(worst, -tol_k) << what << ": a block cooled by " << -worst
                             << " K";
    EXPECT_GT(after[heated_avg], before[heated_avg] + 1e-3)
        << what << ": the heated block did not warm";
}

std::string
label(const char *name, bool stacked, int cores)
{
    return std::string(name) + (stacked ? " stacked " : " planar ") +
        std::to_string(cores) + " cores";
}

TEST(ThermalProperties, AddingPowerNeverCoolsABlockAtSteadyState)
{
    // The steady network is an M-matrix, whose inverse is non-negative:
    // a watt more anywhere can only raise every temperature. Solved to
    // 1e-9 K, either solver's field may err by far less than 1e-6 K.
    for (SolverKind solver : {SolverKind::Sor, SolverKind::Multigrid}) {
        for (bool stacked : {false, true}) {
            for (int cores = 1; cores <= 8; ++cores) {
                const Chip c = generatedChip(cores, stacked, solver, 1e-9);
                ThermalGrid grid = c.grid();
                c.deposit(grid);
                const std::vector<double> before =
                    c.blockTemps(grid, grid.solve());
                const size_t heated = addOneWatt(grid, c, cores);
                const std::vector<double> after =
                    c.blockTemps(grid, grid.solve());
                expectNoBlockCools(
                    before, after, heated, 1e-6,
                    label(solverKindName(solver), stacked, cores));
            }
        }
    }
}

TEST(ThermalProperties, AddingPowerNeverCoolsABlockInTransient)
{
    // Within its step bound each scheme's update has non-negative
    // weights (explicit Euler's 1 - dt * sum(G) / C >= 0.6, and the
    // implicit vertical solve inverts an M-matrix), so from one start
    // field a run with a watt more stays at least as warm everywhere,
    // up to rounding.
    for (TransientScheme scheme :
         {TransientScheme::Explicit, TransientScheme::VerticalImplicit}) {
        const char *name =
            scheme == TransientScheme::Explicit ? "explicit" : "imex";
        for (bool stacked : {false, true}) {
            for (int cores = 1; cores <= 8; ++cores) {
                const Chip c =
                    generatedChip(cores, stacked, SolverKind::Sor, 1e-4);
                ThermalGrid grid = c.grid();
                c.deposit(grid);
                const ThermalField start = grid.solve();

                TransientStepper base(grid, start, 1e-3, scheme);
                base.advance(0.01);
                const std::vector<double> before =
                    c.blockTemps(grid, base.field());
                const size_t heated = addOneWatt(grid, c, cores);
                TransientStepper hotter(grid, start, 1e-3, scheme);
                hotter.advance(0.01);
                const std::vector<double> after =
                    c.blockTemps(grid, hotter.field());
                expectNoBlockCools(before, after, heated, 1e-9,
                                   label(name, stacked, cores));
            }
        }
    }
}

} // namespace
} // namespace th
