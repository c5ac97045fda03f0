#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/threadpool.h"
#include "thermal/grid.h"
#include "thermal/hotspot.h"
#include "thermal/multigrid.h"

namespace th {
namespace {

ThermalParams
fastParams()
{
    ThermalParams p;
    p.gridN = 24;
    p.maxResidualK = 1e-3;
    return p;
}

ThermalGrid
makePlanarGrid(const ThermalParams &p)
{
    return ThermalGrid(p, HotspotModel::planarStack(), 12.0, 12.0);
}

TEST(ThermalGrid, NoPowerStaysAmbient)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = makePlanarGrid(p);
    const ThermalField f = grid.solve();
    EXPECT_NEAR(f.peak(grid.dieLayers()), kAmbientK, 0.5);
}

TEST(ThermalGrid, PowerHeatsTheDie)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = makePlanarGrid(p);
    grid.addPower(0, 4.0, 4.0, 4.0, 4.0, 50.0);
    const ThermalField f = grid.solve();
    EXPECT_GT(f.peak(grid.dieLayers()), kAmbientK + 10.0);
}

TEST(ThermalGrid, MorePowerIsHotter)
{
    const ThermalParams p = fastParams();
    double peaks[2];
    int i = 0;
    for (double w : {30.0, 60.0}) {
        ThermalGrid grid = makePlanarGrid(p);
        grid.addPower(0, 4.0, 4.0, 4.0, 4.0, w);
        peaks[i++] = grid.solve().peak(grid.dieLayers());
    }
    EXPECT_GT(peaks[1], peaks[0] + 5.0);
}

TEST(ThermalGrid, ConcentratedPowerHotterThanSpread)
{
    const ThermalParams p = fastParams();
    ThermalGrid tight = makePlanarGrid(p);
    tight.addPower(0, 5.0, 5.0, 2.0, 2.0, 40.0);
    ThermalGrid spread = makePlanarGrid(p);
    spread.addPower(0, 0.0, 0.0, 12.0, 12.0, 40.0);
    EXPECT_GT(tight.solve().peak(tight.dieLayers()),
              spread.solve().peak(spread.dieLayers()) + 3.0);
}

TEST(ThermalGrid, HotspotIsUnderThePowerSource)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = makePlanarGrid(p);
    grid.addPower(0, 1.0, 1.0, 2.0, 2.0, 30.0);
    const ThermalField f = grid.solve();
    double a_avg, a_peak, b_avg, b_peak;
    grid.blockTemps(f, 0, 1.0, 1.0, 2.0, 2.0, a_avg, a_peak);
    grid.blockTemps(f, 0, 9.0, 9.0, 2.0, 2.0, b_avg, b_peak);
    EXPECT_GT(a_avg, b_avg + 2.0);
}

TEST(ThermalGrid, BlockAvgBelowPeak)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = makePlanarGrid(p);
    grid.addPower(0, 3.0, 3.0, 1.0, 1.0, 25.0);
    const ThermalField f = grid.solve();
    double avg, peak;
    grid.blockTemps(f, 0, 0.0, 0.0, 12.0, 12.0, avg, peak);
    EXPECT_LE(avg, peak);
}

TEST(ThermalGrid, TotalPowerAccounting)
{
    ThermalGrid grid = makePlanarGrid(fastParams());
    grid.addPower(0, 1.0, 1.0, 3.0, 3.0, 12.5);
    grid.addPower(0, 6.0, 6.0, 2.0, 2.0, 7.5);
    EXPECT_NEAR(grid.totalPower(), 20.0, 1e-9);
    grid.clearPower();
    EXPECT_DOUBLE_EQ(grid.totalPower(), 0.0);
}

TEST(ThermalGrid, EdgeClippedRectKeepsItsWatts)
{
    // A block at the chip edge must deposit all its power.
    ThermalGrid grid = makePlanarGrid(fastParams());
    grid.addPower(0, 11.0, 11.0, 1.0, 1.0, 5.0);
    EXPECT_NEAR(grid.totalPower(), 5.0, 1e-9);
}

TEST(ThermalGrid, StackedDeeperDieRunsHotter)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid(p, HotspotModel::stackedStack(), 6.0, 6.0);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField f = grid.solve();
    double a0, p0, a3, p3;
    grid.blockTemps(f, 0, 0.0, 0.0, 6.0, 6.0, a0, p0);
    grid.blockTemps(f, 3, 0.0, 0.0, 6.0, 6.0, a3, p3);
    // Die 3 is farthest from the sink.
    EXPECT_GT(a3, a0);
}

TEST(ThermalGrid, HerdingPowerToTopDieIsCooler)
{
    const ThermalParams p = fastParams();
    ThermalGrid herd(p, HotspotModel::stackedStack(), 6.0, 6.0);
    herd.addPower(0, 0.0, 0.0, 6.0, 6.0, 45.0);
    for (int d = 1; d < kNumDies; ++d)
        herd.addPower(d, 0.0, 0.0, 6.0, 6.0, 5.0);

    ThermalGrid flat(p, HotspotModel::stackedStack(), 6.0, 6.0);
    for (int d = 0; d < kNumDies; ++d)
        flat.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);

    EXPECT_LT(herd.solve().peak(herd.dieLayers()),
              flat.solve().peak(flat.dieLayers()));
}

TEST(ThermalGrid, DieLayersEnumerated)
{
    ThermalGrid planar = makePlanarGrid(fastParams());
    EXPECT_EQ(planar.dieLayers().size(), 1u);
    EXPECT_EQ(planar.dieLayer(0), 3);
    EXPECT_EQ(planar.dieLayer(7), -1);

    ThermalGrid stacked(fastParams(), HotspotModel::stackedStack(),
                        6.0, 6.0);
    EXPECT_EQ(stacked.dieLayers().size(), 4u);
}

// ---------------------------------------------------------------------
// Multigrid operators and the multigrid steady-state path.
// ---------------------------------------------------------------------

/** Uniform single-layer network: lateral couplings 1, convection 0.1
 *  everywhere — every cell is material, so the operator algebra is
 *  easy to check by hand. */
MgLevel
uniformFineLevel(int n)
{
    PaddedNetwork net;
    net.resize(n, 1);
    for (int iy = 0; iy < n; ++iy) {
        for (int ix = 0; ix < n; ++ix) {
            const size_t c = net.at(0, ix, iy);
            net.gAmb[c] = 0.1;
            if (ix + 1 < n)
                net.gRight[c] = 1.0;
            if (iy + 1 < n)
                net.gDown[c] = 1.0;
        }
    }
    return mgFineLevel(net);
}

TEST(Multigrid, RestrictionSumsBlockResiduals)
{
    MgLevel fine = uniformFineLevel(8);
    MgLevel coarse = mgCoarsen(fine);
    ASSERT_EQ(coarse.n, 4);

    // Distinct residuals per fine cell; each coarse rhs must be the
    // exact sum of its 2x2 block.
    for (int iy = 0; iy < 8; ++iy)
        for (int ix = 0; ix < 8; ++ix)
            fine.res[fine.at(0, ix, iy)] = 1.0 + iy * 8 + ix;
    mgRestrict(fine, coarse, ThreadPool::global());
    for (int cy = 0; cy < 4; ++cy) {
        for (int cx = 0; cx < 4; ++cx) {
            const double want =
                fine.res[fine.at(0, 2 * cx, 2 * cy)] +
                fine.res[fine.at(0, 2 * cx + 1, 2 * cy)] +
                fine.res[fine.at(0, 2 * cx, 2 * cy + 1)] +
                fine.res[fine.at(0, 2 * cx + 1, 2 * cy + 1)];
            EXPECT_DOUBLE_EQ(coarse.rhs[coarse.at(0, cx, cy)], want)
                << "(" << cx << "," << cy << ")";
            // Restriction must also reset the coarse solution.
            EXPECT_EQ(coarse.u[coarse.at(0, cx, cy)], 0.0);
        }
    }
}

TEST(Multigrid, ProlongationReproducesConstants)
{
    // Bilinear weights are premasked and renormalised, so a constant
    // coarse correction must land on every material fine cell exactly
    // (partition of unity) — including edge cells with clamped
    // parents.
    MgLevel fine = uniformFineLevel(8);
    MgLevel coarse = mgCoarsen(fine);
    mgBuildProlongation(fine, coarse);
    for (int cy = 0; cy < 4; ++cy)
        for (int cx = 0; cx < 4; ++cx)
            coarse.u[coarse.at(0, cx, cy)] = 2.5;
    mgProlongAdd(fine, coarse, ThreadPool::global());
    for (int iy = 0; iy < 8; ++iy)
        for (int ix = 0; ix < 8; ++ix)
            EXPECT_NEAR(fine.u[fine.at(0, ix, iy)], 2.5, 1e-12)
                << "(" << ix << "," << iy << ")";
}

TEST(Multigrid, CoarseningConservesCouplingsAndConvection)
{
    MgLevel fine = uniformFineLevel(8);
    MgLevel coarse = mgCoarsen(fine);
    // 2x2 aggregation: each interior block boundary carries the two
    // fine couplings that crossed it; convection sums over the block.
    EXPECT_DOUBLE_EQ(coarse.gRight[coarse.at(0, 0, 0)], 2.0);
    EXPECT_DOUBLE_EQ(coarse.gDown[coarse.at(0, 0, 0)], 2.0);
    EXPECT_DOUBLE_EQ(coarse.gRight[coarse.at(0, 3, 0)], 0.0); // edge
    EXPECT_NEAR(coarse.gAmb[coarse.at(0, 1, 1)], 0.4, 1e-12);
    EXPECT_EQ(coarse.mask[coarse.at(0, 2, 2)], 1.0);
}

TEST(Multigrid, VCycleReducesResidualMonotonically)
{
    // A 3-layer anisotropic problem (vertical couplings 50x lateral,
    // like the real stack) with a point source: every V-cycle must
    // shrink the kelvin-scaled residual.
    const int n = 16, nl = 3;
    PaddedNetwork net;
    net.resize(n, nl);
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const size_t c = net.at(l, ix, iy);
                if (ix + 1 < n)
                    net.gRight[c] = 1.0;
                if (iy + 1 < n)
                    net.gDown[c] = 1.0;
                if (l + 1 < nl)
                    net.gBelow[c] = 50.0;
                if (l == 0)
                    net.gAmb[c] = 0.05;
            }
        }
    }
    MgSolver solver(mgFineLevel(net), 1000, 1e-4);
    EXPECT_GE(solver.numLevels(), 2);

    std::vector<double> rhs(net.cells, 0.0);
    rhs[net.at(nl - 1, n / 2, n / 2)] = 10.0;
    solver.setProblem(rhs, nullptr);

    double prev = std::numeric_limits<double>::infinity();
    for (int k = 0; k < 5; ++k) {
        solver.cycle();
        const double r = solver.maxScaledResidualK();
        EXPECT_LT(r, prev) << "cycle " << k;
        prev = r;
    }
}

TEST(Multigrid, MatchesSorFieldOnPlanarStack)
{
    ThermalParams p = fastParams();
    p.maxResidualK = 1e-6; // tight so both solvers converge hard
    ThermalParams pmg = p;
    pmg.solver = SolverKind::Multigrid;

    ThermalGrid sor = makePlanarGrid(p);
    ThermalGrid mg = makePlanarGrid(pmg);
    for (ThermalGrid *g : {&sor, &mg}) {
        g->addPower(0, 1.0, 1.0, 4.0, 4.0, 30.0);
        g->addPower(0, 8.0, 8.0, 2.0, 2.0, 15.0);
    }

    const ThermalField fs = sor.solve();
    ThermalGrid::SolveStats stats;
    const ThermalField fm = mg.solve(&stats);
    EXPECT_GT(stats.iterations, 0);
    EXPECT_LT(stats.iterations, 100);
    for (int l = 0; l < fs.layers(); ++l)
        for (int iy = 0; iy < p.gridN; ++iy)
            for (int ix = 0; ix < p.gridN; ++ix)
                EXPECT_NEAR(fs.at(l, ix, iy), fm.at(l, ix, iy), 1e-3)
                    << "layer " << l << " (" << ix << "," << iy << ")";
}

TEST(Multigrid, MatchesSorPeakOnStackedStack)
{
    // The fig-10 style 4-die stack with per-die power.
    ThermalParams p;
    p.gridN = 24;
    p.maxResidualK = 1e-6;
    ThermalParams pmg = p;
    pmg.solver = SolverKind::Multigrid;

    ThermalGrid sor(p, HotspotModel::stackedStack(), 6.0, 6.0);
    ThermalGrid mg(pmg, HotspotModel::stackedStack(), 6.0, 6.0);
    for (ThermalGrid *g : {&sor, &mg}) {
        for (int d = 0; d < kNumDies; ++d)
            g->addPower(d, 1.0, 1.0, 3.0, 3.0, 10.0);
    }
    EXPECT_NEAR(sor.solve().peak(sor.dieLayers()),
                mg.solve().peak(mg.dieLayers()), 1e-3);
}

TEST(Multigrid, WarmStartConvergesInFewCycles)
{
    ThermalParams p = fastParams();
    p.solver = SolverKind::Multigrid;
    p.maxResidualK = 1e-6;
    ThermalGrid grid = makePlanarGrid(p);
    grid.addPower(0, 2.0, 2.0, 4.0, 4.0, 40.0);

    ThermalGrid::SolveStats cold;
    const ThermalField f = grid.solve(&cold);
    ThermalGrid::SolveStats warm;
    const ThermalField g = grid.solve(&warm, &f);
    EXPECT_LE(warm.iterations, cold.iterations);
    // Re-solving from the converged field stays converged: both fields
    // sit within the stopping error of the same fixed point, so they
    // agree to a few multiples of the (delta-based) tolerance.
    for (int l = 0; l < f.layers(); ++l)
        for (int iy = 0; iy < p.gridN; ++iy)
            for (int ix = 0; ix < p.gridN; ++ix)
                EXPECT_NEAR(f.at(l, ix, iy), g.at(l, ix, iy), 2e-3);
}

TEST(ThermalGridDeathTest, ChipLargerThanSpreaderFatal)
{
    ThermalParams p = fastParams();
    p.spreaderMm = 5.0;
    EXPECT_EXIT((ThermalGrid{p, HotspotModel::planarStack(), 12.0, 12.0}),
                ::testing::ExitedWithCode(1), "spreader");
}

TEST(ThermalGridDeathTest, PowerOnMissingDie)
{
    ThermalGrid grid = makePlanarGrid(fastParams());
    EXPECT_DEATH(grid.addPower(2, 0, 0, 1, 1, 5.0), "die");
}

} // namespace
} // namespace th
