#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "floorplan/floorplan.h"
#include "thermal/grid.h"
#include "thermal/hotspot.h"

namespace th {
namespace {

ThermalParams
fastParams()
{
    ThermalParams p;
    p.gridN = 16;
    p.maxResidualK = 1e-3;
    return p;
}

ThermalGrid
stackedGrid(const ThermalParams &p)
{
    return ThermalGrid(p, HotspotModel::stackedStack(), 6.0, 6.0);
}

/**
 * Worst |T - T_steady| over every cell after @p scheme marches
 * @p steady for 0.01 s under the power it was solved for.
 */
double
fixedPointDriftK(const ThermalGrid &grid, const ThermalField &steady,
                 TransientScheme scheme)
{
    TransientStepper stepper(grid, steady, 1e-3, scheme);
    stepper.advance(0.01);
    const ThermalField &f = stepper.field();
    const size_t cells = static_cast<size_t>(f.layers()) *
        static_cast<size_t>(f.gridN()) * static_cast<size_t>(f.gridN());
    double worst = 0.0;
    for (size_t c = 0; c < cells; ++c)
        worst = std::max(worst, std::fabs(f.t(c) - steady.t(c)));
    return worst;
}

/**
 * The steady field of each solver, converged to 1e-9 K, must be a
 * fixed point of @p scheme on planar and stacked generated 1-8 core
 * chips under the multicore spreader rule: no cell may move 1e-6 K.
 */
void
expectFixedPointOnGeneratedChips(TransientScheme scheme)
{
    for (SolverKind solver : {SolverKind::Sor, SolverKind::Multigrid}) {
        for (bool stacked : {false, true}) {
            for (int cores = 1; cores <= 8; ++cores) {
                const Floorplan fp =
                    FloorplanBuilder::generate(cores, 4, stacked);
                ThermalParams p;
                p.gridN = 16;
                p.maxResidualK = 1e-9;
                p.solver = solver;
                p.spreaderMm = std::max(
                    p.spreaderMm, std::max(fp.chipW, fp.chipH) * 5.0 / 3.0);
                ThermalGrid grid(p,
                                 stacked ? HotspotModel::stackedStack()
                                         : HotspotModel::planarStack(),
                                 fp.chipW, fp.chipH);
                const int dies = stacked ? kNumDies : 1;
                for (int d = 0; d < dies; ++d)
                    for (size_t b = 0; b < fp.blocks.size(); ++b) {
                        const BlockRect &r = fp.blocks[b];
                        grid.addPower(d, r.x, r.y, r.w, r.h,
                                      0.5 + 0.1 * static_cast<double>(
                                                      (b + d) % 5));
                    }
                const ThermalField steady = grid.solve();
                EXPECT_LE(fixedPointDriftK(grid, steady, scheme), 1e-6)
                    << solverKindName(solver)
                    << (stacked ? " stacked " : " planar ") << cores
                    << " cores";
            }
        }
    }
}

TEST(Transient, NoPowerStaysAtInitial)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField init(p.gridN,
                            static_cast<int>(
                                HotspotModel::stackedStack().size()));
    TransientStepper stepper(grid, init, 1e-5);
    stepper.advance(0.001);
    EXPECT_NEAR(stepper.field().peak(grid.dieLayers()), kAmbientK, 0.01);
}

TEST(Transient, HeatsMonotonicallyFromAmbient)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10);
    TransientStepper stepper(grid, init, 1e-4);
    double prev = stepper.field().peak(grid.dieLayers());
    for (int i = 0; i < 10; ++i) {
        stepper.advance(0.002);
        const double peak = stepper.field().peak(grid.dieLayers());
        EXPECT_GE(peak, prev - 1e-6) << i;
        prev = peak;
    }
    EXPECT_GT(prev, kAmbientK + 5.0);
}

TEST(Transient, ApproachesSteadyState)
{
    // After a long transient the field must approach the SOR solution.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 12.0);
    const ThermalField steady = grid.solve();
    const ThermalField init(p.gridN, 10);
    // Die layers have millisecond-scale constants; the sink itself is
    // slower, so compare die peaks only loosely.
    TransientStepper stepper(grid, init, 1e-3);
    stepper.advance(0.5);
    const double steady_peak = steady.peak(grid.dieLayers());
    const double trans_peak = stepper.field().peak(grid.dieLayers());
    EXPECT_LE(trans_peak, steady_peak + 0.5);
    EXPECT_GT(trans_peak, kAmbientK + (steady_peak - kAmbientK) * 0.3);
}

TEST(Transient, CoolsBackDownWhenPowerRemoved)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 20.0);
    const ThermalField init(p.gridN, 10);
    TransientStepper stepper(grid, init, 1e-4);
    stepper.advance(0.02);
    const double heated = stepper.field().peak(grid.dieLayers());

    grid.clearPower();
    stepper.advance(0.02);
    EXPECT_LT(stepper.field().peak(grid.dieLayers()), heated);
}

TEST(Transient, DeeperDieHeatsFasterThanSink)
{
    // Power in the dies raises die temperatures long before the bulky
    // copper sink warms: early peak rise outpaces the sink-side rise.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10);
    TransientStepper stepper(grid, init, 1e-4);
    stepper.advance(0.005);
    const double die_peak = stepper.field().peak(grid.dieLayers());
    // Sink layer 0 centre cell:
    const double sink_t = stepper.field().at(0, p.gridN / 2, p.gridN / 2);
    EXPECT_GT(die_peak - kAmbientK, 2.0 * (sink_t - kAmbientK));
}

// ---------------------------------------------------------------------
// TransientStepper: resumable transient runs.
// ---------------------------------------------------------------------

TEST(TransientStepper, SplitAdvancesMatchOneLongAdvanceBitForBit)
{
    // The DTM engine relies on N short advances being the same
    // computation as one long solve: the stepper tracks an accumulated
    // time target, so interval boundaries never change step count,
    // step size, or arithmetic order.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10);

    TransientStepper one(grid, init, 1e-4);
    one.advance(0.02);

    TransientStepper split(grid, init, 1e-4);
    for (int i = 0; i < 10; ++i)
        split.advance(0.002);

    EXPECT_EQ(one.steps(), split.steps());
    const ThermalField &a = one.field();
    const ThermalField &b = split.field();
    for (int l = 0; l < 10; ++l)
        for (int y = 0; y < p.gridN; ++y)
            for (int x = 0; x < p.gridN; ++x)
                ASSERT_EQ(a.at(l, y, x), b.at(l, y, x))
                    << "layer " << l << " y " << y << " x " << x;
}

TEST(TransientStepper, UnevenSplitsStillMatch)
{
    // Durations that are not multiples of dt must not drop or double
    // steps across the seam (the classic per-interval rounding bug).
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    grid.addPower(1, 0.0, 0.0, 6.0, 6.0, 20.0);
    const ThermalField init(p.gridN, 10);

    TransientStepper one(grid, init, 3e-4);
    one.advance(0.02);

    TransientStepper split(grid, init, 3e-4);
    split.advance(0.0131);
    split.advance(0.0007);
    split.advance(0.0062);

    EXPECT_EQ(one.steps(), split.steps());
    EXPECT_NEAR(one.field().peak(grid.dieLayers()),
                split.field().peak(grid.dieLayers()), 1e-9);
}

TEST(TransientStepper, VerticalImplicitSplitAdvancesMatchBitForBit)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10);

    TransientStepper one(grid, init, 5e-4,
                         TransientScheme::VerticalImplicit);
    one.advance(0.02);

    TransientStepper split(grid, init, 5e-4,
                           TransientScheme::VerticalImplicit);
    for (int i = 0; i < 10; ++i)
        split.advance(0.002);

    EXPECT_EQ(one.steps(), split.steps());
    const ThermalField &a = one.field();
    const ThermalField &b = split.field();
    for (int l = 0; l < 10; ++l)
        for (int y = 0; y < p.gridN; ++y)
            for (int x = 0; x < p.gridN; ++x)
                ASSERT_EQ(a.at(l, y, x), b.at(l, y, x))
                    << "layer " << l << " y " << y << " x " << x;
}

TEST(TransientStepper, VerticalImplicitTracksExplicitTrajectory)
{
    // The implicit scheme exists so DTM replay can take control-
    // interval-scale steps instead of stability-bound microsecond
    // ones; it only earns that if the resolved trajectory matches in
    // the regime the engine actually runs it: starting from the
    // free-running steady field with modest per-interval power deltas
    // (not a from-ambient shock, whose initial ramp a large first-
    // order step legitimately smooths). Perturb the power 25% up from
    // steady and march both schemes, the implicit one at ~20x the
    // explicit stability step, requiring die-peak agreement well
    // under the fast path's 1 K anchor bound.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 12.0);
    const ThermalField steady = grid.solve();
    const std::vector<int> dies = grid.dieLayers();

    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 3.0); // +25%
    TransientStepper explicit_s(grid, steady, 1e-4);
    TransientStepper implicit_s(grid, steady, 5e-4,
                                TransientScheme::VerticalImplicit);
    EXPECT_GT(implicit_s.dtS(), 20 * explicit_s.dtS())
        << "implicit step should dwarf the explicit stability clamp";
    for (int i = 0; i < 5; ++i) {
        explicit_s.advance(0.004);
        implicit_s.advance(0.004);
        EXPECT_NEAR(implicit_s.field().peak(dies),
                    explicit_s.field().peak(dies), 0.1)
            << "diverged by " << implicit_s.timeS() << " s";
    }
}

TEST(TransientStepper, VerticalImplicitHoldsSteadyState)
{
    // Same fixed-point property as the explicit scheme: backward
    // Euler's fixed points are exactly the steady equations', so
    // starting on the SOR answer must stay there even at a step far
    // beyond the explicit stability limit.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 12.0);
    const ThermalField steady = grid.solve();
    const double steady_peak = steady.peak(grid.dieLayers());

    TransientStepper stepper(grid, steady, 1e-3,
                             TransientScheme::VerticalImplicit);
    for (int i = 0; i < 10; ++i) {
        stepper.advance(0.005);
        EXPECT_NEAR(stepper.field().peak(grid.dieLayers()),
                    steady_peak, 0.25)
            << "drifted after " << stepper.timeS() << " s";
    }
    expectFixedPointOnGeneratedChips(TransientScheme::VerticalImplicit);
}

TEST(TransientStepper, SteadyStateIsAFixedPointUnderConstantPower)
{
    // The copper sink's time constant is tens of seconds, so marching
    // from ambient to convergence is impractical in a unit test. The
    // equivalent property, checked from the other side: the SOR
    // steady-state answer must be a fixed point of the Euler kernel —
    // start the resumable run there under the same constant power map
    // and it must hold that temperature (to within the solver's
    // residual tolerance), not drift or blow up.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 12.0);
    const ThermalField steady = grid.solve();
    const double steady_peak = steady.peak(grid.dieLayers());

    TransientStepper stepper(grid, steady, 1e-3);
    for (int i = 0; i < 10; ++i) { // Resumed in 10 chunks.
        stepper.advance(0.005);
        EXPECT_NEAR(stepper.field().peak(grid.dieLayers()),
                    steady_peak, 0.25)
            << "drifted after " << stepper.timeS() << " s";
    }
    expectFixedPointOnGeneratedChips(TransientScheme::Explicit);
}

TEST(TransientStepper, TracksTimeAndClampsDt)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField init(p.gridN, 10);

    TransientStepper stepper(grid, init, 1e30);
    EXPECT_LT(stepper.dtS(), 1.0) << "stability clamp must engage";
    EXPECT_EQ(stepper.steps(), 0u);
    EXPECT_EQ(stepper.timeS(), 0.0);

    stepper.advance(stepper.dtS() * 7);
    EXPECT_EQ(stepper.steps(), 7u);
    EXPECT_NEAR(stepper.timeS(), stepper.dtS() * 7,
                stepper.dtS() * 1e-6);

    stepper.advance(0.0); // A zero advance is a no-op, not an error.
    EXPECT_EQ(stepper.steps(), 7u);
}

TEST(TransientStepperDeathTest, RejectsNegativeAdvance)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField init(p.gridN, 10);
    TransientStepper stepper(grid, init, 1e-4);
    EXPECT_EXIT(stepper.advance(-0.001),
                ::testing::ExitedWithCode(1), "backwards");
}

TEST(TransientStepperDeathTest, RejectsEitherWrongDimension)
{
    // Construction copies the field into the kernel's layout, so both
    // dimensions are checked there, for both schemes — not at the
    // first step.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField few_layers(p.gridN, 4);
    const ThermalField coarse(p.gridN / 2, 10);
    for (TransientScheme scheme :
         {TransientScheme::Explicit, TransientScheme::VerticalImplicit}) {
        EXPECT_EXIT(TransientStepper(grid, few_layers, 1e-4, scheme),
                    ::testing::ExitedWithCode(1), "geometry");
        EXPECT_EXIT(TransientStepper(grid, coarse, 1e-4, scheme),
                    ::testing::ExitedWithCode(1), "geometry");
    }
}

} // namespace
} // namespace th
