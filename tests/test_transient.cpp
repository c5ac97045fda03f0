#include <gtest/gtest.h>

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

TEST(Transient, NoPowerStaysAtInitial)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField init(p.gridN,
                            static_cast<int>(
                                HotspotModel::stackedStack().size()),
                            p.ambientK);
    const auto tr = grid.solveTransient(init, 0.001, 1e-5, 5);
    EXPECT_NEAR(tr.final.peak(grid.dieLayers()), p.ambientK, 0.01);
}

TEST(Transient, HeatsMonotonicallyFromAmbient)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10, p.ambientK);
    const auto tr = grid.solveTransient(init, 0.02, 1e-4, 10);
    ASSERT_GE(tr.peakK.size(), 5u);
    for (size_t i = 1; i < tr.peakK.size(); ++i)
        EXPECT_GE(tr.peakK[i], tr.peakK[i - 1] - 1e-6) << i;
    EXPECT_GT(tr.peakK.back(), p.ambientK + 5.0);
}

TEST(Transient, ApproachesSteadyState)
{
    // After a long transient the field must approach the SOR solution.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 12.0);
    const ThermalField steady = grid.solve();
    const ThermalField init(p.gridN, 10, p.ambientK);
    // Die layers have millisecond-scale constants; the sink itself is
    // slower, so compare die peaks only loosely.
    const auto tr = grid.solveTransient(init, 0.5, 1e-3, 5);
    const double steady_peak = steady.peak(grid.dieLayers());
    const double trans_peak = tr.final.peak(grid.dieLayers());
    EXPECT_LE(trans_peak, steady_peak + 0.5);
    EXPECT_GT(trans_peak, p.ambientK +
              (steady_peak - p.ambientK) * 0.3);
}

TEST(Transient, CoolsBackDownWhenPowerRemoved)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 20.0);
    const ThermalField init(p.gridN, 10, p.ambientK);
    const auto heated = grid.solveTransient(init, 0.02, 1e-4, 2);

    grid.clearPower();
    const auto cooled =
        grid.solveTransient(heated.final, 0.02, 1e-4, 2);
    EXPECT_LT(cooled.final.peak(grid.dieLayers()),
              heated.final.peak(grid.dieLayers()));
}

TEST(Transient, DeeperDieHeatsFasterThanSink)
{
    // Power in the dies raises die temperatures long before the bulky
    // copper sink warms: early peak rise outpaces the sink-side rise.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10, p.ambientK);
    const auto tr = grid.solveTransient(init, 0.005, 1e-4, 2);
    const double die_peak = tr.final.peak(grid.dieLayers());
    // Sink layer 0 centre cell:
    const double sink_t = tr.final.at(0, p.gridN / 2, p.gridN / 2);
    EXPECT_GT(die_peak - p.ambientK, 2.0 * (sink_t - p.ambientK));
}

TEST(Transient, SampleTimesMonotonic)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    grid.addPower(0, 0.0, 0.0, 6.0, 6.0, 10.0);
    const ThermalField init(p.gridN, 10, p.ambientK);
    const auto tr = grid.solveTransient(init, 0.01, 1e-4, 8);
    ASSERT_FALSE(tr.timeS.empty());
    for (size_t i = 1; i < tr.timeS.size(); ++i)
        EXPECT_GT(tr.timeS[i], tr.timeS[i - 1]);
    EXPECT_NEAR(tr.timeS.back(), 0.01, 0.002);
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
    const ThermalField init(p.gridN, 10, p.ambientK);

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
    const ThermalField init(p.gridN, 10, p.ambientK);

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

TEST(TransientStepper, MatchesSolveTransientFinalField)
{
    // Same dt, same duration: the stepper is the same Euler kernel the
    // batch API runs, so the end states agree to round-off.
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 1.0, 1.0, 4.0, 4.0, 10.0);
    const ThermalField init(p.gridN, 10, p.ambientK);

    const auto tr = grid.solveTransient(init, 0.01, 1e-4, 4);
    TransientStepper stepper(grid, init, 1e-4);
    stepper.advance(0.01);

    EXPECT_NEAR(stepper.field().peak(grid.dieLayers()),
                tr.final.peak(grid.dieLayers()), 1e-9);
}

TEST(TransientStepper, VerticalImplicitSplitAdvancesMatchBitForBit)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    for (int d = 0; d < kNumDies; ++d)
        grid.addPower(d, 0.0, 0.0, 6.0, 6.0, 15.0);
    const ThermalField init(p.gridN, 10, p.ambientK);

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
}

TEST(TransientStepper, TracksTimeAndClampsDt)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField init(p.gridN, 10, p.ambientK);

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
    const ThermalField init(p.gridN, 10, p.ambientK);
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
    const ThermalField few_layers(p.gridN, 4, p.ambientK);
    const ThermalField coarse(p.gridN / 2, 10, p.ambientK);
    for (TransientScheme scheme :
         {TransientScheme::Explicit, TransientScheme::VerticalImplicit}) {
        EXPECT_EXIT(TransientStepper(grid, few_layers, 1e-4, scheme),
                    ::testing::ExitedWithCode(1), "geometry");
        EXPECT_EXIT(TransientStepper(grid, coarse, 1e-4, scheme),
                    ::testing::ExitedWithCode(1), "geometry");
    }
}

TEST(TransientDeathTest, RejectsBadArguments)
{
    const ThermalParams p = fastParams();
    ThermalGrid grid = stackedGrid(p);
    const ThermalField init(p.gridN, 10, p.ambientK);
    EXPECT_EXIT(grid.solveTransient(init, -1.0, 1e-4, 2),
                ::testing::ExitedWithCode(1), "positive");
    const ThermalField wrong(4, 2, p.ambientK);
    EXPECT_EXIT(grid.solveTransient(wrong, 0.01, 1e-4, 2),
                ::testing::ExitedWithCode(1), "geometry");
}

} // namespace
} // namespace th
