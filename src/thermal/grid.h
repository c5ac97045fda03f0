/**
 * @file
 * Layered thermal RC grid and steady-state solver — the HotSpot 3.0
 * substitute. The chip (one silicon die, or the 4-die stack with its
 * die-to-die interface layers) sits centred under a larger copper
 * spreader and heat sink; each layer is discretised into a uniform
 * grid of cells connected by lateral and vertical thermal
 * conductances, with distributed convection from the sink to ambient.
 * Steady-state temperatures come from SOR iteration (or multigrid),
 * transients from explicit Euler (or the IMEX VerticalImplicit
 * scheme). All four read one network, built once per grid on a
 * guard-padded layout (DESIGN.md section 17).
 */

#ifndef TH_THERMAL_GRID_H
#define TH_THERMAL_GRID_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

namespace th {

class MgSolver;
struct GridNetwork;

/** One material layer of the stack (top = closest to the heat sink). */
struct ThermalLayer
{
    std::string name;
    double thicknessMm = 0.1;
    /** Conductivity inside the chip footprint, W/(m*K). */
    double kChip = 100.0;
    /** Conductivity outside the chip footprint (0 = no material). */
    double kOutside = 0.0;
    /** Power-injection die index (>= 0 for active silicon layers). */
    int dieIndex = -1;
    /** Volumetric heat capacity, J/(m^3*K) — used by the transient
     *  solver; silicon ~1.63e6, copper ~3.45e6. */
    double volHeatCapacity = 1.63e6;
};

/** Steady-state solution algorithm. */
enum class SolverKind {
    /**
     * Point successive over-relaxation, swept in place in
     * lexicographic order. Each cell reads its left, up and above
     * neighbours already updated, so the sweep is one dependency
     * chain; the kernel overlaps a few rows as a skewed wavefront,
     * which reads exactly the same values, but runs on one thread.
     */
    Sor,
    /**
     * Geometric multigrid V-cycles (lateral 2x2 coarsening of the
     * conductance network, red-black vertical-line Gauss-Seidel
     * smoothing, see thermal/multigrid.h): near-resolution-independent
     * iteration counts, bit-identical for any fixed thread count.
     */
    Multigrid
};

/** Transient time-integration scheme. */
enum class TransientScheme {
    /**
     * Explicit Euler over every coupling. Stability clamps the step to
     * ~C/sum(G) of the stiffest cell; the 70-1000x vertical-to-lateral
     * conductance ratio of a thinned 3D stack makes that microseconds,
     * so a millisecond-scale DTM interval costs thousands of steps.
     */
    Explicit,
    /**
     * IMEX splitting: vertical conduction and ambient convection are
     * integrated implicitly (one exact tridiagonal solve per (ix, iy)
     * column — the same line idiom as the multigrid smoother), lateral
     * conduction explicitly. Unconditionally stable in the stiff
     * vertical direction, so the step is bounded only by the lateral
     * stability limit (milliseconds) and accuracy; the DTM replay path
     * steps at a fixed fraction of its control interval and cuts
     * transient cost by ~100x. First-order in time like the explicit
     * scheme; backward-Euler damping drives the fast vertical modes to
     * their quasi-steady profile, which is also the exact limit.
     */
    VerticalImplicit
};

/** Canonical lowercase wire/CLI name ("sor" / "multigrid"). */
const char *solverKindName(SolverKind kind);

/** Parse a wire/CLI name; returns false (out untouched) when unknown. */
bool solverKindByName(const std::string &name, SolverKind *out);

/**
 * Ambient temperature, 45 C (the HotSpot default). Every field starts
 * here, and the sink convects to it.
 */
inline constexpr double kAmbientK = 318.15;

/** Solver and geometry parameters. */
struct ThermalParams
{
    int gridN = 48;            ///< Cells per side over the spreader.
    double spreaderMm = 20.0;  ///< Lateral size of spreader/sink.
    /**
     * Stopping tolerance (K) of both steady solvers: the largest cell
     * move of an SOR sweep, or of a multigrid cycle's last smoothing
     * pass, so switching solvers keeps one convergence contract.
     */
    double maxResidualK = 1e-4;
    SolverKind solver = SolverKind::Sor;
    /**
     * Leakage-temperature feedback rounds (0 = no feedback).
     * Subthreshold leakage grows exponentially with temperature; the
     * model iterates power and temperature to equilibrium, which is
     * what makes the paper's iso-power 4x-density experiment run away
     * to 418 K.
     */
    int leakFeedbackIters = 8;
};

/** Solved temperature field. */
class ThermalField
{
  public:
    /** A @p grid_n x @p grid_n x @p layers field at kAmbientK. */
    ThermalField(int grid_n, int layers);

    double &at(int layer, int ix, int iy);
    double at(int layer, int ix, int iy) const;

    /** Flat access in (layer, iy, ix) order — the at() layout. */
    double &t(std::size_t flat) { return t_[flat]; }
    double t(std::size_t flat) const { return t_[flat]; }

    /** Maximum temperature over all power-bearing (die) layers. */
    double peak(const std::vector<int> &die_layers) const;

    int gridN() const { return n_; }
    int layers() const { return layers_; }

  private:
    int n_;
    int layers_;
    std::vector<double> t_;
};

/**
 * The layered grid model. Construct with the layer stack and chip
 * footprint, deposit block powers, then solve.
 */
class ThermalGrid
{
  public:
    /**
     * @param params  Geometry/solver parameters.
     * @param layers  Stack from the heat sink downwards.
     * @param chip_w  Chip width (mm); centred on the spreader.
     * @param chip_h  Chip height (mm).
     */
    ThermalGrid(const ThermalParams &params,
                std::vector<ThermalLayer> layers,
                double chip_w, double chip_h);
    ~ThermalGrid();
    ThermalGrid(ThermalGrid &&) noexcept;
    ThermalGrid &operator=(ThermalGrid &&) noexcept;

    /**
     * Deposit @p watts uniformly over a rectangle in chip coordinates
     * (mm, origin at the chip's lower-left corner) on die @p die.
     */
    void addPower(int die, double x, double y, double w, double h,
                  double watts);

    /** Remove all deposited power. */
    void clearPower();

    /** Total deposited power (W). */
    double totalPower() const;

    /** Convergence diagnostics of one steady-state solve. */
    struct SolveStats
    {
        /** SOR sweeps, or W-cycles under SolverKind::Multigrid. */
        int iterations = 0;
        double residualK = 0.0;

        /** Final-cycle delta contraction factor (multigrid only; the
         *  SOR stop test already measures the true max cell move). */
        double contraction = 0.0;
        /** Geometric-series error-to-fixed-point bound in kelvin:
         *  residualK under SOR, delta * rho / (1 - rho) under
         *  multigrid (see MgSolver::Stats). */
        double estErrorK = 0.0;
    };

    /**
     * Solve the steady state. @p warm_start seeds the iteration with
     * a previous field (same geometry) instead of ambient — e.g. the
     * leakage-feedback loop re-solves with slightly perturbed power,
     * where the previous solution is a few iterations from the new
     * fixed point.
     */
    ThermalField solve(SolveStats *stats = nullptr,
                       const ThermalField *warm_start = nullptr) const;

    /**
     * Stability-clamped explicit step: the largest dt <= @p dt_s that
     * satisfies dt <= 0.4 * C / sum(G) for every material cell.
     * TransientStepper's explicit scheme steps at this size.
     */
    double transientDt(double dt_s) const;

    /**
     * Area-weighted average and peak temperature of a chip-coordinate
     * rectangle on die @p die in a solved field.
     */
    void blockTemps(const ThermalField &field, int die, double x,
                    double y, double w, double h, double &avg_k,
                    double &peak_k) const;

    /** Layer index of die @p die; -1 when absent. */
    int dieLayer(int die) const;

    /** All die layer indices. */
    std::vector<int> dieLayers() const;

    const ThermalParams &params() const { return params_; }

  private:
    friend class TransientStepper;

    /** Build the network from the layer stack, once, at construction. */
    void buildNetwork();

    /** Multigrid dispatch target of solve(). */
    ThermalField solveMultigrid(SolveStats *stats,
                                const ThermalField *warm_start) const;

    /** Cell conductivity of @p layer at grid cell (ix, iy). */
    double cellK(int layer, int ix, int iy) const;
    bool insideChip(int ix, int iy) const;
    void forEachCellInRect(double x, double y, double w, double h,
                           const std::function<void(int, int, double)>
                               &fn) const;

    ThermalParams params_;
    std::vector<ThermalLayer> layers_;
    double chip_w_, chip_h_;
    double chip_x0_, chip_y0_; ///< Chip origin on the spreader (mm).
    double cell_mm_;

    /**
     * The RC network every solve and step reads, deposited power
     * included. A ThermalGrid instance is NOT safe for concurrent use
     * — parallel callers each own a grid.
     */
    std::unique_ptr<GridNetwork> net_;
    /** Lazily built multigrid hierarchy. It copies only the network's
     *  conductances, so it is reused across solves (rhs reloads per
     *  solve). */
    mutable std::unique_ptr<MgSolver> mg_;
};

/**
 * Resumable transient state: marches a field forward in arbitrary
 * increments, e.g. one DTM control interval at a time with the grid's
 * deposited power changing between calls. The step size is clamped
 * once at construction and held for the whole run, and the step count
 * derives from the *accumulated* target time rather than per-call
 * durations — so a run split into N short advance() calls executes
 * exactly the same step sequence (bit-for-bit) as one long call.
 *
 * The grid must outlive the stepper. Power edits (addPower/clearPower)
 * between advance() calls take effect on the next step; geometry is
 * fixed at construction.
 */
class TransientStepper
{
  public:
    /**
     * @param grid     The network to step (borrowed).
     * @param initial  Starting field; must match the grid's geometry.
     * @param dt_s     Requested step, clamped via transientDt() (or,
     *                 under VerticalImplicit, the same bound over the
     *                 lateral couplings alone).
     * @param scheme   Time integrator (see TransientScheme).
     */
    TransientStepper(const ThermalGrid &grid, const ThermalField &initial,
                     double dt_s,
                     TransientScheme scheme = TransientScheme::Explicit);

    /** March forward by @p duration_s seconds of simulated time. */
    void advance(double duration_s);

    const ThermalField &field() const { return field_; }
    /** Simulated time actually stepped so far (steps * dt). */
    double timeS() const;
    double dtS() const { return dt_; }
    std::int64_t steps() const { return steps_; }

  private:
    /** Take exactly @p count steps, then refresh field(). */
    void step(std::int64_t count);

    const ThermalGrid *grid_;
    ThermalField field_;
    /**
     * The field on the padded layout (cur_ holds the latest step), a
     * second buffer (explicit: the next step; VerticalImplicit: the
     * right-hand side), and each material cell's dt / C (explicit) or
     * C / dt (VerticalImplicit).
     */
    std::vector<double> cur_, next_, rate_;
    double dt_;
    TransientScheme scheme_;
    double targetS_ = 0.0;
    std::int64_t steps_ = 0;
};

} // namespace th

#endif // TH_THERMAL_GRID_H
