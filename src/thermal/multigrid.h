/**
 * @file
 * Geometric multigrid for the layered thermal RC grid: a V-cycle over
 * a hierarchy of lateral 2x2 aggregations of the conductance network
 * (layers are never coarsened — the stack is only a handful of dies
 * thick but strongly coupled vertically), smoothed at every level by
 * red-black *vertical-line* Gauss-Seidel: each (ix, iy) column is
 * solved exactly with the Thomas algorithm, columns coloured by
 * (ix + iy) parity. Point smoothers barely damp the lateral error
 * modes here because vertical conductances exceed lateral ones by
 * 2-3 orders of magnitude (thin dies under square cells); line
 * relaxation in the strong direction restores textbook O(1) V-cycle
 * counts.
 *
 * The solver works in u = T - T_ambient space so the convection term
 * folds into the diagonal. Every level is a PaddedNetwork (one zero
 * ring in x, y, and layer), the fine one a copy of the grid's, so the
 * sweeps are branch-free and auto-vectorizable. Air cells carry an
 * identity row (diag 1, couplings 0, mask 0) and never move from
 * u = 0.
 *
 * Determinism: colour half-sweeps only read the other colour, rows
 * are distributed over th::ThreadPool and their maxima reduced in
 * index order, and restriction/prolongation are fixed-order gathers —
 * so results are bit-identical for any fixed thread count.
 */

#ifndef TH_THERMAL_MULTIGRID_H
#define TH_THERMAL_MULTIGRID_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace th {

class ThreadPool;

/**
 * The thermal RC network on the guard-padded layout that ThermalGrid
 * builds and every level of the hierarchy shares: a (nl + 2) x (n + 2)
 * x (n + 2) array in (layer, iy, ix) order with one guard cell on each
 * side of each axis. Guard entries hold zero conductance, so a missing
 * neighbour is a term that adds exactly 0 and no kernel branches on a
 * boundary (DESIGN.md section 17).
 */
struct PaddedNetwork
{
    int n = 0;  ///< Lateral cells per side.
    int nl = 0; ///< Layers (identical on every level).

    int pn = 0;             ///< Padded row stride, n + 2.
    std::size_t plane = 0;  ///< Padded plane size, pn * pn.
    std::size_t cells = 0;  ///< Padded total, (nl + 2) * plane.

    /** Padded flat index of real cell (l, ix, iy). */
    std::size_t at(int l, int ix, int iy) const
    {
        return (static_cast<std::size_t>(l + 1) * pn + (iy + 1)) * pn +
               (ix + 1);
    }

    /** Conductances to the +x / +y / +layer neighbour; 0 on guards. */
    std::vector<double> gRight, gDown, gBelow;
    /** Convection to ambient (top layer only on the fine grid). */
    std::vector<double> gAmb;

    /** Set the sizes from n/nl and zero the four conductance arrays. */
    void resize(int lateral_n, int layers_nl);

    /** Cell @p c's total conductance: ambient, then left, right, up,
     *  down, above and below. */
    double conductanceSum(std::size_t c) const
    {
        const auto stride = static_cast<std::size_t>(pn);
        return gAmb[c] + gRight[c - 1] + gRight[c] + gDown[c - stride] +
            gDown[c] + gBelow[c - plane] + gBelow[c];
    }
};

/**
 * One level of the hierarchy: a network plus the solver's per-cell
 * arrays, all on its padded layout. Ghost entries hold zero solution,
 * so sweeps never branch on boundaries. The solution u is in kelvin
 * above ambient.
 */
struct MgLevel : PaddedNetwork
{
    /** Row diagonal: total conductance, or exactly 1.0 on air/ghost
     *  cells so the tridiagonal solves never divide by zero. */
    std::vector<double> diag;
    /** Exactly 1.0 on material cells, 0.0 on air and ghosts. */
    std::vector<double> mask;

    std::vector<double> u, rhs, res;

    /** Thomas-algorithm scratch (forward coefficients per cell). */
    std::vector<double> cp, dp;

    /** Per-row smoothing deltas, reduced in index order (one per iy). */
    std::vector<double> rowDelta;

    /**
     * Prolongation from the next-coarser level: per fine cell, 4
     * parent indices into the coarse padded arrays and 4 weights.
     * Weights are premasked (zero towards air parents, renormalised
     * over the material ones, zero entirely on fine air cells), so
     * prolongAdd is a pure 4-point gather.
     */
    std::vector<std::int32_t> pIdx;
    std::vector<double> pW;
};

/** The finest level: a copy of the grid's network @p net. */
MgLevel mgFineLevel(const PaddedNetwork &net);

/**
 * Aggregate lateral 2x2 blocks into the next-coarser conductance
 * network (requires fine.n even): coarse couplings are sums of the
 * fine couplings crossing each block boundary, coarse convection is
 * the block sum, and the diagonal is rebuilt from the retained
 * couplings — the Galerkin coarse operator for piecewise-constant
 * aggregation.
 */
MgLevel mgCoarsen(const MgLevel &fine);

/** Precompute fine.pIdx/pW: masked cell-centred bilinear weights
 *  (9/16, 3/16, 3/16, 1/16; clamped at edges) towards coarse. */
void mgBuildProlongation(MgLevel &fine, const MgLevel &coarse);

/**
 * One red-black pass of vertical-line Gauss-Seidel (both colours).
 * Returns the maximum |u change| in kelvin, reduced in index order.
 */
double mgSmooth(MgLevel &lev, ThreadPool &pool);

/** res = mask * (rhs + sum g*u_neighbour - diag*u). */
void mgResidual(MgLevel &lev, ThreadPool &pool);

/** coarse.rhs[block] = sum of its 4 fine residuals; coarse.u = 0. */
void mgRestrict(const MgLevel &fine, MgLevel &coarse, ThreadPool &pool);

/** fine.u += interpolated coarse.u via the precomputed weights. */
void mgProlongAdd(MgLevel &fine, const MgLevel &coarse, ThreadPool &pool);

/**
 * W-cycle driver. Owns the level hierarchy; the conductance part is
 * built once per grid geometry, while rhs/initial guess are reloaded
 * per solve via setProblem(). Not safe for concurrent use (the grid
 * that owns it is documented single-threaded per instance).
 */
class MgSolver
{
  public:
    /**
     * @param max_cycles   Cycle cap of solve().
     * @param tolerance_k  solve() stops once the fine smoothing delta
     *                     and its error bound both drop below it.
     */
    MgSolver(MgLevel fine, int max_cycles, double tolerance_k);

    int numLevels() const { return static_cast<int>(levels_.size()); }
    const MgLevel &level(int k) const
    {
        return levels_[static_cast<std::size_t>(k)];
    }

    struct Stats
    {
        int cycles = 0;
        double residualK = 0.0; ///< Final fine smoothing delta (K).

        /**
         * Per-cycle delta contraction factor rho observed at the final
         * cycle (0 when only one cycle ran). For a linearly converging
         * iteration the distance to the fixed point is bounded by
         * delta * rho / (1 - rho), so estErrorK — that bound — is
         * what solve() tests against the tolerance: the raw delta alone
         * understates the true error by 1 / (1 - rho), a ~1.5x gap at
         * the W-cycle's typical rho ~0.35.
         */
        double contraction = 0.0;
        double estErrorK = 0.0; ///< delta * rho / (1 - rho) bound (K).
    };

    /**
     * Load a new right-hand side (injected watts per fine cell, on the
     * fine level's padded layout) and initial guess (kelvin above
     * ambient, same layout; nullptr = start from ambient).
     */
    void setProblem(const std::vector<double> &power_w,
                    const std::vector<double> *u0);

    /** One cycle; returns the final fine post-smoothing delta (K). */
    double cycle();

    /** Cycle until the delta drops below the tolerance (or the cap). */
    Stats solve();

    /** Max |residual| / diag over fine material cells — the same
     *  kelvin-scaled measure the stopping test bounds; for tests. */
    double maxScaledResidualK();

  private:
    double cycleAt(int k, ThreadPool &pool);

    int maxCycles_;
    double toleranceK_;
    std::vector<MgLevel> levels_;
};

} // namespace th

#endif // TH_THERMAL_MULTIGRID_H
