#include "thermal/multigrid.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/log.h"
#include "common/threadpool.h"

namespace th {

namespace {

/** Smoothing passes on the way down, and on the way up. */
constexpr int kPreSmooth = 2;
constexpr int kPostSmooth = 2;

/**
 * Fixed relaxation count on the coarsest level: a deterministic
 * stand-in for a direct solve, cheap at <= kCoarsestN^2 columns and
 * accurate far beyond the smoother's needs.
 */
constexpr int kCoarseSweeps = 50;

/** Stop coarsening below this lateral size. */
constexpr int kCoarsestN = 4;

/**
 * Coarse visits per cycle: 2 makes a W-cycle. The aggregation coarse
 * operator is not spectrally equivalent to the fine one, so a plain
 * V-cycle (1 visit) stalls near convergence factor ~0.9 on large
 * grids; the second visit restores ~0.35 at ~1.5x the per-cycle cost.
 * Coarse-level work shrinks 4x per level while visits only double, so
 * the recursion cost stays geometric.
 */
constexpr int kCoarseVisits = 2;

/**
 * Dispatch per-row work inline when the level is small (the pool's
 * job handoff would dominate the coarse sweeps) or across the pool
 * otherwise. Rows write disjoint cells, so both paths produce
 * bit-identical results.
 */
void
forEachRow(ThreadPool &pool, int rows, std::size_t level_cells,
           const std::function<void(std::size_t)> &body)
{
    if (level_cells < 4096) {
        for (int r = 0; r < rows; ++r)
            body(static_cast<std::size_t>(r));
        return;
    }
    pool.parallelFor(static_cast<std::size_t>(rows), body);
}

/** Size and zero the solver's arrays from L's layout; diag is preset
 *  to 1.0 and mask to 0.0, which ghosts keep. */
void
allocSolverArrays(MgLevel &L)
{
    L.diag.assign(L.cells, 1.0);
    for (auto *a : {&L.mask, &L.u, &L.rhs, &L.res, &L.cp, &L.dp})
        a->assign(L.cells, 0.0);
    L.rowDelta.assign(static_cast<std::size_t>(L.n), 0.0);
}

/** Rebuild diag (>= 1.0 identity on air) and mask from the coupling
 *  arrays; ghosts keep diag 1 / mask 0 from allocSolverArrays(). */
void
computeDiagMask(MgLevel &L)
{
    for (int l = 0; l < L.nl; ++l) {
        for (int iy = 0; iy < L.n; ++iy) {
            const std::size_t row = L.at(l, 0, iy);
            for (int ix = 0; ix < L.n; ++ix) {
                const std::size_t c = row + ix;
                const double g = L.conductanceSum(c);
                L.mask[c] = g > 0.0 ? 1.0 : 0.0;
                L.diag[c] = g > 0.0 ? g : 1.0;
            }
        }
    }
}

} // namespace

void
PaddedNetwork::resize(int lateral_n, int layers_nl)
{
    n = lateral_n;
    nl = layers_nl;
    pn = n + 2;
    plane = static_cast<std::size_t>(pn) * pn;
    cells = static_cast<std::size_t>(nl + 2) * plane;
    for (auto *a : {&gRight, &gDown, &gBelow, &gAmb})
        a->assign(cells, 0.0);
}

MgLevel
mgFineLevel(const PaddedNetwork &net)
{
    if (net.n < 2 || net.nl < 1)
        fatal("multigrid fine level needs n >= 2, nl >= 1 (got %d, %d)",
              net.n, net.nl);
    MgLevel L;
    static_cast<PaddedNetwork &>(L) = net;
    allocSolverArrays(L);
    computeDiagMask(L);
    return L;
}

MgLevel
mgCoarsen(const MgLevel &fine)
{
    if (fine.n % 2 != 0)
        fatal("cannot coarsen an odd lateral grid (n = %d)", fine.n);
    MgLevel C;
    C.resize(fine.n / 2, fine.nl);
    allocSolverArrays(C);
    for (int l = 0; l < C.nl; ++l) {
        for (int cy = 0; cy < C.n; ++cy) {
            const std::size_t crow = C.at(l, 0, cy);
            const std::size_t f0 = fine.at(l, 0, 2 * cy);
            const std::size_t f1 = fine.at(l, 0, 2 * cy + 1);
            for (int cx = 0; cx < C.n; ++cx) {
                const std::size_t a = f0 + 2 * cx;     // (2cx,   2cy)
                const std::size_t b = f0 + 2 * cx + 1; // (2cx+1, 2cy)
                const std::size_t c = f1 + 2 * cx;     // (2cx,   2cy+1)
                const std::size_t d = f1 + 2 * cx + 1; // (2cx+1, 2cy+1)
                // Couplings crossing the block's +x / +y boundary;
                // fine boundary entries are zero, so the last coarse
                // column/row comes out zero without branching.
                C.gRight[crow + cx] = fine.gRight[b] + fine.gRight[d];
                C.gDown[crow + cx] = fine.gDown[c] + fine.gDown[d];
                C.gBelow[crow + cx] = fine.gBelow[a] + fine.gBelow[b] +
                    fine.gBelow[c] + fine.gBelow[d];
                C.gAmb[crow + cx] = fine.gAmb[a] + fine.gAmb[b] +
                    fine.gAmb[c] + fine.gAmb[d];
            }
        }
    }
    computeDiagMask(C);
    return C;
}

void
mgBuildProlongation(MgLevel &fine, const MgLevel &coarse)
{
    fine.pIdx.assign(4 * fine.cells, 0);
    fine.pW.assign(4 * fine.cells, 0.0);
    const int cn = coarse.n;
    for (int l = 0; l < fine.nl; ++l) {
        for (int iy = 0; iy < fine.n; ++iy) {
            for (int ix = 0; ix < fine.n; ++ix) {
                const std::size_t c = fine.at(l, ix, iy);
                if (fine.mask[c] == 0.0)
                    continue; // air receives no correction
                const int cx = ix >> 1, cy = iy >> 1;
                // Cell-centred bilinear: the second parent lies on the
                // side this fine cell sits in its block, clamped at
                // the grid edge (Neumann-consistent).
                const int cx2 =
                    std::clamp(cx + ((ix & 1) != 0 ? 1 : -1), 0, cn - 1);
                const int cy2 =
                    std::clamp(cy + ((iy & 1) != 0 ? 1 : -1), 0, cn - 1);
                const std::size_t p[4] = {
                    coarse.at(l, cx, cy), coarse.at(l, cx2, cy),
                    coarse.at(l, cx, cy2), coarse.at(l, cx2, cy2)};
                double w[4] = {0.75 * 0.75, 0.25 * 0.75, 0.75 * 0.25,
                               0.25 * 0.25};
                double sum = 0.0;
                for (int k = 0; k < 4; ++k) {
                    w[k] *= coarse.mask[p[k]];
                    sum += w[k];
                }
                if (sum <= 0.0)
                    continue; // no material parent: leave zero weights
                for (int k = 0; k < 4; ++k) {
                    fine.pIdx[4 * c + k] =
                        static_cast<std::int32_t>(p[k]);
                    fine.pW[4 * c + k] = w[k] / sum;
                }
            }
        }
    }
}

double
mgSmooth(MgLevel &L, ThreadPool &pool)
{
    const int n = L.n, nl = L.nl, pn = L.pn;
    const std::size_t plane = L.plane;
    const double *gR = L.gRight.data();
    const double *gD = L.gDown.data();
    const double *gB = L.gBelow.data();
    const double *diag = L.diag.data();
    const double *rhs = L.rhs.data();
    double *u = L.u.data();
    double *cp = L.cp.data();
    double *dp = L.dp.data();

    // One colour class of one row: every column of parity
    // (iy + colour) is solved exactly in the vertical direction via
    // the Thomas algorithm, reading only opposite-colour neighbours
    // laterally. Ghost cells hold zero g/u/cp/dp, so no phase
    // branches on boundaries and every inner loop vectorizes.
    auto sweepRow = [&](int iy, int color) -> double {
        const int ix0 = (iy + color) & 1;
        // Lateral gather: dp <- rhs + flows from the frozen colour.
        for (int l = 0; l < nl; ++l) {
            const std::size_t row = L.at(l, 0, iy);
            for (int ix = ix0; ix < n; ix += 2) {
                const std::size_t c = row + ix;
                dp[c] = rhs[c] + gR[c - 1] * u[c - 1] +
                    gR[c] * u[c + 1] + gD[c - pn] * u[c - pn] +
                    gD[c] * u[c + pn];
            }
        }
        // Thomas forward elimination down the stack.
        for (int l = 0; l < nl; ++l) {
            const std::size_t row = L.at(l, 0, iy);
            for (int ix = ix0; ix < n; ix += 2) {
                const std::size_t c = row + ix;
                const double a = gB[c - plane]; // coupling to l - 1
                const double inv =
                    1.0 / (diag[c] + a * cp[c - plane]);
                cp[c] = -gB[c] * inv;
                dp[c] = (dp[c] + a * dp[c - plane]) * inv;
            }
        }
        // Back-substitution, recording the largest move in kelvin.
        double md = 0.0;
        for (int l = nl - 1; l >= 0; --l) {
            const std::size_t row = L.at(l, 0, iy);
            for (int ix = ix0; ix < n; ix += 2) {
                const std::size_t c = row + ix;
                const double t = dp[c] - cp[c] * u[c + plane];
                md = std::max(md, std::fabs(t - u[c]));
                u[c] = t;
            }
        }
        return md;
    };

    double max_delta = 0.0;
    for (int color = 0; color < 2; ++color) {
        forEachRow(pool, n, L.cells, [&](std::size_t r) {
            L.rowDelta[r] = sweepRow(static_cast<int>(r), color);
        });
        // Index-ordered reduction keeps the result independent of the
        // pool's scheduling.
        for (int iy = 0; iy < n; ++iy)
            max_delta = std::max(max_delta, L.rowDelta[iy]);
    }
    return max_delta;
}

void
mgResidual(MgLevel &L, ThreadPool &pool)
{
    const int n = L.n, nl = L.nl, pn = L.pn;
    const std::size_t plane = L.plane;
    const double *gR = L.gRight.data();
    const double *gD = L.gDown.data();
    const double *gB = L.gBelow.data();
    const double *diag = L.diag.data();
    const double *mask = L.mask.data();
    const double *rhs = L.rhs.data();
    const double *u = L.u.data();
    double *res = L.res.data();
    forEachRow(pool, n, L.cells, [&](std::size_t r) {
        const int iy = static_cast<int>(r);
        for (int l = 0; l < nl; ++l) {
            const std::size_t row = L.at(l, 0, iy);
            for (int ix = 0; ix < n; ++ix) {
                const std::size_t c = row + ix;
                res[c] = mask[c] *
                    (rhs[c] + gR[c - 1] * u[c - 1] + gR[c] * u[c + 1] +
                     gD[c - pn] * u[c - pn] + gD[c] * u[c + pn] +
                     gB[c - plane] * u[c - plane] +
                     gB[c] * u[c + plane] - diag[c] * u[c]);
            }
        }
    });
}

void
mgRestrict(const MgLevel &fine, MgLevel &coarse, ThreadPool &pool)
{
    std::fill(coarse.u.begin(), coarse.u.end(), 0.0);
    const double *res = fine.res.data();
    double *crhs = coarse.rhs.data();
    const int cn = coarse.n, nl = coarse.nl;
    forEachRow(pool, cn, coarse.cells, [&](std::size_t r) {
        const int cy = static_cast<int>(r);
        for (int l = 0; l < nl; ++l) {
            const std::size_t crow = coarse.at(l, 0, cy);
            const std::size_t f0 = fine.at(l, 0, 2 * cy);
            const std::size_t f1 = fine.at(l, 0, 2 * cy + 1);
            for (int cx = 0; cx < cn; ++cx) {
                // Fixed-order sum of the block's four residuals.
                crhs[crow + cx] = res[f0 + 2 * cx] +
                    res[f0 + 2 * cx + 1] + res[f1 + 2 * cx] +
                    res[f1 + 2 * cx + 1];
            }
        }
    });
}

void
mgProlongAdd(MgLevel &fine, const MgLevel &coarse, ThreadPool &pool)
{
    const double *cu = coarse.u.data();
    const std::int32_t *pi = fine.pIdx.data();
    const double *pw = fine.pW.data();
    double *u = fine.u.data();
    const int n = fine.n, nl = fine.nl;
    forEachRow(pool, n, fine.cells, [&](std::size_t r) {
        const int iy = static_cast<int>(r);
        for (int l = 0; l < nl; ++l) {
            const std::size_t row = fine.at(l, 0, iy);
            for (int ix = 0; ix < n; ++ix) {
                const std::size_t c = row + ix;
                const std::size_t k = 4 * c;
                u[c] += pw[k] * cu[pi[k]] + pw[k + 1] * cu[pi[k + 1]] +
                    pw[k + 2] * cu[pi[k + 2]] +
                    pw[k + 3] * cu[pi[k + 3]];
            }
        }
    });
}

MgSolver::MgSolver(MgLevel fine, int max_cycles, double tolerance_k)
    : maxCycles_(std::max(1, max_cycles)), toleranceK_(tolerance_k)
{
    levels_.push_back(std::move(fine));
    while (levels_.back().n % 2 == 0 &&
           levels_.back().n / 2 >= kCoarsestN) {
        levels_.push_back(mgCoarsen(levels_.back()));
        mgBuildProlongation(levels_[levels_.size() - 2],
                            levels_.back());
    }
    if (numLevels() == 1 && levels_.front().n > kCoarsestN)
        warn("multigrid on a %d-wide grid that cannot be coarsened "
             "(odd size); falling back to plain line relaxation",
             levels_.front().n);
}

void
MgSolver::setProblem(const std::vector<double> &power_w,
                     const std::vector<double> *u0)
{
    MgLevel &f = levels_.front();
    if (power_w.size() != f.cells ||
        (u0 != nullptr && u0->size() != f.cells))
        fatal("multigrid problem arrays have the wrong size");
    if (u0 == nullptr)
        std::fill(f.u.begin(), f.u.end(), 0.0);
    for (int l = 0; l < f.nl; ++l) {
        for (int iy = 0; iy < f.n; ++iy) {
            const std::size_t row = f.at(l, 0, iy);
            for (int ix = 0; ix < f.n; ++ix) {
                const std::size_t c = row + ix;
                // Masked so air cells keep rhs = u = 0 exactly.
                f.rhs[c] = power_w[c] * f.mask[c];
                if (u0 != nullptr)
                    f.u[c] = (*u0)[c] * f.mask[c];
            }
        }
    }
}

double
MgSolver::cycleAt(int k, ThreadPool &pool)
{
    MgLevel &L = levels_[static_cast<std::size_t>(k)];
    if (k == numLevels() - 1) {
        double d = 0.0;
        for (int s = 0; s < kCoarseSweeps; ++s)
            d = mgSmooth(L, pool);
        return d;
    }
    for (int s = 0; s < kPreSmooth; ++s)
        mgSmooth(L, pool);
    mgResidual(L, pool);
    mgRestrict(L, levels_[static_cast<std::size_t>(k) + 1], pool);
    for (int g = 0; g < kCoarseVisits; ++g)
        cycleAt(k + 1, pool);
    mgProlongAdd(L, levels_[static_cast<std::size_t>(k) + 1], pool);
    double delta = 0.0;
    for (int s = 0; s < kPostSmooth; ++s)
        delta = mgSmooth(L, pool);
    return delta;
}

double
MgSolver::cycle()
{
    ThreadPool &pool = ThreadPool::global();
    if (numLevels() == 1) {
        double d = 0.0;
        for (int s = 0; s < kPreSmooth + kPostSmooth; ++s)
            d = mgSmooth(levels_[0], pool);
        return d;
    }
    return cycleAt(0, pool);
}

MgSolver::Stats
MgSolver::solve()
{
    Stats s;
    double delta = 0.0;
    double prev = 0.0;
    for (int k = 0; k < maxCycles_; ++k) {
        delta = cycle();
        s.cycles = k + 1;
        // Geometric-series error bound: with per-cycle contraction
        // rho, the remaining distance to the fixed point is at most
        // delta * rho / (1 - rho). Requiring the bound (not just the
        // raw delta) under the tolerance makes the stop test never
        // looser than the legacy delta test. rho is clamped below 1
        // so a transient non-contracting cycle keeps iterating
        // instead of dividing by zero.
        const double rho = prev > 0.0
            ? std::min(std::max(delta / prev, 0.0), 0.99)
            : 0.0;
        s.contraction = rho;
        s.estErrorK = delta * rho / (1.0 - rho);
        if (delta < toleranceK_ && s.estErrorK < toleranceK_)
            break;
        prev = delta;
    }
    s.residualK = delta;
    return s;
}

double
MgSolver::maxScaledResidualK()
{
    MgLevel &f = levels_.front();
    mgResidual(f, ThreadPool::global());
    double m = 0.0;
    for (int l = 0; l < f.nl; ++l) {
        for (int iy = 0; iy < f.n; ++iy) {
            const std::size_t row = f.at(l, 0, iy);
            for (int ix = 0; ix < f.n; ++ix)
                m = std::max(
                    m, std::fabs(f.res[row + ix]) / f.diag[row + ix]);
        }
    }
    return m;
}

} // namespace th
