#include "thermal/grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/log.h"
#include "thermal/multigrid.h"

namespace th {

/**
 * The grid's RC network: the conductances on the padded layout that
 * every level of the multigrid hierarchy shares, plus what the other
 * kernels read, all on that layout and built once per grid. Each kernel
 * visits only its material cells, listed as spans of consecutive
 * columns (DESIGN.md section 17).
 */
struct GridNetwork : PaddedNetwork
{
    /** Thermal capacitance per cell (J/K); 0 on air and guards. */
    std::vector<double> cap;
    /** 1 / sum(G), or 0 for isolated (air) cells. */
    std::vector<double> invG;
    /** Injected power per cell (W), as addPower() deposits it. */
    std::vector<double> pIn;

    /** Consecutive visited cells of one (layer, iy) row. */
    struct Span
    {
        std::size_t cell; ///< Padded index of the first cell.
        int len;
    };
    /** Cells the transient schemes step (C > 0), row by row. */
    std::vector<Span> stepSpans;
    /** Cells the SOR sweep updates (sum G > 0), in lexicographic
     *  order. */
    std::vector<Span> sorSpans;

    /**
     * The lexicographic sweep plan, in order: @p rows consecutive
     * entries of sorSpans starting at @p span. Rows > 1 only when each
     * is its row's single span, the rows are consecutive in one layer
     * and they share their columns — a block the skewed wavefront
     * sweeps.
     */
    struct Group
    {
        std::size_t span;
        int rows;
    };
    std::vector<Group> sorGroups;

    /** Padded copy of @p f; guard cells hold @p guard_k. */
    std::vector<double> pad(const ThermalField &f, double guard_k) const
    {
        std::vector<double> t(cells, guard_k);
        for (int l = 0; l < nl; ++l)
            for (int iy = 0; iy < n; ++iy)
                for (int ix = 0; ix < n; ++ix)
                    t[at(l, ix, iy)] = f.at(l, ix, iy);
        return t;
    }

    /** Copy the real cells of padded @p t into @p f. */
    void unpad(const std::vector<double> &t, ThermalField &f) const
    {
        for (int l = 0; l < nl; ++l)
            for (int iy = 0; iy < n; ++iy)
                for (int ix = 0; ix < n; ++ix)
                    f.at(l, ix, iy) = t[at(l, ix, iy)];
    }
};

namespace {

/** Rows a lexicographic SOR wavefront overlaps (see sorRows). */
constexpr int kSkewRows = 6;

/** Effective sink-to-ambient convection resistance (K/W), spread
 *  evenly over the top layer's cells. */
constexpr double kConvectionKPerW = 0.33;

/** SOR over-relaxation factor. */
constexpr double kSorOmega = 1.88;

/** Cap on SOR sweeps, and on multigrid cycles. */
constexpr int kMaxIterations = 200000;

/**
 * One SOR update of padded cell @p c: the same expression and
 * addition order as a per-cell sweep that skips absent neighbours,
 * with every neighbour term present (a guard or air neighbour has
 * G = 0 and adds exactly 0). @p src holds gAmb * T_ambient + P.
 * Returns |delta|.
 */
inline double
sorCell(const GridNetwork &g, const double *src, double *t,
        std::size_t c, double omega)
{
    const double *gr = g.gRight.data();
    const double *gd = g.gDown.data();
    const double *gb = g.gBelow.data();
    const std::size_t pn = static_cast<std::size_t>(g.pn);
    const std::size_t plane = g.plane;
    double flow = src[c];
    flow += gr[c - 1] * t[c - 1];
    flow += gr[c] * t[c + 1];
    flow += gd[c - pn] * t[c - pn];
    flow += gd[c] * t[c + pn];
    flow += gb[c - plane] * t[c - plane];
    flow += gb[c] * t[c + plane];
    const double t_new = flow * g.invG[c];
    const double delta = omega * (t_new - t[c]);
    t[c] += delta;
    return std::fabs(delta);
}

/**
 * Lexicographic SOR over @p rows consecutive rows of one layer that
 * share the columns [first, first + len) (@p first is the padded
 * index of the top row's first cell), as a skewed wavefront: at step
 * s, row j updates column s - j. A cell then reads its left and upper
 * neighbours already updated (steps s - 1) and its right and lower
 * ones not yet (step s + 1), exactly as the row-by-row order does, and
 * the rows' updates within a step are independent, so their
 * dependency chains overlap. Returns the largest |delta|.
 */
double
sorRows(const GridNetwork &g, const double *src, double *t,
        std::size_t first, int len, int rows, double omega)
{
    double lane_max[kSkewRows] = {};
    const auto pn = static_cast<std::size_t>(g.pn);
    for (int s = 0; s < len + rows - 1; ++s) {
        const int j_end = std::min(rows, s + 1);
        for (int j = std::max(0, s - len + 1); j < j_end; ++j) {
            const std::size_t c = first + static_cast<std::size_t>(j) * pn +
                static_cast<std::size_t>(s - j);
            lane_max[j] =
                std::max(lane_max[j], sorCell(g, src, t, c, omega));
        }
    }
    double md = 0.0;
    for (int j = 0; j < rows; ++j)
        md = std::max(md, lane_max[j]);
    return md;
}

/**
 * Two adjacent cells, one per lane. Lane-wise arithmetic rounds each
 * lane exactly as the scalar operation would.
 */
using Lanes2 = double __attribute__((vector_size(16)));

/** Unaligned load of a double or a Lanes2. */
template <class V>
V
load(const double *p)
{
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * @p steps explicit-Euler steps over the padded double buffer: each
 * step reads @p cur and writes every material cell of @p next with
 * T + dt/C * (sum G*(Tn - T) + P), terms in the per-cell loop's
 * order, two cells at a time; then the buffers swap. Air and guard
 * cells are never written, so both buffers keep their values.
 */
void
explicitSteps(const GridNetwork &g, const double *rate, double *&cur,
              double *&next, std::int64_t steps)
{
    const double *gr = g.gRight.data();
    const double *gd = g.gDown.data();
    const double *gb = g.gBelow.data();
    const double *ga = g.gAmb.data();
    const double *p_in = g.pIn.data();
    const auto pn = static_cast<std::size_t>(g.pn);
    const std::size_t plane = g.plane;
    for (std::int64_t s = 0; s < steps; ++s) {
        const double *t = cur;
        double *out = next;
        // Cell c (a double) or cells c and c + 1 (a Lanes2).
        const auto update = [&](auto lanes, std::size_t c) {
            using V = decltype(lanes);
            const V tc = load<V>(t + c);
            V flow = load<V>(ga + c) * (kAmbientK - tc) + load<V>(p_in + c);
            flow += load<V>(gr + c - 1) * (load<V>(t + c - 1) - tc);
            flow += load<V>(gr + c) * (load<V>(t + c + 1) - tc);
            flow += load<V>(gd + c - pn) * (load<V>(t + c - pn) - tc);
            flow += load<V>(gd + c) * (load<V>(t + c + pn) - tc);
            flow += load<V>(gb + c - plane) * (load<V>(t + c - plane) - tc);
            flow += load<V>(gb + c) * (load<V>(t + c + plane) - tc);
            const V t_next = tc + load<V>(rate + c) * flow;
            std::memcpy(out + c, &t_next, sizeof t_next);
        };
        for (const GridNetwork::Span &sp : g.stepSpans) {
            int i = 0;
            for (; i + 2 <= sp.len; i += 2)
                update(Lanes2{}, sp.cell + static_cast<std::size_t>(i));
            if (i < sp.len)
                update(0.0, sp.cell + static_cast<std::size_t>(i));
        }
        std::swap(cur, next);
    }
}

/**
 * @p steps VerticalImplicit steps in place on the padded field @p t.
 * Each step first writes every material cell's right-hand side into
 * @p rhs from the pre-step field: the storage term C/dt * T, the
 * constant parts of the implicit terms (ambient sink, injected power)
 * and the lateral flux, with every neighbour term present. Then it
 * advances each (ix, iy) column, stride plane, by one backward-Euler
 * solve of its vertical conduction + ambient convection chain:
 *   (C/dt + gAmb + gUp + gDown) T' - gUp T'_up - gDown T'_dn = rhs.
 * Air cells are identity rows (their couplings are zero, so the chain
 * decouples across them and they keep their temperature, as under
 * explicit Euler). Thomas algorithm; columns are independent. @p c_dt
 * holds each material cell's C / dt, and 0 elsewhere.
 */
void
imexSteps(const GridNetwork &g, const double *c_dt, double *t,
          double *rhs, std::int64_t steps)
{
    const double *gr = g.gRight.data();
    const double *gd = g.gDown.data();
    const double *gb = g.gBelow.data();
    const double *ga = g.gAmb.data();
    const double *p_in = g.pIn.data();
    const auto pn = static_cast<std::size_t>(g.pn);
    const std::size_t plane = g.plane;
    const auto nl = static_cast<std::size_t>(g.nl);
    std::vector<double> diag(nl), upper(nl), col(nl);
    for (std::int64_t s = 0; s < steps; ++s) {
        for (const GridNetwork::Span &sp : g.stepSpans) {
            const std::size_t end =
                sp.cell + static_cast<std::size_t>(sp.len);
            for (std::size_t c = sp.cell; c < end; ++c) {
                const double tc = t[c];
                double r = c_dt[c] * tc + ga[c] * kAmbientK + p_in[c];
                r += gr[c - 1] * (t[c - 1] - tc);
                r += gr[c] * (t[c + 1] - tc);
                r += gd[c - pn] * (t[c - pn] - tc);
                r += gd[c] * (t[c + pn] - tc);
                rhs[c] = r;
            }
        }
        for (int iy = 0; iy < g.n; ++iy) {
            for (int ix = 0; ix < g.n; ++ix) {
                const std::size_t top = g.at(0, ix, iy);
                for (std::size_t l = 0; l < nl; ++l) {
                    const std::size_t c = top + l * plane;
                    if (c_dt[c] <= 0.0) {
                        diag[l] = 1.0;
                        upper[l] = 0.0;
                        col[l] = t[c];
                        continue;
                    }
                    diag[l] = c_dt[c] + ga[c] + gb[c - plane] + gb[c];
                    upper[l] = -gb[c];
                    col[l] = rhs[c];
                }
                // Forward elimination (the sub-diagonal of row l is the
                // upper coupling of row l-1 by symmetry), then
                // back-substitution straight into the field.
                for (std::size_t l = 1; l < nl; ++l) {
                    const double w = -upper[l - 1] / diag[l - 1];
                    diag[l] += w * upper[l - 1];
                    col[l] += w * col[l - 1];
                }
                double t_below = col[nl - 1] / diag[nl - 1];
                t[top + (nl - 1) * plane] = t_below;
                for (std::size_t l = nl - 1; l-- > 0;) {
                    t_below = (col[l] - upper[l] * t_below) / diag[l];
                    t[top + l * plane] = t_below;
                }
            }
        }
    }
}

/**
 * The largest dt <= @p dt_s with dt <= 0.4 * C / sum(G) on every
 * material cell. Explicit Euler sums every coupling; VerticalImplicit
 * integrates vertical conduction and ambient convection implicitly,
 * so only its lateral couplings bound the step — typically 1000x the
 * explicit bound on a thinned stack.
 */
double
stableDt(const GridNetwork &g, double dt_s, TransientScheme scheme)
{
    if (dt_s <= 0.0)
        fatal("transient step must be positive (got %g)", dt_s);
    const auto pn = static_cast<std::size_t>(g.pn);
    double dt = dt_s;
    for (const GridNetwork::Span &sp : g.stepSpans) {
        const std::size_t end = sp.cell + static_cast<std::size_t>(sp.len);
        for (std::size_t c = sp.cell; c < end; ++c) {
            const double sum = scheme == TransientScheme::Explicit
                ? g.conductanceSum(c)
                : g.gRight[c - 1] + g.gRight[c] + g.gDown[c - pn] +
                    g.gDown[c];
            if (sum > 0.0)
                dt = std::min(dt, 0.4 * g.cap[c] / sum);
        }
    }
    return dt;
}

} // namespace

const char *
solverKindName(SolverKind kind)
{
    switch (kind) {
    case SolverKind::Sor:
        return "sor";
    case SolverKind::Multigrid:
        return "multigrid";
    }
    return "sor";
}

bool
solverKindByName(const std::string &name, SolverKind *out)
{
    if (name == "sor")
        *out = SolverKind::Sor;
    else if (name == "multigrid")
        *out = SolverKind::Multigrid;
    else
        return false;
    return true;
}

ThermalField::ThermalField(int grid_n, int layers)
    : n_(grid_n), layers_(layers),
      t_(static_cast<size_t>(grid_n) * grid_n * layers, kAmbientK)
{
}

double &
ThermalField::at(int layer, int ix, int iy)
{
    return t_[(static_cast<size_t>(layer) * n_ + iy) * n_ + ix];
}

double
ThermalField::at(int layer, int ix, int iy) const
{
    return t_[(static_cast<size_t>(layer) * n_ + iy) * n_ + ix];
}

double
ThermalField::peak(const std::vector<int> &die_layers) const
{
    double p = 0.0;
    for (int l : die_layers)
        for (int iy = 0; iy < n_; ++iy)
            for (int ix = 0; ix < n_; ++ix)
                p = std::max(p, at(l, ix, iy));
    return p;
}

ThermalGrid::ThermalGrid(const ThermalParams &params,
                         std::vector<ThermalLayer> layers,
                         double chip_w, double chip_h)
    : params_(params), layers_(std::move(layers)),
      chip_w_(chip_w), chip_h_(chip_h)
{
    if (layers_.empty())
        fatal("thermal stack needs at least one layer");
    if (chip_w_ > params_.spreaderMm || chip_h_ > params_.spreaderMm)
        fatal("chip (%.1f x %.1f mm) larger than spreader (%.1f mm)",
              chip_w_, chip_h_, params_.spreaderMm);
    chip_x0_ = (params_.spreaderMm - chip_w_) / 2.0;
    chip_y0_ = (params_.spreaderMm - chip_h_) / 2.0;
    cell_mm_ = params_.spreaderMm / static_cast<double>(params_.gridN);
    buildNetwork();
}

// Out of line: MgSolver is incomplete in the header.
ThermalGrid::~ThermalGrid() = default;
ThermalGrid::ThermalGrid(ThermalGrid &&) noexcept = default;
ThermalGrid &ThermalGrid::operator=(ThermalGrid &&) noexcept = default;

bool
ThermalGrid::insideChip(int ix, int iy) const
{
    const double cx = (static_cast<double>(ix) + 0.5) * cell_mm_;
    const double cy = (static_cast<double>(iy) + 0.5) * cell_mm_;
    return cx >= chip_x0_ && cx < chip_x0_ + chip_w_ &&
           cy >= chip_y0_ && cy < chip_y0_ + chip_h_;
}

double
ThermalGrid::cellK(int layer, int ix, int iy) const
{
    const ThermalLayer &l = layers_[static_cast<size_t>(layer)];
    return insideChip(ix, iy) ? l.kChip : l.kOutside;
}

void
ThermalGrid::forEachCellInRect(
    double x, double y, double w, double h,
    const std::function<void(int, int, double)> &fn) const
{
    // Chip coordinates -> spreader coordinates.
    const double x0 = x + chip_x0_, y0 = y + chip_y0_;
    const double x1 = x0 + w, y1 = y0 + h;
    const int ix0 = std::max(0, static_cast<int>(x0 / cell_mm_));
    const int iy0 = std::max(0, static_cast<int>(y0 / cell_mm_));
    const int ix1 = std::min(params_.gridN - 1,
                             static_cast<int>(x1 / cell_mm_));
    const int iy1 = std::min(params_.gridN - 1,
                             static_cast<int>(y1 / cell_mm_));
    for (int iy = iy0; iy <= iy1; ++iy) {
        for (int ix = ix0; ix <= ix1; ++ix) {
            const double cx0 = static_cast<double>(ix) * cell_mm_;
            const double cy0 = static_cast<double>(iy) * cell_mm_;
            const double ox = std::max(0.0,
                std::min(x1, cx0 + cell_mm_) - std::max(x0, cx0));
            const double oy = std::max(0.0,
                std::min(y1, cy0 + cell_mm_) - std::max(y0, cy0));
            const double frac = (ox * oy) / (cell_mm_ * cell_mm_);
            if (frac > 0.0)
                fn(ix, iy, frac);
        }
    }
}

void
ThermalGrid::addPower(int die, double x, double y, double w, double h,
                      double watts)
{
    const int l = dieLayer(die);
    if (l < 0)
        fatal("addPower to missing die %d", die);
    if (watts <= 0.0 || w <= 0.0 || h <= 0.0)
        return;
    // Normalise by the rect's own area so the whole wattage lands even
    // when the rect is clipped at the chip edge.
    double covered = 0.0;
    forEachCellInRect(x, y, w, h, [&](int, int, double f) {
        covered += f;
    });
    if (covered <= 0.0)
        return;
    GridNetwork &g = *net_;
    forEachCellInRect(x, y, w, h, [&](int ix, int iy, double f) {
        g.pIn[g.at(l, ix, iy)] += watts * f / covered;
    });
}

void
ThermalGrid::clearPower()
{
    std::fill(net_->pIn.begin(), net_->pIn.end(), 0.0);
}

double
ThermalGrid::totalPower() const
{
    return std::accumulate(net_->pIn.begin(), net_->pIn.end(), 0.0);
}

int
ThermalGrid::dieLayer(int die) const
{
    for (size_t l = 0; l < layers_.size(); ++l)
        if (layers_[l].dieIndex == die)
            return static_cast<int>(l);
    return -1;
}

std::vector<int>
ThermalGrid::dieLayers() const
{
    std::vector<int> v;
    for (size_t l = 0; l < layers_.size(); ++l)
        if (layers_[l].dieIndex >= 0)
            v.push_back(static_cast<int>(l));
    return v;
}

/**
 * Build the RC network: conductances, capacitances and SOR's inverse
 * conductance sums, written once into the padded layout, then the
 * kernels' visiting plans. Only the injected power changes afterwards.
 */
void
ThermalGrid::buildNetwork()
{
    net_ = std::make_unique<GridNetwork>();
    GridNetwork &g = *net_;
    g.resize(params_.gridN, static_cast<int>(layers_.size()));
    const int n = g.n;
    const int nl = g.nl;
    for (auto *a : {&g.cap, &g.invG, &g.pIn})
        a->assign(g.cells, 0.0);
    const double cell_m = cell_mm_ * 1e-3;
    const double area_m2 = cell_m * cell_m;

    for (int l = 0; l < nl; ++l) {
        const ThermalLayer &layer = layers_[static_cast<size_t>(l)];
        const double t_m = layer.thicknessMm * 1e-3;
        const double cell_vol = area_m2 * t_m;
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const double k1 = cellK(l, ix, iy);
                const size_t c = g.at(l, ix, iy);
                if (k1 > 0.0)
                    g.cap[c] = cell_vol * layer.volHeatCapacity;
                // Lateral (square cells: G = k * t).
                if (ix + 1 < n) {
                    const double k2 = cellK(l, ix + 1, iy);
                    if (k1 > 0.0 && k2 > 0.0)
                        g.gRight[c] = t_m * 2.0 * k1 * k2 / (k1 + k2);
                }
                if (iy + 1 < n) {
                    const double k2 = cellK(l, ix, iy + 1);
                    if (k1 > 0.0 && k2 > 0.0)
                        g.gDown[c] = t_m * 2.0 * k1 * k2 / (k1 + k2);
                }
                // Vertical to the next layer down.
                if (l + 1 < nl) {
                    const double k2 = cellK(l + 1, ix, iy);
                    const double t2_m =
                        layers_[static_cast<size_t>(l + 1)].thicknessMm *
                        1e-3;
                    if (k1 > 0.0 && k2 > 0.0) {
                        const double r = t_m / (2.0 * k1 * area_m2) +
                            t2_m / (2.0 * k2 * area_m2);
                        g.gBelow[c] = 1.0 / r;
                    }
                }
            }
        }
    }

    // Distributed convection from the top (sink) layer.
    const double g_cell_conv =
        (1.0 / kConvectionKPerW) / static_cast<double>(n * n);
    for (int iy = 0; iy < n; ++iy)
        for (int ix = 0; ix < n; ++ix)
            g.gAmb[g.at(0, ix, iy)] = g_cell_conv;

    // Per-cell conductance sums are loop-invariant: hoist them out of
    // the solver sweeps.
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const size_t c = g.at(l, ix, iy);
                const double sum = g.conductanceSum(c);
                g.invG[c] = sum > 0.0 ? 1.0 / sum : 0.0;
            }
        }
    }

    // Spans of the cells of row (l, iy) that visit(c) accepts.
    const auto addSpans = [&](int l, int iy, auto visit,
                              std::vector<GridNetwork::Span> &out) {
        for (int ix = 0; ix < n;) {
            if (!visit(g.at(l, ix, iy))) {
                ++ix;
                continue;
            }
            int end = ix + 1;
            while (end < n && visit(g.at(l, end, iy)))
                ++end;
            out.push_back({g.at(l, ix, iy), end - ix});
            ix = end;
        }
    };
    // Row r = l * n + iy owns sorSpans [sor_row[r], sor_row[r + 1]).
    std::vector<size_t> sor_row;
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            sor_row.push_back(g.sorSpans.size());
            addSpans(l, iy, [&](size_t c) { return g.cap[c] > 0.0; },
                     g.stepSpans);
            addSpans(l, iy, [&](size_t c) { return g.invG[c] != 0.0; },
                     g.sorSpans);
        }
    }
    sor_row.push_back(g.sorSpans.size());

    // Lexicographic plan: blocks of up to kSkewRows rows of one layer
    // whose single spans share their columns; any other row sweeps its
    // spans one by one.
    const auto rows = static_cast<size_t>(nl) * n;
    const auto single = [&](size_t r) {
        return sor_row[r + 1] - sor_row[r] == 1;
    };
    for (size_t r = 0; r < rows;) {
        if (!single(r)) {
            for (size_t sp = sor_row[r]; sp < sor_row[r + 1]; ++sp)
                g.sorGroups.push_back({sp, 1});
            ++r;
            continue;
        }
        const GridNetwork::Span &top = g.sorSpans[sor_row[r]];
        size_t k = 1;
        while (k < kSkewRows && r + k < rows &&
               (r + k) % static_cast<size_t>(n) != 0 && single(r + k)) {
            const GridNetwork::Span &next = g.sorSpans[sor_row[r + k]];
            if (next.len != top.len ||
                next.cell != top.cell + k * static_cast<size_t>(g.pn))
                break;
            ++k;
        }
        g.sorGroups.push_back({sor_row[r], static_cast<int>(k)});
        r += k;
    }
}

ThermalField
ThermalGrid::solve(SolveStats *stats, const ThermalField *warm_start) const
{
    if (params_.solver == SolverKind::Multigrid)
        return solveMultigrid(stats, warm_start);
    const GridNetwork &g = *net_;

    ThermalField field(g.n, g.nl);
    if (warm_start != nullptr) {
        if (warm_start->gridN() != g.n || warm_start->layers() != g.nl)
            fatal("warm-start field has the wrong geometry");
        field = *warm_start;
    }
    std::vector<double> t = g.pad(field, kAmbientK);
    // Each cell's first term, gAmb * T_ambient + P, is fixed for the
    // whole solve.
    std::vector<double> src(g.cells, 0.0);
    for (const GridNetwork::Span &sp : g.sorSpans)
        for (int i = 0; i < sp.len; ++i) {
            const size_t c = sp.cell + static_cast<size_t>(i);
            src[c] = g.gAmb[c] * kAmbientK + g.pIn[c];
        }

    int iter = 0;
    double max_delta = 0.0;
    for (; iter < kMaxIterations; ++iter) {
        max_delta = 0.0;
        for (const GridNetwork::Group &grp : g.sorGroups) {
            const GridNetwork::Span &sp = g.sorSpans[grp.span];
            max_delta = std::max(
                max_delta, sorRows(g, src.data(), t.data(), sp.cell,
                                   sp.len, grp.rows, kSorOmega));
        }
        if (max_delta < params_.maxResidualK)
            break;
    }
    if (iter >= kMaxIterations)
        warn("thermal solve hit the iteration cap (%d); residual above "
             "%g K", kMaxIterations, params_.maxResidualK);
    if (stats != nullptr) {
        stats->iterations = std::min(iter + 1, kMaxIterations);
        stats->residualK = max_delta;
        stats->contraction = 0.0;
        stats->estErrorK = max_delta;
    }
    g.unpad(t, field);
    return field;
}

/**
 * Multigrid steady state: solve A u = P for u = T - T_ambient (the
 * convection term folds into the diagonal) over the cached V-cycle
 * hierarchy. Shares the solve() contract — same stopping measure
 * (max kelvin move of a relaxation pass < maxResidualK), same
 * warm-start semantics, air cells pinned at ambient.
 */
ThermalField
ThermalGrid::solveMultigrid(SolveStats *stats,
                            const ThermalField *warm_start) const
{
    const GridNetwork &g = *net_;
    if (!mg_)
        mg_ = std::make_unique<MgSolver>(mgFineLevel(g), kMaxIterations,
                                         params_.maxResidualK);

    std::vector<double> u0;
    if (warm_start != nullptr) {
        if (warm_start->gridN() != g.n || warm_start->layers() != g.nl)
            fatal("warm-start field has the wrong geometry");
        u0 = g.pad(*warm_start, kAmbientK);
        for (double &u : u0)
            u -= kAmbientK;
    }
    mg_->setProblem(g.pIn, warm_start != nullptr ? &u0 : nullptr);

    const MgSolver::Stats ms = mg_->solve();
    if (ms.cycles >= kMaxIterations &&
        ms.residualK >= params_.maxResidualK)
        warn("thermal solve hit the iteration cap (%d); residual above "
             "%g K", kMaxIterations, params_.maxResidualK);

    ThermalField field(g.n, g.nl);
    g.unpad(mg_->level(0).u, field);
    const size_t cells = static_cast<size_t>(g.nl) * g.n * g.n;
    for (size_t c = 0; c < cells; ++c)
        field.t(c) += kAmbientK;
    if (stats != nullptr) {
        stats->iterations = ms.cycles;
        stats->residualK = ms.residualK;
        stats->contraction = ms.contraction;
        stats->estErrorK = ms.estErrorK;
    }
    return field;
}

double
ThermalGrid::transientDt(double dt_s) const
{
    return stableDt(*net_, dt_s, TransientScheme::Explicit);
}

// ---------------------------------------------------------------------
// TransientStepper.
// ---------------------------------------------------------------------

TransientStepper::TransientStepper(const ThermalGrid &grid,
                                   const ThermalField &initial,
                                   double dt_s, TransientScheme scheme)
    : grid_(&grid), field_(initial),
      dt_(stableDt(*grid.net_, dt_s, scheme)), scheme_(scheme)
{
    const GridNetwork &g = *grid.net_;
    if (initial.gridN() != g.n || initial.layers() != g.nl)
        fatal("stepper initial field has the wrong geometry");
    cur_ = g.pad(initial, kAmbientK);
    next_ = cur_;
    rate_.assign(g.cells, 0.0);
    const double inv_dt = 1.0 / dt_;
    for (const GridNetwork::Span &sp : g.stepSpans)
        for (int i = 0; i < sp.len; ++i) {
            const size_t c = sp.cell + static_cast<size_t>(i);
            rate_[c] = scheme_ == TransientScheme::Explicit
                ? dt_ / g.cap[c]
                : g.cap[c] * inv_dt;
        }
}

void
TransientStepper::advance(double duration_s)
{
    if (duration_s < 0.0)
        fatal("cannot step time backwards (%g s)", duration_s);
    targetS_ += duration_s;
    // Derive the step count from the accumulated target so split and
    // unsplit runs take identical step sequences; the epsilon absorbs
    // float error when the target is an exact multiple of dt.
    const auto want =
        static_cast<std::int64_t>(targetS_ / dt_ + 1e-9);
    if (want > steps_)
        step(want - steps_);
}

void
TransientStepper::step(std::int64_t count)
{
    const GridNetwork &g = *grid_->net_;
    if (scheme_ == TransientScheme::VerticalImplicit) {
        imexSteps(g, rate_.data(), cur_.data(), next_.data(), count);
    } else {
        double *cur = cur_.data();
        double *next = next_.data();
        explicitSteps(g, rate_.data(), cur, next, count);
        if (cur != cur_.data())
            cur_.swap(next_);
    }
    g.unpad(cur_, field_);
    steps_ += count;
}

double
TransientStepper::timeS() const
{
    return static_cast<double>(steps_) * dt_;
}

void
ThermalGrid::blockTemps(const ThermalField &field, int die, double x,
                        double y, double w, double h, double &avg_k,
                        double &peak_k) const
{
    const int l = dieLayer(die);
    if (l < 0)
        fatal("blockTemps on missing die %d", die);
    double wsum = 0.0, tsum = 0.0, pk = 0.0;
    forEachCellInRect(x, y, w, h, [&](int ix, int iy, double f) {
        const double t = field.at(l, ix, iy);
        wsum += f;
        tsum += f * t;
        pk = std::max(pk, t);
    });
    avg_k = wsum > 0.0 ? tsum / wsum : kAmbientK;
    peak_k = pk > 0.0 ? pk : kAmbientK;
}

} // namespace th
