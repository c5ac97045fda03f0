#include "thermal/grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/log.h"
#include "thermal/multigrid.h"

namespace th {

/**
 * Geometry-only copy of ThermalGrid::Network that the exact kernels
 * (SOR sweeps, explicit Euler) read. Every array is padded with one
 * guard cell on both sides of each axis, in MgLevel's (layer, iy, ix)
 * layout; guard entries hold zero conductance, so a missing neighbour
 * is a term that adds exactly 0 and no cell update branches on a
 * boundary. Each kernel visits only its material cells, listed as
 * spans of consecutive columns (DESIGN.md section 17).
 */
struct PaddedNetwork
{
    int n = 0;
    int nl = 0;
    int pn = 0;            ///< Padded row stride, n + 2.
    std::size_t plane = 0; ///< Padded plane size, pn * pn.
    std::size_t cells = 0; ///< Padded total, (nl + 2) * plane.

    /** Padded flat index of real cell (l, ix, iy). */
    std::size_t at(int l, int ix, int iy) const
    {
        return (static_cast<std::size_t>(l + 1) * pn + (iy + 1)) * pn +
               (ix + 1);
    }

    std::vector<double> gRight, gDown, gBelow, gAmb;
    /** 1 / sum(G), or 0 for isolated (air) cells. */
    std::vector<double> invG;

    /** Consecutive visited cells of one (layer, iy) row. */
    struct Span
    {
        std::size_t cell; ///< Padded index of the first cell.
        std::size_t flat; ///< Its ThermalField / Network index.
        int len;
    };
    /** Cells the explicit kernel steps (C > 0), row by row. */
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
 * addition order as a sweep over the unpadded network, with every
 * neighbour term present (a guard or air neighbour has G = 0 and adds
 * exactly 0). @p src holds gAmb * T_ambient + P. Returns |delta|.
 */
inline double
sorCell(const PaddedNetwork &g, const double *src, double *t,
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
sorRows(const PaddedNetwork &g, const double *src, double *t,
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
 * T + dt/C * (sum G*(Tn - T) + P), terms in the unpadded sweep's
 * order, two cells at a time; then the buffers swap. Air and guard
 * cells are never written, so both buffers keep their values.
 */
void
explicitSteps(const PaddedNetwork &g, const double *p_in,
              const double *rate, double *&cur, double *&next,
              std::int64_t steps)
{
    const double *gr = g.gRight.data();
    const double *gd = g.gDown.data();
    const double *gb = g.gBelow.data();
    const double *ga = g.gAmb.data();
    const auto pn = static_cast<std::size_t>(g.pn);
    const std::size_t plane = g.plane;
    for (std::int64_t s = 0; s < steps; ++s) {
        const double *t = cur;
        double *out = next;
        // Cell c (a double) or cells c and c + 1 (a Lanes2).
        const auto update = [&](auto lanes, std::size_t c,
                                const double *pin) {
            using V = decltype(lanes);
            const V tc = load<V>(t + c);
            V flow = load<V>(ga + c) * (kAmbientK - tc) + load<V>(pin);
            flow += load<V>(gr + c - 1) * (load<V>(t + c - 1) - tc);
            flow += load<V>(gr + c) * (load<V>(t + c + 1) - tc);
            flow += load<V>(gd + c - pn) * (load<V>(t + c - pn) - tc);
            flow += load<V>(gd + c) * (load<V>(t + c + pn) - tc);
            flow += load<V>(gb + c - plane) * (load<V>(t + c - plane) - tc);
            flow += load<V>(gb + c) * (load<V>(t + c + plane) - tc);
            const V t_next = tc + load<V>(rate + c) * flow;
            std::memcpy(out + c, &t_next, sizeof t_next);
        };
        for (const PaddedNetwork::Span &sp : g.stepSpans) {
            const double *pin = p_in + sp.flat;
            int i = 0;
            for (; i + 2 <= sp.len; i += 2)
                update(Lanes2{}, sp.cell + static_cast<std::size_t>(i),
                       pin + i);
            if (i < sp.len)
                update(0.0, sp.cell + static_cast<std::size_t>(i), pin + i);
        }
        std::swap(cur, next);
    }
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

    int dies = 0;
    for (const auto &l : layers_)
        if (l.dieIndex >= 0)
            dies = std::max(dies, l.dieIndex + 1);
    power_.assign(static_cast<size_t>(dies),
                  std::vector<double>(
                      static_cast<size_t>(params_.gridN) * params_.gridN,
                      0.0));
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
    if (die < 0 || die >= static_cast<int>(power_.size()))
        fatal("addPower to die %d of %zu", die, power_.size());
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
    auto &p = power_[static_cast<size_t>(die)];
    forEachCellInRect(x, y, w, h, [&](int ix, int iy, double f) {
        p[static_cast<size_t>(iy) * params_.gridN + ix] +=
            watts * f / covered;
    });
    power_dirty_ = true;
}

void
ThermalGrid::clearPower()
{
    for (auto &p : power_)
        std::fill(p.begin(), p.end(), 0.0);
    power_dirty_ = true;
}

double
ThermalGrid::totalPower() const
{
    double t = 0.0;
    for (const auto &p : power_)
        for (double w : p)
            t += w;
    return t;
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
 * Build the geometry-dependent half of the RC network: conductances,
 * capacitances, and the per-cell conductance sums. These never change
 * after construction, so they are computed once and shared by every
 * steady-state and transient solve (and every leakage-feedback round).
 */
void
ThermalGrid::buildConductances() const
{
    Network &net = net_;
    net.n = params_.gridN;
    net.nl = static_cast<int>(layers_.size());
    const int n = net.n;
    const int nl = net.nl;
    const double cell_m = cell_mm_ * 1e-3;
    const double area_m2 = cell_m * cell_m;

    const size_t cells = static_cast<size_t>(nl) * n * n;
    net.gRight.assign(cells, 0.0);
    net.gDown.assign(cells, 0.0);
    net.gBelow.assign(cells, 0.0);
    net.gAmb.assign(cells, 0.0);
    net.gSum.assign(cells, 0.0);
    net.cap.assign(cells, 0.0);
    net.pIn.assign(cells, 0.0);

    for (int l = 0; l < nl; ++l) {
        const ThermalLayer &layer = layers_[static_cast<size_t>(l)];
        const double t_m = layer.thicknessMm * 1e-3;
        const double cell_vol = area_m2 * t_m;
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const double k1 = cellK(l, ix, iy);
                const size_t c = net.idx(l, ix, iy);
                if (k1 > 0.0)
                    net.cap[c] = cell_vol * layer.volHeatCapacity;
                // Lateral (square cells: G = k * t).
                if (ix + 1 < n) {
                    const double k2 = cellK(l, ix + 1, iy);
                    if (k1 > 0.0 && k2 > 0.0)
                        net.gRight[c] = t_m * 2.0 * k1 * k2 / (k1 + k2);
                }
                if (iy + 1 < n) {
                    const double k2 = cellK(l, ix, iy + 1);
                    if (k1 > 0.0 && k2 > 0.0)
                        net.gDown[c] = t_m * 2.0 * k1 * k2 / (k1 + k2);
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
                        net.gBelow[c] = 1.0 / r;
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
            net.gAmb[net.idx(0, ix, iy)] = g_cell_conv;

    // Per-cell conductance sums are loop-invariant: hoist them out of
    // the solver sweeps (the seed recomputed them every SOR iteration).
    const size_t plane = static_cast<size_t>(n) * n;
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const size_t c = net.idx(l, ix, iy);
                double g = net.gAmb[c];
                if (ix > 0)
                    g += net.gRight[c - 1];
                if (ix + 1 < n)
                    g += net.gRight[c];
                if (iy > 0)
                    g += net.gDown[c - n];
                if (iy + 1 < n)
                    g += net.gDown[c];
                if (l > 0)
                    g += net.gBelow[c - plane];
                if (l + 1 < nl)
                    g += net.gBelow[c];
                net.gSum[c] = g;
            }
        }
    }
}

/** Build the padded copy and the kernels' visiting plans from net_. */
void
ThermalGrid::buildPadded() const
{
    const Network &net = net_;
    auto pad = std::make_unique<PaddedNetwork>();
    PaddedNetwork &g = *pad;
    const int n = net.n;
    const int nl = net.nl;
    g.n = n;
    g.nl = nl;
    g.pn = n + 2;
    g.plane = static_cast<size_t>(g.pn) * g.pn;
    g.cells = static_cast<size_t>(nl + 2) * g.plane;
    for (auto *a : {&g.gRight, &g.gDown, &g.gBelow, &g.gAmb, &g.invG})
        a->assign(g.cells, 0.0);
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const size_t c = net.idx(l, ix, iy);
                const size_t pc = g.at(l, ix, iy);
                g.gRight[pc] = net.gRight[c];
                g.gDown[pc] = net.gDown[c];
                g.gBelow[pc] = net.gBelow[c];
                g.gAmb[pc] = net.gAmb[c];
                g.invG[pc] = net.gSum[c] > 0.0 ? 1.0 / net.gSum[c] : 0.0;
            }
        }
    }

    // Spans of the cells of row (l, iy) that visit(ix) accepts.
    const auto addSpans = [&](int l, int iy, auto visit,
                              std::vector<PaddedNetwork::Span> &out) {
        for (int ix = 0; ix < n;) {
            if (!visit(ix)) {
                ++ix;
                continue;
            }
            int end = ix + 1;
            while (end < n && visit(end))
                ++end;
            out.push_back({g.at(l, ix, iy), net.idx(l, ix, iy), end - ix});
            ix = end;
        }
    };
    // Row r = l * n + iy owns sorSpans [sor_row[r], sor_row[r + 1]).
    std::vector<size_t> sor_row;
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            sor_row.push_back(g.sorSpans.size());
            addSpans(l, iy, [&](int ix) {
                return net.cap[net.idx(l, ix, iy)] > 0.0;
            }, g.stepSpans);
            addSpans(l, iy, [&](int ix) {
                return g.invG[g.at(l, ix, iy)] != 0.0;
            }, g.sorSpans);
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
        const PaddedNetwork::Span &top = g.sorSpans[sor_row[r]];
        size_t k = 1;
        while (k < kSkewRows && r + k < rows &&
               (r + k) % static_cast<size_t>(n) != 0 && single(r + k)) {
            const PaddedNetwork::Span &next = g.sorSpans[sor_row[r + k]];
            if (next.len != top.len ||
                next.cell != top.cell + k * static_cast<size_t>(g.pn))
                break;
            ++k;
        }
        g.sorGroups.push_back({sor_row[r], static_cast<int>(k)});
        r += k;
    }
    padded_ = std::move(pad);
}

/** Rebuild only the injected-power vector from the deposited map. */
void
ThermalGrid::refreshPower() const
{
    Network &net = net_;
    const int n = net.n;
    std::fill(net.pIn.begin(), net.pIn.end(), 0.0);
    for (size_t die = 0; die < power_.size(); ++die) {
        const int l = dieLayer(static_cast<int>(die));
        if (l < 0)
            panic("power deposited on missing die %zu", die);
        for (int iy = 0; iy < n; ++iy)
            for (int ix = 0; ix < n; ++ix)
                net.pIn[net.idx(l, ix, iy)] +=
                    power_[die][static_cast<size_t>(iy) * n + ix];
    }
}

const ThermalGrid::Network &
ThermalGrid::network() const
{
    if (!net_built_) {
        buildConductances();
        buildPadded();
        net_built_ = true;
    }
    if (power_dirty_) {
        refreshPower();
        power_dirty_ = false;
    }
    return net_;
}

const PaddedNetwork &
ThermalGrid::padded() const
{
    network();
    return *padded_;
}

ThermalField
ThermalGrid::solve(SolveStats *stats, const ThermalField *warm_start) const
{
    if (params_.solver == SolverKind::Multigrid)
        return solveMultigrid(stats, warm_start);
    const int n = params_.gridN;
    const int nl = static_cast<int>(layers_.size());
    const Network &net = network();
    const PaddedNetwork &g = padded();

    ThermalField field(n, nl);
    if (warm_start != nullptr) {
        if (warm_start->gridN() != n || warm_start->layers() != nl)
            fatal("warm-start field has the wrong geometry");
        field = *warm_start;
    }
    std::vector<double> t = g.pad(field, kAmbientK);
    // Each cell's first term, gAmb * T_ambient + P, is fixed for the
    // whole solve.
    std::vector<double> src(g.cells, 0.0);
    for (const PaddedNetwork::Span &sp : g.sorSpans)
        for (int i = 0; i < sp.len; ++i)
            src[sp.cell + static_cast<size_t>(i)] =
                g.gAmb[sp.cell + static_cast<size_t>(i)] * kAmbientK +
                net.pIn[sp.flat + static_cast<size_t>(i)];

    int iter = 0;
    double max_delta = 0.0;
    for (; iter < kMaxIterations; ++iter) {
        max_delta = 0.0;
        for (const PaddedNetwork::Group &grp : g.sorGroups) {
            const PaddedNetwork::Span &sp = g.sorSpans[grp.span];
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
        stats->vcycles = 0;
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
    const int n = params_.gridN;
    const int nl = static_cast<int>(layers_.size());
    const Network &net = network();
    const size_t cells = static_cast<size_t>(nl) * n * n;

    if (!mg_)
        mg_ = std::make_unique<MgSolver>(
            mgFineLevel(n, nl, net.gRight, net.gDown, net.gBelow,
                        net.gAmb),
            kMaxIterations, params_.maxResidualK);

    std::vector<double> u0;
    if (warm_start != nullptr) {
        if (warm_start->gridN() != n || warm_start->layers() != nl)
            fatal("warm-start field has the wrong geometry");
        u0.resize(cells);
        for (size_t c = 0; c < cells; ++c)
            u0[c] = warm_start->t(c) - kAmbientK;
    }
    mg_->setProblem(net.pIn, warm_start != nullptr ? &u0 : nullptr);

    const MgSolver::Stats ms = mg_->solve();
    if (ms.cycles >= kMaxIterations &&
        ms.residualK >= params_.maxResidualK)
        warn("thermal solve hit the iteration cap (%d); residual above "
             "%g K", kMaxIterations, params_.maxResidualK);

    std::vector<double> u;
    mg_->solution(u);
    ThermalField field(n, nl);
    for (size_t c = 0; c < cells; ++c)
        field.t(c) = kAmbientK + u[c];
    if (stats != nullptr) {
        stats->iterations = ms.cycles;
        stats->residualK = ms.residualK;
        stats->vcycles = ms.cycles;
        stats->contraction = ms.contraction;
        stats->estErrorK = ms.estErrorK;
    }
    return field;
}

double
ThermalGrid::transientDt(double dt_s) const
{
    if (dt_s <= 0.0)
        fatal("transient step must be positive (got %g)", dt_s);
    const Network &net = network();
    const size_t cells =
        static_cast<size_t>(net.nl) * net.n * net.n;
    // Explicit stability bound dt < min(C / sum(G)).
    double dt = dt_s;
    for (size_t c = 0; c < cells; ++c)
        if (net.cap[c] > 0.0 && net.gSum[c] > 0.0)
            dt = std::min(dt, 0.4 * net.cap[c] / net.gSum[c]);
    return dt;
}

double
ThermalGrid::transientDtLateral(double dt_s) const
{
    if (dt_s <= 0.0)
        fatal("transient step must be positive (got %g)", dt_s);
    const Network &net = network();
    const int n = net.n;
    double dt = dt_s;
    for (int l = 0; l < net.nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const size_t c = net.idx(l, ix, iy);
                if (net.cap[c] <= 0.0)
                    continue;
                // Only the explicitly-integrated lateral couplings
                // constrain the step; vertical conduction and ambient
                // convection are handled implicitly.
                double g = 0.0;
                if (ix > 0)
                    g += net.gRight[c - 1];
                if (ix + 1 < n)
                    g += net.gRight[c];
                if (iy > 0)
                    g += net.gDown[c - n];
                if (iy + 1 < n)
                    g += net.gDown[c];
                if (g > 0.0)
                    dt = std::min(dt, 0.4 * net.cap[c] / g);
            }
        }
    }
    return dt;
}

void
ThermalGrid::stepOnceVerticalImplicit(ThermalField &field,
                                      std::vector<double> &scratch,
                                      double dt_s) const
{
    const int n = params_.gridN;
    const int nl = static_cast<int>(layers_.size());
    if (field.gridN() != n || field.layers() != nl)
        fatal("transient field has the wrong geometry");

    const Network &net = network();
    const size_t cells = static_cast<size_t>(nl) * n * n;
    const size_t plane = static_cast<size_t>(n) * n;
    const double inv_dt = 1.0 / dt_s;
    if (scratch.size() != cells)
        scratch.assign(cells, 0.0);

    // Explicit right-hand side from the pre-step field: storage term,
    // lateral flux, the implicit terms' constant parts (ambient sink,
    // injected power). Evaluated for every material cell before any
    // column updates, so the scheme reads a consistent time level.
    for (int l = 0; l < nl; ++l) {
        for (int iy = 0; iy < n; ++iy) {
            for (int ix = 0; ix < n; ++ix) {
                const size_t c = net.idx(l, ix, iy);
                if (net.cap[c] <= 0.0)
                    continue;
                const double t = field.at(l, ix, iy);
                double rhs = net.cap[c] * inv_dt * t +
                    net.gAmb[c] * kAmbientK + net.pIn[c];
                if (ix > 0)
                    rhs += net.gRight[c - 1] *
                        (field.at(l, ix - 1, iy) - t);
                if (ix + 1 < n)
                    rhs += net.gRight[c] *
                        (field.at(l, ix + 1, iy) - t);
                if (iy > 0)
                    rhs += net.gDown[c - n] *
                        (field.at(l, ix, iy - 1) - t);
                if (iy + 1 < n)
                    rhs += net.gDown[c] *
                        (field.at(l, ix, iy + 1) - t);
                scratch[c] = rhs;
            }
        }
    }

    // Backward-Euler solve of each column's vertical chain:
    //   (C/dt + gAmb + gUp + gDown) T' - gUp T'_up - gDown T'_dn = rhs.
    // Air cells become identity rows (their couplings are zero, so the
    // chain decouples across them exactly as the explicit stepper
    // leaves air alone). Thomas algorithm; columns are independent and
    // the loop is serial, so the result is bit-identical for any
    // thread count.
    std::vector<double> diag(static_cast<size_t>(nl));
    std::vector<double> upper(static_cast<size_t>(nl));
    std::vector<double> rhs(static_cast<size_t>(nl));
    for (int iy = 0; iy < n; ++iy) {
        for (int ix = 0; ix < n; ++ix) {
            for (int l = 0; l < nl; ++l) {
                const size_t c = net.idx(l, ix, iy);
                const auto li = static_cast<size_t>(l);
                if (net.cap[c] <= 0.0) {
                    diag[li] = 1.0;
                    upper[li] = 0.0;
                    rhs[li] = field.at(l, ix, iy);
                    continue;
                }
                double d = net.cap[c] * inv_dt + net.gAmb[c];
                if (l > 0)
                    d += net.gBelow[c - plane];
                if (l + 1 < nl)
                    d += net.gBelow[c];
                diag[li] = d;
                upper[li] = l + 1 < nl ? -net.gBelow[c] : 0.0;
                rhs[li] = scratch[c];
            }
            // Forward elimination (the sub-diagonal of row l is the
            // upper coupling of row l-1 by symmetry), then
            // back-substitution straight into the field.
            for (int l = 1; l < nl; ++l) {
                const auto li = static_cast<size_t>(l);
                const double w = -upper[li - 1] / diag[li - 1];
                // w is -sub/diag_prev; sub == upper[li - 1].
                diag[li] += w * upper[li - 1];
                rhs[li] += w * rhs[li - 1];
            }
            double t_below = rhs[static_cast<size_t>(nl - 1)] /
                diag[static_cast<size_t>(nl - 1)];
            field.at(nl - 1, ix, iy) = t_below;
            for (int l = nl - 2; l >= 0; --l) {
                const auto li = static_cast<size_t>(l);
                t_below = (rhs[li] - upper[li] * t_below) / diag[li];
                field.at(l, ix, iy) = t_below;
            }
        }
    }
}

// ---------------------------------------------------------------------
// TransientStepper.
// ---------------------------------------------------------------------

TransientStepper::TransientStepper(const ThermalGrid &grid,
                                   const ThermalField &initial,
                                   double dt_s, TransientScheme scheme)
    : grid_(&grid), field_(initial),
      dt_(scheme == TransientScheme::VerticalImplicit
              ? grid.transientDtLateral(dt_s)
              : grid.transientDt(dt_s)),
      scheme_(scheme)
{
    if (initial.gridN() != grid.params().gridN ||
        initial.layers() != static_cast<int>(grid.layers_.size()))
        fatal("stepper initial field has the wrong geometry");
    if (scheme_ != TransientScheme::Explicit)
        return;
    const PaddedNetwork &g = grid.padded();
    const std::vector<double> &cap = grid.network().cap;
    cur_ = g.pad(initial, kAmbientK);
    next_ = cur_;
    rate_.assign(g.cells, 0.0);
    for (const PaddedNetwork::Span &sp : g.stepSpans)
        for (int i = 0; i < sp.len; ++i)
            rate_[sp.cell + static_cast<size_t>(i)] =
                dt_ / cap[sp.flat + static_cast<size_t>(i)];
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
    if (scheme_ == TransientScheme::VerticalImplicit) {
        for (std::int64_t i = 0; i < count; ++i)
            grid_->stepOnceVerticalImplicit(field_, scratch_, dt_);
    } else {
        // Power edits since the last call refresh pIn here.
        const std::vector<double> &p_in = grid_->network().pIn;
        double *cur = cur_.data();
        double *next = next_.data();
        explicitSteps(grid_->padded(), p_in.data(), rate_.data(), cur,
                      next, count);
        if (cur != cur_.data())
            cur_.swap(next_);
        grid_->padded().unpad(cur_, field_);
    }
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
