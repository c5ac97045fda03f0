#include "thermal/hotspot.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace th {

namespace {

/** Conductivities, W/(m*K). */
constexpr double kCopper = 400.0;
constexpr double kSilicon = 120.0;
/** Phase-change metallic alloy TIM (Section 4). */
constexpr double kTim = 34.0;
/**
 * d2d interface: the via layer itself is 25% copper / 75% air
 * (Section 4), but heat must also cross the bonded BEOL dielectric
 * stacks of both dies; the effective through-plane conductivity of
 * the composite interface is a few W/(m*K).
 */
constexpr double kD2d = 80.0;

/** Reference temperature at which nominal leakage is quoted (K). */
constexpr double kLeakRefK = 365.0;
/** Exponential slope: leakage doubles every ~theta*ln2 kelvin. */
constexpr double kLeakThetaK = 26.0;

} // namespace

double
ThermalReport::blockPeakK(BlockId id) const
{
    double p = 0.0;
    for (const auto &b : blocks)
        if (b.id == id)
            p = std::max(p, b.peakK);
    return p;
}

HotspotModel::HotspotModel(const ThermalParams &params)
    : params_(params)
{
}

std::vector<ThermalLayer>
HotspotModel::planarStack()
{
    return {
        {"sink", 6.9, kCopper, kCopper, -1},
        {"spreader", 0.7, kCopper, kCopper, -1},
        {"tim", 0.075, kTim, 0.0, -1},
        {"die0", 0.30, kSilicon, 0.0, 0},
    };
}

std::vector<ThermalLayer>
HotspotModel::stackedStack()
{
    return {
        {"sink", 6.9, kCopper, kCopper, -1},
        {"spreader", 0.7, kCopper, kCopper, -1},
        {"tim", 0.075, kTim, 0.0, -1},
        {"die0", 0.20, kSilicon, 0.0, 0},
        {"d2d01", 0.010, kD2d, 0.0, -1},
        {"die1", 0.02, kSilicon, 0.0, 1},
        {"d2d12", 0.010, kD2d, 0.0, -1},
        {"die2", 0.02, kSilicon, 0.0, 2},
        {"d2d23", 0.010, kD2d, 0.0, -1},
        {"die3", 0.02, kSilicon, 0.0, 3},
    };
}

ThermalReport
HotspotModel::analyze(const Floorplan &fp, const PowerResult &power,
                      bool stacked, double power_scale) const
{
    const std::vector<ThermalLayer> stack =
        stacked ? stackedStack() : planarStack();
    const int num_layers = static_cast<int>(stack.size());
    ThermalGrid grid(params_, stack, fp.chipW, fp.chipH);

    const int dies = stacked ? kNumDies : 1;
    const double clock_w = power.clockW * power_scale;
    const double leak_nominal_w = power.leakW * power_scale;
    const double total_area = fp.blockArea();

    // Each placed rectangle carries its dynamic power, an
    // area-proportional share of the clock network, and a leakage
    // share that the feedback loop rescales with local temperature.
    struct Placed
    {
        const BlockRect *rect;
        int die;
        double dynClockW = 0.0;
        double leakNomW = 0.0;
        double leakW = 0.0;
        double avgK = 0.0;
        double peakK = 0.0;
    };
    std::vector<Placed> placed;
    for (const auto &rect : fp.blocks) {
        const double area_frac = rect.area() / total_area;
        for (int d = 0; d < dies; ++d) {
            double dyn;
            if (rect.id == BlockId::L2) {
                dyn = power.l2.dieW[static_cast<size_t>(d)];
            } else {
                dyn = power.coreBlocks[static_cast<size_t>(rect.id)]
                          .dieW[static_cast<size_t>(d)];
            }
            Placed p;
            p.rect = &rect;
            p.die = d;
            p.dynClockW = dyn * power_scale +
                clock_w * area_frac / dies;
            p.leakNomW = leak_nominal_w * area_frac / dies;
            p.leakW = p.leakNomW;
            placed.push_back(p);
        }
    }

    // Power/temperature fixed point: subthreshold leakage rises
    // exponentially with the block's temperature. Each round re-solves
    // under a slightly perturbed power map, so rounds after the first
    // warm-start from the previous field (a handful of SOR iterations
    // instead of a full cold solve).
    const int rounds = std::max(1, params_.leakFeedbackIters);
    ThermalField field(params_.gridN, num_layers);
    for (int round = 0; round < rounds; ++round) {
        grid.clearPower();
        for (const auto &p : placed) {
            grid.addPower(p.die, p.rect->x, p.rect->y, p.rect->w,
                          p.rect->h, p.dynClockW + p.leakW);
        }
        field = grid.solve(nullptr, round > 0 ? &field : nullptr);
        double max_shift = 0.0;
        for (auto &p : placed) {
            grid.blockTemps(field, p.die, p.rect->x, p.rect->y,
                            p.rect->w, p.rect->h, p.avgK, p.peakK);
            // Damped update with a physical cap on the multiplier
            // (gate/junction leakage saturates well before the
            // subthreshold exponential alone would suggest).
            const double mult = std::min(3.2,
                std::exp((p.avgK - kLeakRefK) / kLeakThetaK));
            const double new_leak =
                0.4 * p.leakW + 0.6 * p.leakNomW * mult;
            max_shift = std::max(max_shift,
                                 std::fabs(new_leak - p.leakW));
            p.leakW = new_leak;
        }
        if (max_shift < 1e-3)
            break;
    }

    ThermalReport rep;
    rep.blocks.reserve(placed.size());
    for (const auto &p : placed) {
        BlockTemp bt;
        bt.id = p.rect->id;
        bt.core = p.rect->core;
        bt.die = p.die;
        bt.powerW = p.dynClockW + p.leakW;
        bt.avgK = p.avgK;
        bt.peakK = p.peakK;
        if (bt.peakK > rep.peakK) {
            rep.peakK = bt.peakK;
            rep.hottestBlock = blockName(bt.id);
            rep.hottestDie = bt.die;
        }
        rep.blocks.push_back(bt);
    }
    return rep;
}

} // namespace th
