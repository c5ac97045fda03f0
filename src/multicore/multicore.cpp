#include "multicore/multicore.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/log.h"
#include "common/threadpool.h"
#include "core/pipeline.h"
#include "floorplan/floorplan.h"
#include "multicore/contention.h"
#include "thermal/grid.h"

namespace th {

namespace {

/**
 * Deposit one interval's many-core power map. Per-core block powers
 * land on that core's tile scaled by that core's duty; the shared L2
 * strip receives every core's (duty-scaled) L2 contribution split
 * across banks by access share. Chip-level clock and leakage scale
 * from the calibrated reference chip by the core-count ratio (the
 * generated chip area scales the same way); the clock over the shared
 * L2 region gates with the mean core duty.
 */
void
depositMulticorePower(ThermalGrid &grid, const Floorplan &fp,
                      const std::vector<PowerResult> &powers,
                      const std::vector<double> &duties,
                      const BankedL2Model &l2, bool stacked)
{
    const int dies = stacked ? kNumDies : 1;
    const double total_area = fp.blockArea();
    const double ref_cores = static_cast<double>(powers[0].numCores);
    const double n = static_cast<double>(powers.size());
    const double clock_w = powers[0].clockW * n / ref_cores;
    const double leak_w = powers[0].leakW * n / ref_cores;
    double duty_mean = 0.0;
    for (const double d : duties)
        duty_mean += d;
    duty_mean /= n;

    int bank = 0;
    for (const BlockRect &rect : fp.blocks) {
        const double area_frac = rect.area() / total_area;
        const bool is_l2 = rect.id == BlockId::L2;
        const double share = is_l2 ? l2.bankShare(bank) : 0.0;
        for (int d = 0; d < dies; ++d) {
            double watts;
            if (is_l2) {
                double dyn = 0.0;
                for (size_t c = 0; c < powers.size(); ++c) {
                    dyn += duties[c] *
                        powers[c].l2.dieW[static_cast<size_t>(d)] /
                        ref_cores;
                }
                watts = dyn * share +
                    duty_mean * clock_w * area_frac / dies +
                    leak_w * area_frac / dies;
            } else {
                const auto c = static_cast<size_t>(rect.core);
                const double dyn =
                    powers[c].coreBlocks[static_cast<size_t>(rect.id)]
                        .dieW[static_cast<size_t>(d)];
                watts = duties[c] *
                        (dyn + clock_w * area_frac / dies) +
                    leak_w * area_frac / dies;
            }
            grid.addPower(d, rect.x, rect.y, rect.w, rect.h, watts);
        }
        if (is_l2)
            ++bank;
    }
}

/** Peak temperature over one core's block rectangles, all dies. */
double
corePeakK(const ThermalGrid &grid, const ThermalField &field,
          const Floorplan &fp, int core, int dies)
{
    double peak = 0.0;
    for (const BlockRect &rect : fp.blocks) {
        if (rect.core != core)
            continue;
        for (int d = 0; d < dies; ++d) {
            double avg_k = 0.0;
            double peak_k = 0.0;
            grid.blockTemps(field, d, rect.x, rect.y, rect.w, rect.h,
                            avg_k, peak_k);
            peak = std::max(peak, peak_k);
        }
    }
    return peak;
}

} // namespace

MulticoreSystem::MulticoreSystem(const PowerModel &power,
                                 const HotspotModel &hotspot)
    : power_(power), hotspot_(hotspot)
{
}

MulticoreReport
MulticoreSystem::run(const std::vector<BenchmarkProfile> &profiles,
                     const CoreConfig &cfg,
                     const std::string &config_name,
                     const MulticoreConfig &mc,
                     const CancelToken *cancel) const
{
    if (!power_.calibrated())
        fatal("multicore engine needs a calibrated power model");
    const int n = mc.numCores;
    if (n < 1)
        fatal("multicore run needs at least 1 core (got %d)", n);
    if (profiles.size() != static_cast<size_t>(n))
        fatal("multicore run got %zu profiles for %d cores",
              profiles.size(), n);
    const DtmOptions &opts = mc.dtm;
    if (opts.intervalCycles == 0 || opts.maxIntervals < 1)
        fatal("multicore DTM needs a positive interval length and count");
    if (opts.gridN < kMinDtmGridN)
        fatal("multicore thermal grid too coarse (gridN %d)", opts.gridN);

    const Floorplan fp =
        FloorplanBuilder::generate(n, mc.l2Banks, cfg.stacked);
    ThermalParams tp = hotspot_.params();
    tp.gridN = opts.gridN;
    tp.solver = opts.solver;
    // Keep the dual-core chip-to-spreader ratio (12 mm under 20 mm)
    // when the generated chip outgrows the default package.
    tp.spreaderMm = std::max(
        tp.spreaderMm,
        std::max(fp.chipW, fp.chipH) * 5.0 / 3.0);
    ThermalGrid grid(tp,
                     cfg.stacked ? HotspotModel::stackedStack()
                                 : HotspotModel::planarStack(),
                     fp.chipW, fp.chipH);
    const std::vector<int> die_layers = grid.dieLayers();
    const int dies = cfg.stacked ? kNumDies : 1;

    const double wall_interval_s =
        static_cast<double>(opts.intervalCycles) / (cfg.freqGhz * 1e9);
    const double thermal_interval_s =
        wall_interval_s * opts.timeDilation;

    MulticoreReport rep;
    rep.config = config_name;
    rep.policy = dtmPolicyName(opts.policy);
    rep.triggerK = opts.triggers.triggerK;
    rep.freqGhz = cfg.freqGhz;
    rep.numCores = static_cast<std::uint32_t>(n);
    rep.l2Banks = static_cast<std::uint32_t>(mc.l2Banks);
    rep.cores.resize(static_cast<size_t>(n));

    // Per-core trace streams and cycle cores; each core owns its
    // private hierarchy, so the interval fan-outs below are
    // independent and reduce in core order (bit-identical for any
    // TH_THREADS).
    std::vector<std::unique_ptr<SyntheticTrace>> traces;
    std::vector<std::unique_ptr<Core>> cores;
    traces.reserve(static_cast<size_t>(n));
    cores.reserve(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
        traces.push_back(std::make_unique<SyntheticTrace>(
            profiles[static_cast<size_t>(c)]));
        cores.push_back(std::make_unique<Core>(cfg));
        cores.back()->beginRun(*traces.back(), opts.warmupInstructions);
        rep.cores[static_cast<size_t>(c)].benchmark =
            profiles[static_cast<size_t>(c)].name;
    }
    const auto nsize = static_cast<size_t>(n);

    // Measurement interval: every core free-runs one interval to
    // establish the sustained power map and each core's baseline IPC.
    const std::vector<CoreResult> firsts =
        ThreadPool::global().parallelMap(nsize, [&](size_t c) {
            return cores[c]->runFor(opts.intervalCycles);
        });
    std::vector<PowerResult> powers(nsize);
    for (size_t c = 0; c < nsize; ++c) {
        if (firsts[c].perf.cycles.value() == 0)
            fatal("trace of '%s' drained before the first multicore "
                  "interval",
                  profiles[c].name.c_str());
        powers[c] = power_.compute(firsts[c], cfg);
        rep.cores[c].ipcFree = firsts[c].perf.ipc();
    }

    BankedL2Model l2(mc.l2Banks, mc.l2BankServiceCycles,
                     mc.l2MshrPerCore);
    std::vector<double> duties(nsize, 1.0);
    depositMulticorePower(grid, fp, powers, duties, l2, cfg.stacked);
    const ThermalField init = grid.solve();
    rep.startPeakK = init.peak(die_layers);
    rep.peakK = rep.startPeakK;

    std::vector<double> core_peak_now(nsize);
    for (size_t c = 0; c < nsize; ++c) {
        core_peak_now[c] =
            corePeakK(grid, init, fp, static_cast<int>(c), dies);
        rep.cores[c].startPeakK = core_peak_now[c];
        rep.cores[c].peakK = core_peak_now[c];
    }

    TransientStepper stepper(grid, init, opts.maxDtS);

    std::vector<std::unique_ptr<DtmPolicy>> policies;
    policies.reserve(nsize);
    for (int c = 0; c < n; ++c)
        policies.push_back(makeDtmPolicy(opts.policy, opts.triggers));

    double stack_peak_now = rep.startPeakK;
    std::vector<double> duty_removed(nsize, 0.0);
    std::vector<double> extra_sum(nsize, 0.0);
    std::vector<double> stall_sum(nsize, 0.0);
    std::vector<std::uint64_t> accesses(nsize, 0);

    for (int i = 0; i < opts.maxIntervals; ++i) {
        bool done = false;
        for (size_t c = 0; c < nsize; ++c)
            done = done || cores[c]->runDone();
        if (done)
            break;
        if (cancel != nullptr && cancel->cancelled())
            throw Cancelled();

        // Per-core ladder decisions: each core's policy sees only its
        // own block peak, so only the hot core throttles.
        std::vector<std::uint64_t> run_cycles(nsize);
        std::vector<DtmControl> ctls(nsize);
        for (size_t c = 0; c < nsize; ++c) {
            ctls[c] = policies[c]->decide(core_peak_now[c]);
            cores[c]->setFetchThrottle(ctls[c].fetchOn,
                                       ctls[c].fetchPeriod);
            run_cycles[c] = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(std::llround(
                       ctls[c].clockDuty *
                       static_cast<double>(opts.intervalCycles))));
            duties[c] = ctls[c].clockDuty;
        }

        const std::vector<CoreResult> results =
            ThreadPool::global().parallelMap(nsize, [&](size_t c) {
                return cores[c]->runFor(run_cycles[c]);
            });
        bool drained = false;
        for (size_t c = 0; c < nsize; ++c)
            drained = drained || results[c].perf.cycles.value() == 0;
        if (drained)
            break; // A trace drained exactly at the boundary.

        for (size_t c = 0; c < nsize; ++c) {
            powers[c] = power_.compute(results[c], cfg);
            accesses[c] = results[c].activity.l2Access.value();
        }
        const std::vector<CoreContention> cont =
            l2.step(accesses, opts.intervalCycles);

        grid.clearPower();
        depositMulticorePower(grid, fp, powers, duties, l2,
                              cfg.stacked);
        stepper.advance(thermal_interval_s);
        stack_peak_now = stepper.field().peak(die_layers);

        for (size_t c = 0; c < nsize; ++c) {
            MulticoreCoreStats &row = rep.cores[c];
            row.wallCycles += opts.intervalCycles;
            row.committed += results[c].perf.committedInsts.value();
            row.l2Accesses += accesses[c];
            duty_removed[c] += 1.0 - ctls[c].dutyFraction();
            extra_sum[c] += cont[c].extraPerAccess *
                static_cast<double>(accesses[c]);
            stall_sum[c] += cont[c].stallCycles;
            core_peak_now[c] = corePeakK(grid, stepper.field(), fp,
                                         static_cast<int>(c), dies);
            row.peakK = std::max(row.peakK, core_peak_now[c]);
            if (core_peak_now[c] > opts.triggers.triggerK)
                row.timeAboveTriggerS += thermal_interval_s;
        }
        rep.peakK = std::max(rep.peakK, stack_peak_now);
        ++rep.intervals;
        if (stack_peak_now > opts.triggers.triggerK)
            rep.timeAboveTriggerS += thermal_interval_s;
    }

    rep.finalPeakK = stack_peak_now;
    rep.totalTimeS = stepper.timeS();
    const double ni = static_cast<double>(rep.intervals);
    for (size_t c = 0; c < nsize; ++c) {
        MulticoreCoreStats &row = rep.cores[c];
        row.finalPeakK = core_peak_now[c];
        row.throttleDuty = ni > 0.0 ? duty_removed[c] / ni : 0.0;
        row.ipcEffective = row.wallCycles > 0
            ? static_cast<double>(row.committed) /
                  static_cast<double>(row.wallCycles)
            : 0.0;
        row.perfLost = row.ipcFree > 0.0
            ? std::max(0.0, 1.0 - row.ipcEffective / row.ipcFree)
            : 0.0;
        row.extraMissCycles = row.l2Accesses > 0
            ? extra_sum[c] / static_cast<double>(row.l2Accesses)
            : 0.0;
        row.contentionStallFrac = row.wallCycles > 0
            ? stall_sum[c] / static_cast<double>(row.wallCycles)
            : 0.0;
        rep.throughputIpc += row.ipcEffective;
    }

    rep.banks.resize(static_cast<size_t>(mc.l2Banks));
    for (int b = 0; b < mc.l2Banks; ++b) {
        MulticoreBankStats &row = rep.banks[static_cast<size_t>(b)];
        row.accesses = l2.bankAccesses(b);
        row.occupancy = l2.bankOccupancy(b);
        row.peakOccupancy = l2.bankPeakOccupancy(b);
    }
    return rep;
}

} // namespace th
