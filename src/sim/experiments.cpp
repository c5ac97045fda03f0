#include "sim/experiments.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <utility>

#include "common/log.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "trace/suites.h"

namespace th {

namespace {

std::vector<std::string>
defaultBenchmarks(const std::vector<std::string> &requested)
{
    if (!requested.empty())
        return requested;
    std::vector<std::string> names;
    for (const auto &p : allBenchmarks())
        names.push_back(p.name);
    return names;
}

PowerBreakdown
breakdown(const Evaluation &ev)
{
    PowerBreakdown b;
    b.config = configName(ev.config);
    b.totalW = ev.power.totalW();
    b.clockW = ev.power.clockW;
    b.leakW = ev.power.leakW;
    b.dynamicW = ev.power.dynamicW();
    for (int i = 0; i < kNumCoreBlocks; ++i) {
        b.blockW[static_cast<size_t>(i)] =
            ev.power.coreBlocks[static_cast<size_t>(i)].total() *
            ev.power.numCores;
    }
    b.l2W = ev.power.l2.total();
    return b;
}

} // namespace

Fig8Data
runFigure8(System &sys, const std::vector<std::string> &benchmarks,
           const CancelToken *cancel)
{
    const auto names = defaultBenchmarks(benchmarks);
    const auto configs = figure8Configs();

    Fig8Data data;
    data.minSpeedup = 1e9;
    data.maxSpeedup = -1e9;

    std::map<std::string, std::vector<const Fig8Benchmark *>> by_suite;
    data.benchmarks.reserve(names.size());

    // Fan the full (benchmark, config) grid across the pool. Each run
    // owns its trace generator, RNG, and core, so runs are
    // independent; results land at their flat index and the reduction
    // below walks them in the original order, making the output
    // bit-identical to a serial sweep at any thread count.
    const size_t ncfg = configs.size();
    const auto cells = ThreadPool::global().parallelMap(
        names.size() * ncfg, [&](size_t i) {
            const CoreResult r =
                sys.runCore(names[i / ncfg], configs[i % ncfg], cancel);
            return std::pair<double, double>(r.perf.ipc(), r.ipns());
        });

    for (size_t b = 0; b < names.size(); ++b) {
        const auto &name = names[b];
        Fig8Benchmark row;
        row.name = name;
        row.suite = benchmarkByName(name).suite;
        for (size_t c = 0; c < ncfg; ++c) {
            row.ipc[c] = cells[b * ncfg + c].first;
            row.ipns[c] = cells[b * ncfg + c].second;
        }
        row.speedup = row.ipns[4] / row.ipns[0] - 1.0;
        if (row.speedup < data.minSpeedup) {
            data.minSpeedup = row.speedup;
            data.minBenchmark = name;
        }
        if (row.speedup > data.maxSpeedup) {
            data.maxSpeedup = row.speedup;
            data.maxBenchmark = name;
        }
        data.benchmarks.push_back(row);
    }
    for (const auto &row : data.benchmarks)
        by_suite[row.suite].push_back(&row);

    // Per-suite geometric means, in registry order.
    std::vector<double> group_speedups;
    for (const auto &suite : suiteNames()) {
        auto it = by_suite.find(suite);
        if (it == by_suite.end())
            continue;
        Fig8Group g;
        g.suite = suite;
        for (int c = 0; c < kNumFig8Configs; ++c) {
            std::vector<double> ipcs, ipnss;
            for (const Fig8Benchmark *b : it->second) {
                ipcs.push_back(b->ipc[static_cast<size_t>(c)]);
                ipnss.push_back(b->ipns[static_cast<size_t>(c)]);
            }
            g.ipcGeomean[static_cast<size_t>(c)] = geomean(ipcs);
            g.ipnsGeomean[static_cast<size_t>(c)] = geomean(ipnss);
        }
        g.speedup = g.ipnsGeomean[4] / g.ipnsGeomean[0] - 1.0;
        group_speedups.push_back(g.speedup);
        data.groups.push_back(g);
    }

    for (int c = 0; c < kNumFig8Configs; ++c) {
        std::vector<double> means;
        for (const auto &g : data.groups)
            means.push_back(g.ipcGeomean[static_cast<size_t>(c)]);
        data.ipcMeanOfMeans[static_cast<size_t>(c)] = mean(means);
    }
    data.speedupMeanOfMeans = mean(group_speedups);
    return data;
}

Fig9Data
runFigure9(System &sys, const std::vector<std::string> &benchmarks,
           const CancelToken *cancel)
{
    Fig9Data data;

    const std::string ref = System::kPowerReferenceBenchmark;
    data.planar = breakdown(sys.evaluate(ref, ConfigKind::Base, cancel));
    data.noTh3d =
        breakdown(sys.evaluate(ref, ConfigKind::ThreeDNoTH, cancel));
    data.th3d = breakdown(sys.evaluate(ref, ConfigKind::ThreeD, cancel));

    const auto names = defaultBenchmarks(benchmarks);
    data.minSaving.saving = 1e9;
    data.maxSaving.saving = -1e9;
    // Per-application savings in parallel; min/max selection stays a
    // serial in-order scan so ties resolve exactly as before.
    data.savings = ThreadPool::global().parallelMap(
        names.size(), [&](size_t i) {
            PowerSaving s;
            s.name = names[i];
            s.baseW = sys.evaluate(names[i], ConfigKind::Base, cancel)
                          .power.totalW();
            s.th3dW = sys.evaluate(names[i], ConfigKind::ThreeD, cancel)
                          .power.totalW();
            s.saving = 1.0 - s.th3dW / s.baseW;
            return s;
        });
    for (const auto &s : data.savings) {
        if (s.saving < data.minSaving.saving)
            data.minSaving = s;
        if (s.saving > data.maxSaving.saving)
            data.maxSaving = s;
    }
    return data;
}

namespace {

ThermalCase
thermalCase(System &sys, const std::string &app, ConfigKind kind,
            double power_scale = 1.0,
            const CancelToken *cancel = nullptr)
{
    const Evaluation ev = sys.evaluate(app, kind, cancel);
    ThermalCase tc;
    tc.config = configName(kind);
    tc.app = app;
    tc.totalW = ev.power.totalW() * power_scale;
    tc.report = sys.thermal(ev, power_scale);
    return tc;
}

} // namespace

Fig10Data
runFigure10(System &sys, const std::vector<std::string> &candidates,
            const CancelToken *cancel)
{
    std::vector<std::string> apps = candidates;
    if (apps.empty()) {
        // The paper scans all 106 traces; these cover its reported
        // worst cases (mpeg2 planar/3D, yacr2 for Thermal Herding)
        // plus high-activity representatives.
        apps = {"mpeg2enc", "yacr2", "susan", "crafty", "g721"};
    }

    Fig10Data data;

    // All (config, app) thermal cases in one parallel fan-out; each
    // case runs its own core simulation (memoized across figures) and
    // owns its thermal grid. The worst-case selection walks each
    // config's results in app order, exactly like the serial scan.
    const ConfigKind kinds[] = {ConfigKind::Base, ConfigKind::ThreeDNoTH,
                                ConfigKind::ThreeD};
    const size_t napps = apps.size();
    const auto cases = ThreadPool::global().parallelMap(
        3 * napps, [&](size_t i) {
            return thermalCase(sys, apps[i % napps], kinds[i / napps],
                               1.0, cancel);
        });
    auto worstOf = [&](size_t kind_idx) {
        ThermalCase worst;
        for (size_t a = 0; a < napps; ++a) {
            const ThermalCase &tc = cases[kind_idx * napps + a];
            if (tc.report.peakK > worst.report.peakK)
                worst = tc;
        }
        return worst;
    };
    data.worstPlanar = worstOf(0);
    data.worstNoTh3d = worstOf(1);
    data.worstTh3d = worstOf(2);

    // Iso-power: the 3D stack burning the full planar budget at the
    // planar frequency (Section 5.3's 4x-power-density what-if).
    {
        const Evaluation ev = sys.evaluate(
            data.worstPlanar.app, ConfigKind::ThreeDNoTH, cancel);
        const double scale =
            data.worstPlanar.totalW / ev.power.totalW();
        data.isoPower = thermalCase(sys, data.worstPlanar.app,
                                    ConfigKind::ThreeDNoTH, scale,
                                    cancel);
        data.isoPower.config = "3D-isoPower";
    }

    // Same-application comparison (Figure 10 d-f): these cases were
    // already solved during the scan — reuse them instead of running
    // three more thermal analyses.
    data.sameApp = data.worstPlanar.app;
    const size_t same_idx = static_cast<size_t>(
        std::find(apps.begin(), apps.end(), data.sameApp) -
        apps.begin());
    data.samePlanar = cases[0 * napps + same_idx];
    data.sameNoTh3d = cases[1 * napps + same_idx];
    data.sameTh3d = cases[2 * napps + same_idx];

    data.robDeltaK = data.sameTh3d.report.blockPeakK(BlockId::Rob) -
        data.samePlanar.report.blockPeakK(BlockId::Rob);
    return data;
}

namespace {

WidthStudyRow
widthStudyRow(const System &sys, const std::string &name,
              const CancelToken *cancel)
{
    const CoreResult r = sys.runCore(name, ConfigKind::TH, cancel);
    WidthStudyRow row;
    row.name = name;
    row.accuracy = r.perf.widthAccuracy();
    const double preds =
        static_cast<double>(r.perf.widthPredictions.value());
    row.unsafeRate = preds > 0.0
        ? static_cast<double>(r.perf.widthUnsafe.value()) / preds
        : 0.0;
    const double pam =
        static_cast<double>(r.perf.pamHits.value() +
                            r.perf.pamMisses.value());
    row.pamHitRate = pam > 0.0
        ? static_cast<double>(r.perf.pamHits.value()) / pam
        : 0.0;
    const double pve = static_cast<double>(
        r.perf.pveZeros.value() + r.perf.pveOnes.value() +
        r.perf.pveAddr.value() + r.perf.pveExplicit.value());
    row.pveEncodable = pve > 0.0
        ? 1.0 - static_cast<double>(r.perf.pveExplicit.value()) / pve
        : 0.0;
    const double reads = static_cast<double>(
        r.activity.dl1ReadLow.value() +
        r.activity.dl1ReadFull.value());
    row.lowWidthFrac = reads > 0.0
        ? static_cast<double>(r.activity.dl1ReadLow.value()) / reads
        : 0.0;
    // Histogram buckets are 4 bits wide: buckets 0-3 cover results
    // representable in the top die's 16 bits.
    row.narrowResults = r.perf.valueWidthBits.fraction(0) +
        r.perf.valueWidthBits.fraction(1) +
        r.perf.valueWidthBits.fraction(2) +
        r.perf.valueWidthBits.fraction(3);
    const double rob_full =
        static_cast<double>(r.activity.robReadFull.value());
    row.robLowReadRatio = rob_full > 0.0
        ? static_cast<double>(r.activity.robReadLow.value()) /
              rob_full
        : 0.0;
    return row;
}

} // namespace

WidthStudyData
runWidthStudy(System &sys, const std::vector<std::string> &benchmarks,
              const CancelToken *cancel)
{
    const auto names = defaultBenchmarks(benchmarks);
    WidthStudyData data;
    data.rows = ThreadPool::global().parallelMap(
        names.size(),
        [&](size_t i) { return widthStudyRow(sys, names[i], cancel); });
    double acc_sum = 0.0;
    for (const auto &row : data.rows)
        acc_sum += row.accuracy;
    data.overallAccuracy = data.rows.empty()
        ? 0.0 : acc_sum / static_cast<double>(data.rows.size());
    return data;
}

namespace {

/** One ablation variant: a name and its edit of the 3D config. */
struct AblationVariant
{
    const char *name;
    void (*tweak)(CoreConfig &);
};

const AblationVariant kAblationVariants[] = {
    {"full 3D (all mechanisms)", [](CoreConfig &) {}},
    {"scheduler alloc: round-robin",
     [](CoreConfig &c) { c.schedAlloc = SchedAllocPolicy::RoundRobin; }},
    {"PAM disabled", [](CoreConfig &c) { c.pamEnabled = false; }},
    {"PVE 1-bit (zeros only)", [](CoreConfig &c) { c.pveEnabled = false; }},
    {"BTB memoization disabled",
     [](CoreConfig &c) { c.btbMemoEnabled = false; }},
    {"width predictor: last-outcome",
     [](CoreConfig &c) { c.widthPredKind = WidthPredKind::LastOutcome; }},
    {"width predictor: oracle (upper bound)",
     [](CoreConfig &c) { c.widthPredKind = WidthPredKind::Oracle; }},
    {"width predictor: always-full",
     [](CoreConfig &c) { c.widthPredKind = WidthPredKind::AlwaysFull; }},
    {"width prediction disabled (no herding)",
     [](CoreConfig &c) { c.thermalHerding = false; }},
};

} // namespace

AblationData
runAblation(System &sys)
{
    AblationData data;
    data.apps = {"mpeg2enc", "gzip", "yacr2"};
    const size_t nvar = std::size(kAblationVariants);
    data.rows = ThreadPool::global().parallelMap(
        data.apps.size() * nvar, [&](size_t i) {
            const AblationVariant &v = kAblationVariants[i % nvar];
            CoreConfig cfg = makeConfig(ConfigKind::ThreeD, sys.circuits());
            v.tweak(cfg);
            const CoreResult run =
                sys.runCore(data.apps[i / nvar], cfg);
            const PowerResult power = sys.power().compute(run, cfg);
            AblationRow row;
            row.variant = v.name;
            row.ipc = run.perf.ipc();
            row.totalW = power.totalW();
            row.topDieFrac = power.topDieFraction();
            return row;
        });
    return data;
}

DtmStudyData
runDtmStudy(System &sys, const std::string &benchmark,
            const DtmOptions &opts, const CancelToken *cancel)
{
    const ConfigKind kinds[] = {ConfigKind::Base, ConfigKind::ThreeDNoTH,
                                ConfigKind::ThreeD};
    DtmStudyData data;
    data.benchmark = benchmark;
    // Each DTM run owns its core, thermal grid, and stepper; only the
    // calibrated power model is shared (read-only after calibration),
    // so the three configurations fan out safely.
    data.cases = ThreadPool::global().parallelMap(3, [&](size_t i) {
        DtmCase c;
        c.config = kinds[i];
        c.report = sys.runDtm(benchmark, kinds[i], opts, cancel);
        return c;
    });
    return data;
}

namespace {

/** Fold one fast-vs-exact report pair into running error maxima. */
void
accumulateAnchorError(const DtmReport &fast, const DtmReport &exact,
                      double &ipc_err, double &peak_err_k,
                      double &duty_err_pp)
{
    const double denom = std::max(exact.ipcEffective, 1e-12);
    ipc_err = std::max(
        ipc_err,
        std::fabs(fast.ipcEffective - exact.ipcEffective) / denom);
    peak_err_k =
        std::max(peak_err_k, std::fabs(fast.peakK - exact.peakK));
    duty_err_pp = std::max(
        duty_err_pp,
        std::fabs(fast.throttleDuty - exact.throttleDuty) * 100.0);
}

} // namespace

DtmStudyData
runDtmStudyFast(System &sys, const std::string &benchmark,
                const DtmOptions &opts, const IntervalOptions &iopts,
                const CancelToken *cancel)
{
    const ConfigKind kinds[] = {ConfigKind::Base, ConfigKind::ThreeDNoTH,
                                ConfigKind::ThreeD};
    DtmStudyData data;
    data.benchmark = benchmark;
    data.fast = true;
    data.cases = ThreadPool::global().parallelMap(3, [&](size_t i) {
        DtmCase c;
        c.config = kinds[i];
        c.report =
            sys.runIntervalDtm(benchmark, kinds[i], opts, iopts, cancel);
        return c;
    });
    // One exact anchor bounds the replay error. The planar baseline is
    // the cheapest of the three (and, via runDtm's memoization, often a
    // cache or store hit from an earlier exact study).
    const DtmReport exact =
        sys.runDtm(benchmark, ConfigKind::Base, opts, cancel);
    data.anchors = 1;
    accumulateAnchorError(data.cases[0].report, exact, data.maxIpcErr,
                          data.maxPeakErrK, data.maxDutyErrPp);
    return data;
}

FamilySweepData
runFamilySweep(System &sys, const std::string &benchmark,
               const FamilySweepOptions &opts, const CancelToken *cancel)
{
    if (opts.triggerSteps < 1)
        fatal("family sweep needs at least one trigger step");
    if (opts.policies.empty())
        fatal("family sweep needs at least one policy");

    FamilySweepData data;
    data.benchmark = benchmark;
    data.config = opts.config;
    data.fast = opts.fast;

    // Fit (or fetch) the family's model once before fanning out: every
    // replayed point below reuses it through System's interval cache,
    // so the fan-out itself performs zero fitting runs.
    if (opts.fast)
        sys.runIntervalFit(benchmark, opts.config, opts.interval,
                           cancel);

    // (policy, trigger) grid in one parallel fan-out; results land at
    // their flat index, so the output order is independent of thread
    // count — same determinism argument as the figure sweeps.
    const size_t nsteps = static_cast<size_t>(opts.triggerSteps);
    data.points = ThreadPool::global().parallelMap(
        opts.policies.size() * nsteps, [&](size_t i) {
            const size_t step = i % nsteps;
            FamilySweepPoint pt;
            pt.policy = opts.policies[i / nsteps];
            pt.triggerK = opts.triggerSteps == 1
                ? opts.triggerLoK
                : opts.triggerLoK +
                    static_cast<double>(step) *
                        (opts.triggerHiK - opts.triggerLoK) /
                        static_cast<double>(opts.triggerSteps - 1);
            DtmOptions d = opts.dtm;
            d.policy = pt.policy;
            d.triggers.triggerK = pt.triggerK;
            pt.report = opts.fast
                ? sys.runIntervalDtm(benchmark, opts.config, d,
                                     opts.interval, cancel)
                : sys.runDtm(benchmark, opts.config, d, cancel);
            pt.anchor = opts.fast && opts.anchorStride > 0 &&
                step % static_cast<size_t>(opts.anchorStride) == 0;
            if (pt.anchor)
                pt.exact = sys.runDtm(benchmark, opts.config, d, cancel);
            return pt;
        });

    for (const auto &pt : data.points) {
        if (!pt.anchor)
            continue;
        ++data.anchors;
        accumulateAnchorError(pt.report, pt.exact, data.maxIpcErr,
                              data.maxPeakErrK, data.maxDutyErrPp);
    }
    return data;
}

MulticoreStudyData
runMulticoreStudy(System &sys, const MulticoreConfig &base,
                  const std::vector<int> &core_counts,
                  const CancelToken *cancel)
{
    MulticoreStudyData data;
    data.mix = base.benchmarks;
    data.coreCounts = core_counts.empty() ? std::vector<int>{1, 2, 4, 8}
                                          : core_counts;
    const ConfigKind kinds[] = {ConfigKind::ThreeDNoTH,
                                ConfigKind::ThreeD};
    // Each cell owns its cores, floorplan, grid, and stepper; like
    // runDtmStudy, only the calibrated power model is shared, so the
    // whole grid fans out (cells reduce in grid order).
    data.cases = ThreadPool::global().parallelMap(
        data.coreCounts.size() * 2, [&](size_t i) {
            MulticoreCase c;
            c.cores = data.coreCounts[i / 2];
            c.config = kinds[i % 2];
            MulticoreConfig mc = base;
            mc.numCores = c.cores;
            c.report = sys.runMulticore(c.config, mc, cancel);
            return c;
        });
    return data;
}

} // namespace th
