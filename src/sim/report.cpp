#include "sim/report.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/table.h"
#include "dtm/policy.h"
#include "sim/paper_targets.h"

namespace th {

namespace {

/**
 * One paper anchor: "anchor <what>: <measured> (paper <published>)".
 * tests/paper_anchors.txt snapshots these lines, so their shape is
 * load-bearing.
 */
std::string
anchorLine(const std::string &what, const std::string &measured,
           const std::string &published)
{
    return strformat("anchor %s: %s (paper %s)\n", what.c_str(),
                     measured.c_str(), published.c_str());
}

/** "367.5 K, +7.7 K": a peak and its rise over @p base_k. */
std::string
peakAndRise(double peak_k, double base_k)
{
    return strformat("%s K, %+.1f K", fmtDouble(peak_k, 1).c_str(),
                     peak_k - base_k);
}

} // namespace

std::string
renderTable2(const BlockLibrary &lib)
{
    std::ostringstream out;
    out << "=== Table 2: block latencies, 2D vs 3D (4-die) ===\n";
    Table t({"Block", "2D (ps)", "3D (ps)", "Improvement", ""});
    for (const BlockTiming &b : lib.table2())
        t.addRow({b.name, fmtDouble(b.lat2dPs, 1), fmtDouble(b.lat3dPs, 1),
                  fmtPercent(b.improvement()),
                  b.critical ? "<- critical loop" : ""});
    t.print(out);

    out << "=== Clock frequency (critical-loop analysis) ===\n";
    Table freq({"Quantity", "Measured", "Paper"});
    freq.addRow({"2D cycle time (ps)", fmtDouble(lib.clockPeriod2dPs(), 1),
                 fmtDouble(1000.0 / paper::kFreq2dGhz, 1)});
    freq.addRow({"3D cycle time (ps)", fmtDouble(lib.clockPeriod3dPs(), 1),
                 fmtDouble(1000.0 / paper::kFreq3dGhz, 1)});
    freq.addRow({"2D frequency (GHz)", fmtDouble(lib.frequency2dGhz(), 2),
                 fmtDouble(paper::kFreq2dGhz, 2)});
    freq.addRow({"3D frequency (GHz)", fmtDouble(lib.frequency3dGhz(), 2),
                 fmtDouble(paper::kFreq3dGhz, 2)});
    freq.addRow({"Frequency gain", fmtPercent(lib.frequencyGain() - 1.0),
                 fmtPercent(paper::kFreqGain - 1.0)});
    freq.print(out);

    out << anchorLine(
        "table2 wakeup-select improvement",
        fmtPercent(lib.find("Scheduler (wakeup-select)")->improvement()),
        fmtPercent(paper::kWakeupSelectImprovement));
    out << anchorLine(
        "table2 ALU+bypass improvement",
        fmtPercent(lib.find("ALU + bypass loop")->improvement()),
        fmtPercent(paper::kAluBypassImprovement));
    return out.str();
}

std::string
renderFig8(const Fig8Data &data)
{
    std::ostringstream out;
    out << "=== Figure 8: performance ===\n";
    Table t({"Class", "Base", "TH", "Pipe", "Fast", "3D", "Speedup"});
    for (const auto &g : data.groups)
        t.addRow({g.suite, fmtDouble(g.ipcGeomean[0], 3),
                  fmtDouble(g.ipcGeomean[1], 3),
                  fmtDouble(g.ipcGeomean[2], 3),
                  fmtDouble(g.ipcGeomean[3], 3),
                  fmtDouble(g.ipcGeomean[4], 3), fmtPercent(g.speedup)});
    t.print(out);
    out << strformat("mean-of-means speedup: %s (min %s %s, max %s %s)\n",
                     fmtPercent(data.speedupMeanOfMeans).c_str(),
                     data.minBenchmark.c_str(),
                     fmtPercent(data.minSpeedup).c_str(),
                     data.maxBenchmark.c_str(),
                     fmtPercent(data.maxSpeedup).c_str());
    return out.str();
}

std::string
renderFig8Detail(const Fig8Data &data)
{
    std::ostringstream out;
    out << "=== Figure 8(b): instructions per nanosecond ===\n";
    Table ipns({"Class", "Base", "TH", "Pipe", "Fast", "3D"});
    for (const auto &g : data.groups)
        ipns.addRow({g.suite, fmtDouble(g.ipnsGeomean[0], 2),
                     fmtDouble(g.ipnsGeomean[1], 2),
                     fmtDouble(g.ipnsGeomean[2], 2),
                     fmtDouble(g.ipnsGeomean[3], 2),
                     fmtDouble(g.ipnsGeomean[4], 2)});
    ipns.print(out);
    const std::vector<ConfigKind> configs = figure8Configs();
    out << "mean-of-means IPC:";
    for (std::size_t c = 0; c < configs.size(); ++c)
        out << (c == 0 ? " " : ", ") << configName(configs[c]) << " "
            << fmtDouble(data.ipcMeanOfMeans[c], 3);
    out << "\n";

    out << "=== Figure 8: per-benchmark speedups ===\n";
    Table per({"Benchmark", "Suite", "IPC Base", "IPC 3D", "Speedup"});
    for (const auto &b : data.benchmarks)
        per.addRow({b.name, b.suite, fmtDouble(b.ipc[0], 3),
                    fmtDouble(b.ipc[4], 3), fmtPercent(b.speedup)});
    per.print(out);

    out << anchorLine("fig8 mean speedup",
                      fmtPercent(data.speedupMeanOfMeans),
                      fmtPercent(paper::kMeanSpeedup));
    out << anchorLine("fig8 min speedup",
                      data.minBenchmark + " " + fmtPercent(data.minSpeedup),
                      "mcf " + fmtPercent(paper::kMinSpeedup));
    out << anchorLine("fig8 max speedup",
                      data.maxBenchmark + " " + fmtPercent(data.maxSpeedup),
                      "patricia " + fmtPercent(paper::kMaxSpeedup));
    for (const auto &b : data.benchmarks)
        if (b.name == "crafty")
            out << anchorLine("fig8 crafty speedup", fmtPercent(b.speedup),
                              fmtPercent(paper::kCraftySpeedup));
    // SPECfp2000 is the paper's outlier group; the others cluster.
    std::vector<double> non_fp;
    for (const auto &g : data.groups) {
        if (g.suite != "SPECfp2000")
            non_fp.push_back(g.speedup);
        else
            out << anchorLine("fig8 SPECfp2000 speedup",
                              fmtPercent(g.speedup),
                              fmtPercent(paper::kSpecFpSpeedup));
    }
    if (!non_fp.empty()) {
        const auto [lo, hi] =
            std::minmax_element(non_fp.begin(), non_fp.end());
        out << anchorLine("fig8 non-FP group speedups",
                          fmtPercent(*lo) + " to " + fmtPercent(*hi),
                          fmtPercent(paper::kNonFpGroupSpeedupLo) + " to " +
                              fmtPercent(paper::kNonFpGroupSpeedupHi));
    }
    return out.str();
}

std::string
renderFig9(const Fig9Data &data)
{
    std::ostringstream out;
    out << "=== Figure 9: power ===\n";
    Table t({"Config", "Total W", "Clock W", "Leak W", "Dynamic W"});
    for (const PowerBreakdown *b :
         {&data.planar, &data.noTh3d, &data.th3d})
        t.addRow({b->config, fmtDouble(b->totalW, 1),
                  fmtDouble(b->clockW, 1), fmtDouble(b->leakW, 1),
                  fmtDouble(b->dynamicW, 1)});
    t.print(out);
    out << strformat("power saving: min %s %s, max %s %s\n",
                     data.minSaving.name.c_str(),
                     fmtPercent(data.minSaving.saving).c_str(),
                     data.maxSaving.name.c_str(),
                     fmtPercent(data.maxSaving.saving).c_str());
    return out.str();
}

std::string
renderFig9Detail(const Fig9Data &data)
{
    std::ostringstream out;
    out << strformat("=== Figure 9(a-c): dual-core %s power by block "
                     "===\n", System::kPowerReferenceBenchmark);
    for (const PowerBreakdown *b :
         {&data.planar, &data.noTh3d, &data.th3d}) {
        out << b->config << ":\n";
        Table t({"Block", "Watts", "Share of dynamic"});
        for (int i = 0; i < kNumCoreBlocks; ++i) {
            const double w = b->blockW[static_cast<size_t>(i)];
            if (w < 0.005)
                continue;
            t.addRow({blockName(static_cast<BlockId>(i)), fmtDouble(w, 2),
                      fmtPercent(w / b->dynamicW)});
        }
        t.addRow({"L2", fmtDouble(b->l2W, 2),
                  fmtPercent(b->l2W / b->dynamicW)});
        t.print(out);
    }

    out << "=== Figure 9: per-application total power, Base vs 3D-TH "
           "===\n";
    Table t({"Benchmark", "Base (W)", "3D-TH (W)", "Saving"});
    for (const auto &sv : data.savings)
        t.addRow({sv.name, fmtDouble(sv.baseW, 1), fmtDouble(sv.th3dW, 1),
                  fmtPercent(sv.saving)});
    t.print(out);

    auto watts = [](double w) { return fmtDouble(w, 1) + " W"; };
    out << anchorLine("fig9 planar total", watts(data.planar.totalW),
                      watts(paper::kBaselinePowerW));
    out << anchorLine("fig9 3D-noTH total", watts(data.noTh3d.totalW),
                      watts(paper::k3dNoThPowerW));
    out << anchorLine("fig9 3D-TH total", watts(data.th3d.totalW),
                      watts(paper::k3dThPowerW));
    out << anchorLine("fig9 min saving",
                      data.minSaving.name + " " +
                          fmtPercent(data.minSaving.saving),
                      "yacr2 " + fmtPercent(paper::kMinPowerSaving));
    out << anchorLine("fig9 max saving",
                      data.maxSaving.name + " " +
                          fmtPercent(data.maxSaving.saving),
                      "susan " + fmtPercent(paper::kMaxPowerSaving));
    return out.str();
}

namespace {

/** The @p count hottest blocks of core 0 and the L2 (the cores are
 *  symmetric), hottest first. */
void
printHotBlocks(std::ostream &out, const ThermalReport &rep, int count)
{
    std::vector<const BlockTemp *> sorted;
    for (const BlockTemp &b : rep.blocks)
        if (b.core != 1)
            sorted.push_back(&b);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const BlockTemp *a, const BlockTemp *b) {
                         return a->peakK > b->peakK;
                     });
    Table t({"Block", "Die", "Power (W)", "Avg (K)", "Peak (K)"});
    for (int i = 0; i < count && i < static_cast<int>(sorted.size()); ++i) {
        const BlockTemp *b = sorted[static_cast<size_t>(i)];
        t.addRow({blockName(b->id), std::to_string(b->die),
                  fmtDouble(b->powerW, 2), fmtDouble(b->avgK, 1),
                  fmtDouble(b->peakK, 1)});
    }
    t.print(out);
}

} // namespace

std::string
renderFig10(const Fig10Data &data)
{
    std::ostringstream out;
    out << "=== Figure 10: thermal ===\n";
    Table t({"Case", "App", "Total W", "Peak K", "Hot block", "Die"});
    auto row = [&](const char *label, const ThermalCase &tc) {
        t.addRow({label, tc.app, fmtDouble(tc.totalW, 1),
                  fmtDouble(tc.report.peakK, 1), tc.report.hottestBlock,
                  std::to_string(tc.report.hottestDie)});
    };
    row("worst planar", data.worstPlanar);
    row("worst 3D-noTH", data.worstNoTh3d);
    row("worst 3D-TH", data.worstTh3d);
    row("iso-power", data.isoPower);
    t.print(out);

    out << strformat("=== Figure 10(d-f): all configurations on %s ===\n",
                     data.sameApp.c_str());
    for (const ThermalCase *tc :
         {&data.samePlanar, &data.sameNoTh3d, &data.sameTh3d}) {
        out << strformat("%s (%s W): peak %s K at %s (die %d)\n",
                         tc->config.c_str(), fmtDouble(tc->totalW, 1).c_str(),
                         fmtDouble(tc->report.peakK, 1).c_str(),
                         tc->report.hottestBlock.c_str(),
                         tc->report.hottestDie);
        printHotBlocks(out, tc->report, 6);
    }

    const double planar_k = data.worstPlanar.report.peakK;
    const double inc_no_th = data.worstNoTh3d.report.peakK - planar_k;
    const double inc_th = data.worstTh3d.report.peakK - planar_k;
    out << anchorLine("fig10 planar peak",
                      fmtDouble(planar_k, 1) + " K at " +
                          data.worstPlanar.report.hottestBlock,
                      fmtDouble(paper::kPeak2dK, 1) + " K at scheduler");
    out << anchorLine("fig10 3D-noTH peak",
                      peakAndRise(data.worstNoTh3d.report.peakK, planar_k),
                      peakAndRise(paper::kPeak3dNoThK, paper::kPeak2dK));
    out << anchorLine("fig10 3D-TH peak",
                      peakAndRise(data.worstTh3d.report.peakK, planar_k) +
                          " at " + data.worstTh3d.report.hottestBlock +
                          " on " + data.worstTh3d.app,
                      peakAndRise(paper::kPeak3dThK, paper::kPeak2dK) +
                          " at DCache on yacr2");
    if (inc_no_th > 0.0) {
        const double paper_no_th = paper::kPeak3dNoThK - paper::kPeak2dK;
        const double paper_th = paper::kPeak3dThK - paper::kPeak2dK;
        out << anchorLine("fig10 reduction of the 3D increase",
                          fmtPercent((inc_no_th - inc_th) / inc_no_th),
                          fmtPercent((paper_no_th - paper_th) /
                                     paper_no_th));
    }
    out << anchorLine("fig10 iso-power peak",
                      peakAndRise(data.isoPower.report.peakK, planar_k),
                      peakAndRise(paper::kPeakIsoPowerK, paper::kPeak2dK));
    out << anchorLine("fig10 ROB delta (3D-TH vs planar, " + data.sameApp +
                          ")",
                      fmtDouble(data.robDeltaK, 2) + " K",
                      "about " + fmtDouble(-paper::kRobCoolingK, 1) + " K");
    return out.str();
}

std::string
renderWidth(const WidthStudyData &data)
{
    std::ostringstream out;
    out << "=== Width prediction study ===\n";
    Table t({"Benchmark", "Accuracy", "Unsafe", "PAM hits",
             "PVE encodable", "D$ herded", "<=16b results", "ROB lo:hi"});
    for (const auto &row : data.rows)
        t.addRow({row.name, fmtPercent(row.accuracy),
                  fmtPercent(row.unsafeRate), fmtPercent(row.pamHitRate),
                  fmtPercent(row.pveEncodable),
                  fmtPercent(row.lowWidthFrac),
                  fmtPercent(row.narrowResults),
                  fmtDouble(row.robLowReadRatio, 1) + "x"});
    t.print(out);
    out << anchorLine(strformat("width prediction accuracy over %zu "
                                "benchmarks",
                                data.rows.size()),
                      fmtPercent(data.overallAccuracy),
                      fmtPercent(paper::kWidthAccuracy));
    return out.str();
}

std::string
renderAblation(const AblationData &data)
{
    std::ostringstream out;
    const std::size_t per_app =
        data.apps.empty() ? 0 : data.rows.size() / data.apps.size();
    for (std::size_t a = 0; a < data.apps.size(); ++a) {
        out << strformat("=== Ablation on %s (3D config) ===\n",
                         data.apps[a].c_str());
        Table t({"Variant", "IPC", "Total W", "Top-die dyn. share"});
        for (std::size_t v = 0; v < per_app; ++v) {
            const AblationRow &row = data.rows[a * per_app + v];
            t.addRow({row.variant, fmtDouble(row.ipc, 3),
                      fmtDouble(row.totalW, 1),
                      fmtPercent(row.topDieFrac)});
        }
        t.print(out);
    }
    return out.str();
}

namespace {

/**
 * The stable fast-vs-exact accuracy line. CI greps it, so its shape is
 * load-bearing: "error vs exact anchors: ipc X%, peak Y K, duty Z pp
 * (N anchors)".
 */
std::string
anchorErrorLine(double ipc_err, double peak_err_k, double duty_err_pp,
                int anchors)
{
    return strformat("error vs exact anchors: ipc %s, peak %s K, "
                     "duty %s pp (%d anchors)\n",
                     fmtPercent(ipc_err, 2).c_str(),
                     fmtDouble(peak_err_k, 3).c_str(),
                     fmtDouble(duty_err_pp, 2).c_str(), anchors);
}

/**
 * Shared DTM-outcome table shape, now core-count-aware: renderDtm
 * labels rows by configuration, renderMulticore by core (one row per
 * core plus a stack-aggregate row). One renderer means the single-core
 * study's bytes never drift from the many-core per-core rows.
 */
Table
dtmOutcomeTable(const char *entity)
{
    return Table({entity, "Start K", "Peak K", "Final K",
                  "Throttle duty", "t>trig ms", "Perf lost"});
}

/** One DTM-outcome row (single-core config or many-core core). */
void
addDtmOutcomeRow(Table &t, const std::string &label, double start_k,
                 double peak_k, double final_k, double duty,
                 double t_above_s, double perf_lost)
{
    t.addRow({label, fmtDouble(start_k, 1), fmtDouble(peak_k, 1),
              fmtDouble(final_k, 1), fmtPercent(duty),
              fmtDouble(t_above_s * 1e3, 1), fmtPercent(perf_lost)});
}

} // namespace

std::string
renderDtm(const DtmStudyData &data, const DtmOptions &opts)
{
    std::ostringstream out;
    out << strformat("=== Closed-loop DTM: %s, policy %s, trigger %s K "
                     "===\n", data.benchmark.c_str(),
                     dtmPolicyName(opts.policy),
                     fmtDouble(opts.triggers.triggerK, 1).c_str());
    Table t = dtmOutcomeTable("Config");
    for (const DtmCase &c : data.cases)
        addDtmOutcomeRow(t, configName(c.config), c.report.startPeakK,
                         c.report.peakK, c.report.finalPeakK,
                         c.report.throttleDuty,
                         c.report.timeAboveTriggerS, c.report.perfLost);
    t.print(out);
    // Only fast studies carry an error bound; the exact rendering stays
    // byte-identical to the pre-fast-path output.
    if (data.fast)
        out << anchorErrorLine(data.maxIpcErr, data.maxPeakErrK,
                               data.maxDutyErrPp, data.anchors);
    return out.str();
}

std::string
renderFamilySweep(const FamilySweepData &data,
                  const FamilySweepOptions &opts)
{
    std::ostringstream out;
    out << strformat(
        "=== Family sweep: %s on %s, %d triggers in [%s, %s] K (%s) "
        "===\n",
        data.benchmark.c_str(), configName(data.config),
        opts.triggerSteps, fmtDouble(opts.triggerLoK, 1).c_str(),
        fmtDouble(opts.triggerHiK, 1).c_str(),
        data.fast ? "fast" : "exact");
    Table t({"Policy", "Points", "Duty min", "Duty max", "Peak K max",
             "Perf lost max"});
    for (DtmPolicyKind pol : opts.policies) {
        size_t n = 0;
        double duty_min = 0.0, duty_max = 0.0, peak_max = 0.0,
               lost_max = 0.0;
        for (const auto &pt : data.points) {
            if (pt.policy != pol)
                continue;
            if (n == 0) {
                duty_min = duty_max = pt.report.throttleDuty;
                peak_max = pt.report.peakK;
                lost_max = pt.report.perfLost;
            } else {
                duty_min = std::min(duty_min, pt.report.throttleDuty);
                duty_max = std::max(duty_max, pt.report.throttleDuty);
                peak_max = std::max(peak_max, pt.report.peakK);
                lost_max = std::max(lost_max, pt.report.perfLost);
            }
            ++n;
        }
        if (n == 0)
            continue;
        t.addRow({dtmPolicyName(pol), strformat("%zu", n),
                  fmtPercent(duty_min), fmtPercent(duty_max),
                  fmtDouble(peak_max, 1), fmtPercent(lost_max)});
    }
    t.print(out);
    if (data.fast)
        out << anchorErrorLine(data.maxIpcErr, data.maxPeakErrK,
                               data.maxDutyErrPp, data.anchors);
    return out.str();
}

std::string
renderMulticore(const MulticoreReport &rep)
{
    std::ostringstream out;
    out << strformat("=== Many-core stack: %u cores, %u L2 banks on "
                     "%s, policy %s, trigger %s K ===\n",
                     rep.numCores, rep.l2Banks, rep.config.c_str(),
                     rep.policy.c_str(),
                     fmtDouble(rep.triggerK, 1).c_str());
    Table t = dtmOutcomeTable("Core");
    double duty_sum = 0.0, free_sum = 0.0;
    for (std::size_t c = 0; c < rep.cores.size(); ++c) {
        const MulticoreCoreStats &row = rep.cores[c];
        addDtmOutcomeRow(t, strformat("%zu:%s", c, row.benchmark.c_str()),
                         row.startPeakK, row.peakK, row.finalPeakK,
                         row.throttleDuty, row.timeAboveTriggerS,
                         row.perfLost);
        duty_sum += row.throttleDuty;
        free_sum += row.ipcFree;
    }
    const double n = rep.cores.empty()
        ? 1.0 : static_cast<double>(rep.cores.size());
    const double agg_lost = free_sum > 0.0
        ? std::max(0.0, 1.0 - rep.throughputIpc / free_sum)
        : 0.0;
    addDtmOutcomeRow(t, "stack", rep.startPeakK, rep.peakK,
                     rep.finalPeakK, duty_sum / n, rep.timeAboveTriggerS,
                     agg_lost);
    t.print(out);
    Table ct({"Core", "IPC free", "IPC eff", "L2 accesses",
              "Extra miss cyc", "Stall frac"});
    for (std::size_t c = 0; c < rep.cores.size(); ++c) {
        const MulticoreCoreStats &row = rep.cores[c];
        ct.addRow({strformat("%zu:%s", c, row.benchmark.c_str()),
                   fmtDouble(row.ipcFree, 3),
                   fmtDouble(row.ipcEffective, 3),
                   strformat("%llu",
                             (unsigned long long)row.l2Accesses),
                   fmtDouble(row.extraMissCycles, 2),
                   fmtPercent(row.contentionStallFrac)});
    }
    ct.print(out);
    Table bt({"Bank", "Accesses", "Occupancy", "Peak occ"});
    for (std::size_t b = 0; b < rep.banks.size(); ++b)
        bt.addRow({strformat("%zu", b),
                   strformat("%llu",
                             (unsigned long long)rep.banks[b].accesses),
                   fmtPercent(rep.banks[b].occupancy),
                   fmtPercent(rep.banks[b].peakOccupancy)});
    bt.print(out);
    out << strformat("stack throughput: %s IPC over %u intervals, "
                     "%s ms simulated\n",
                     fmtDouble(rep.throughputIpc, 3).c_str(),
                     rep.intervals,
                     fmtDouble(rep.totalTimeS * 1e3, 2).c_str());
    return out.str();
}

std::string
renderMulticoreStudy(const MulticoreStudyData &data)
{
    std::ostringstream out;
    out << "=== Many-core neighbor coupling ===\n";
    Table t({"Cores", "Config", "Stack peak K", "Hot core K",
             "Cool core K", "Max duty", "IPC loss", "Throughput"});
    // Hottest core at the smallest and largest no-herding stacks: the
    // delta between them is the neighbour-coupling signal CI asserts.
    double lo_hot = 0.0, hi_hot = 0.0;
    int lo_cores = 0, hi_cores = 0;
    for (const MulticoreCase &c : data.cases) {
        double hot = 0.0, cool = 0.0, duty = 0.0, free_sum = 0.0;
        for (std::size_t i = 0; i < c.report.cores.size(); ++i) {
            const MulticoreCoreStats &row = c.report.cores[i];
            hot = i == 0 ? row.peakK : std::max(hot, row.peakK);
            cool = i == 0 ? row.peakK : std::min(cool, row.peakK);
            duty = std::max(duty, row.throttleDuty);
            free_sum += row.ipcFree;
        }
        const double lost = free_sum > 0.0
            ? std::max(0.0, 1.0 - c.report.throughputIpc / free_sum)
            : 0.0;
        t.addRow({strformat("%d", c.cores), configName(c.config),
                  fmtDouble(c.report.peakK, 1), fmtDouble(hot, 1),
                  fmtDouble(cool, 1), fmtPercent(duty),
                  fmtPercent(lost),
                  fmtDouble(c.report.throughputIpc, 3)});
        if (c.config == ConfigKind::ThreeDNoTH) {
            if (lo_cores == 0 || c.cores < lo_cores) {
                lo_cores = c.cores;
                lo_hot = hot;
            }
            if (c.cores > hi_cores) {
                hi_cores = c.cores;
                hi_hot = hot;
            }
        }
    }
    t.print(out);
    if (lo_cores != 0 && hi_cores != lo_cores)
        out << strformat("neighbor coupling (no herding): hottest core "
                         "%s K at N=%d vs %s K at N=%d (delta %s K)\n",
                         fmtDouble(hi_hot, 2).c_str(), hi_cores,
                         fmtDouble(lo_hot, 2).c_str(), lo_cores,
                         fmtDouble(hi_hot - lo_hot, 2).c_str());
    return out.str();
}

std::string
renderCoreRun(const std::string &benchmark, const std::string &config,
              const CoreResult &r)
{
    return strformat("%s on %s: IPC %s, IPns %s, %llu insts in %llu "
                     "cycles\n", benchmark.c_str(), config.c_str(),
                     fmtDouble(r.perf.ipc(), 3).c_str(),
                     fmtDouble(r.ipns(), 2).c_str(),
                     (unsigned long long)r.perf.committedInsts.value(),
                     (unsigned long long)r.perf.cycles.value());
}

std::string
renderCounters(const System &sys)
{
    std::ostringstream out;
    const System::CacheStats cache = sys.coreCacheStats();
    out << strformat("\ncore cache: %llu hits, %llu misses\n",
                     (unsigned long long)cache.hits,
                     (unsigned long long)cache.misses);
    if (sys.storeEnabled()) {
        const StoreStats s = sys.storeStats();
        out << strformat(
            "store (%s): %llu hits, %llu misses, %llu stores, "
            "%llu evictions, %llu corrupt, %llu touch failures, "
            "%llu race lost\n",
            sys.storeDir().c_str(), (unsigned long long)s.hits,
            (unsigned long long)s.misses, (unsigned long long)s.stores,
            (unsigned long long)s.evictions,
            (unsigned long long)s.corrupt,
            (unsigned long long)s.touchFailures,
            (unsigned long long)s.raceLost);
    } else {
        out << "store: disabled (set TH_STORE_DIR or --store)\n";
    }
    return out.str();
}

} // namespace th
