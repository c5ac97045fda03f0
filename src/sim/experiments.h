/**
 * @file
 * Paper-experiment harnesses: one entry point per table/figure of the
 * evaluation section. th_run prints them through the renderers in
 * sim/report.h; integration tests assert tolerance bands around the
 * anchors in paper_targets.h.
 */

#ifndef TH_SIM_EXPERIMENTS_H
#define TH_SIM_EXPERIMENTS_H

#include <array>
#include <string>
#include <vector>

#include "sim/system.h"
#include "thermal/hotspot.h"

namespace th {

/** Number of Figure 8 configurations. */
inline constexpr int kNumFig8Configs = 5;

/** Per-benchmark Figure 8 results. */
struct Fig8Benchmark
{
    std::string name;
    std::string suite;
    std::array<double, kNumFig8Configs> ipc{};
    std::array<double, kNumFig8Configs> ipns{};
    /** 3D vs Base performance gain (e.g. 0.47 = +47%). */
    double speedup = 0.0;
};

/** Per-suite geometric means (the paper's benchmark classes). */
struct Fig8Group
{
    std::string suite;
    std::array<double, kNumFig8Configs> ipcGeomean{};
    std::array<double, kNumFig8Configs> ipnsGeomean{};
    double speedup = 0.0;
};

/** Everything behind Figure 8(a-c). */
struct Fig8Data
{
    std::vector<Fig8Benchmark> benchmarks;
    std::vector<Fig8Group> groups;
    /** Mean of the per-group means (the paper's M-of-M). */
    std::array<double, kNumFig8Configs> ipcMeanOfMeans{};
    double speedupMeanOfMeans = 0.0;
    std::string minBenchmark, maxBenchmark;
    double minSpeedup = 0.0, maxSpeedup = 0.0;
};

/**
 * Run Figure 8 over @p benchmarks (empty = all registered). All
 * harnesses accept an optional CancelToken, polled by the underlying
 * core runs: a fired token unwinds the sweep with a Cancelled throw
 * (the thread pool rethrows it on the calling thread after draining).
 */
Fig8Data runFigure8(System &sys,
                    const std::vector<std::string> &benchmarks = {},
                    const CancelToken *cancel = nullptr);

/** Power breakdown of one configuration (Figure 9 pie). */
struct PowerBreakdown
{
    std::string config;
    double totalW = 0.0;
    double clockW = 0.0;
    double leakW = 0.0;
    double dynamicW = 0.0;
    /** Per-core-block dynamic watts (both cores combined). */
    std::array<double, kNumCoreBlocks> blockW{};
    double l2W = 0.0;
};

/** Per-application total-power savings (Section 5.2). */
struct PowerSaving
{
    std::string name;
    double baseW = 0.0;
    double th3dW = 0.0;
    /** Fractional saving of the 3D TH design vs planar. */
    double saving = 0.0;
};

/** Everything behind Figure 9(a-c). */
struct Fig9Data
{
    PowerBreakdown planar;     ///< Fig. 9(a): 2D, ~90 W.
    PowerBreakdown noTh3d;     ///< Fig. 9(b): 3D without herding.
    PowerBreakdown th3d;       ///< Fig. 9(c): 3D with Thermal Herding.
    std::vector<PowerSaving> savings;
    PowerSaving minSaving, maxSaving;
};

/**
 * Run Figure 9. The headline breakdowns use the paper's max-power
 * application (mpeg2); @p benchmarks (empty = all) feed the per-app
 * saving range.
 */
Fig9Data runFigure9(System &sys,
                    const std::vector<std::string> &benchmarks = {},
                    const CancelToken *cancel = nullptr);

/** One thermal scenario of Figure 10. */
struct ThermalCase
{
    std::string config;
    std::string app;
    double totalW = 0.0;
    ThermalReport report;
};

/** Everything behind Figure 10(a-f) + the iso-power study. */
struct Fig10Data
{
    // (a-c): worst case over the candidate applications.
    ThermalCase worstPlanar, worstNoTh3d, worstTh3d;
    // Iso-power: 3D at the planar 90 W / 2.66 GHz (4x power density).
    ThermalCase isoPower;
    // (d-f): all three configurations on the same application.
    std::string sameApp;
    ThermalCase samePlanar, sameNoTh3d, sameTh3d;
    /** ROB peak temperature: 3D-TH minus planar (negative = cooler,
     *  the paper reports about -5 K). */
    double robDeltaK = 0.0;
};

/**
 * Run Figure 10. @p candidates are the applications scanned for the
 * worst case (the paper scans all 106 traces; we scan the known
 * extremes plus representatives — defaults cover them).
 */
Fig10Data runFigure10(System &sys,
                      const std::vector<std::string> &candidates = {},
                      const CancelToken *cancel = nullptr);

/** Width prediction / PAM / PVE statistics (Sections 3.5-3.8). */
struct WidthStudyRow
{
    std::string name;
    double accuracy = 0.0;
    double unsafeRate = 0.0;   ///< Unsafe mispredictions / predictions.
    double pamHitRate = 0.0;
    double pveEncodable = 0.0; ///< D-cache values covered by codes 00/01/10.
    double lowWidthFrac = 0.0; ///< Herded fraction of D-cache reads.
    /** Fraction of committed integer results with <= 16 significant
     *  bits (the paper's motivating statistic). */
    double narrowResults = 0.0;
    /** ROB low-width : full-width read ratio (paper: ~5x, Sec. 5.3). */
    double robLowReadRatio = 0.0;
};

struct WidthStudyData
{
    std::vector<WidthStudyRow> rows;
    double overallAccuracy = 0.0;
};

WidthStudyData runWidthStudy(System &sys,
                             const std::vector<std::string> &benchmarks = {},
                             const CancelToken *cancel = nullptr);

/** One ablation variant of the full 3D configuration on one app. */
struct AblationRow
{
    std::string variant;
    double ipc = 0.0;
    double totalW = 0.0;
    /** Top die's share of dynamic power (the herding signal). */
    double topDieFrac = 0.0;
};

/** Everything behind the per-mechanism ablation (DESIGN.md §4). */
struct AblationData
{
    std::vector<std::string> apps;
    /** App-major, the same variants for every app: the full 3D
     *  configuration first, then one row per disabled mechanism. */
    std::vector<AblationRow> rows;
};

/**
 * Ablation study: starting from the full 3D configuration, disable
 * each Thermal Herding mechanism in turn (scheduler allocation, PAM,
 * PVE, BTB memoization, the width predictor's kind, herding itself)
 * and measure IPC, chip power and the top die's dynamic share on
 * mpeg2enc, gzip and yacr2. Every run goes through System::runCore,
 * so the memo cache and the store apply.
 */
AblationData runAblation(System &sys);

/** One configuration's closed-loop DTM outcome. */
struct DtmCase
{
    ConfigKind config = ConfigKind::Base;
    DtmReport report;
};

/** DTM engagement across the thermal-study configurations. */
struct DtmStudyData
{
    std::string benchmark;
    /** Base, 3D-noTH, 3D — presentation order of the thermal study. */
    std::vector<DtmCase> cases;

    /** True when the cases were replayed on the interval fast path.
     *  The error fields below are only meaningful then. */
    bool fast = false;
    /** Exact anchor runs backing the error bounds (0 when !fast). */
    int anchors = 0;
    double maxIpcErr = 0.0;   ///< Max relative effective-IPC error.
    double maxPeakErrK = 0.0; ///< Max |peak temperature delta| (K).
    double maxDutyErrPp = 0.0;///< Max throttle-duty delta (pct points).
};

/**
 * Closed-loop DTM comparison (Section 5.3's motivation made dynamic):
 * the planar baseline, naive 3D, and 3D with Thermal Herding each run
 * under the same policy and trigger. Naive 3D engages the throttle
 * hardest; herding claws most of that back.
 */
DtmStudyData runDtmStudy(System &sys, const std::string &benchmark,
                         const DtmOptions &opts,
                         const CancelToken *cancel = nullptr);

/**
 * runDtmStudy on the interval fast path: each configuration replays
 * its fitted model instead of stepping the cycle-accurate core. One
 * exact anchor (the planar baseline) is also run the slow way and its
 * deltas fill the DtmStudyData error fields, so every fast study
 * reports a measured error bound.
 */
DtmStudyData runDtmStudyFast(System &sys, const std::string &benchmark,
                             const DtmOptions &opts,
                             const IntervalOptions &iopts,
                             const CancelToken *cancel = nullptr);

/** One (core count, config) cell of the neighbor-coupling study. */
struct MulticoreCase
{
    int cores = 0;
    ConfigKind config = ConfigKind::ThreeD;
    MulticoreReport report;
};

/** Everything behind the many-core neighbor-coupling experiment. */
struct MulticoreStudyData
{
    /** Requested mix (cycled over each stack's cores by the runs). */
    std::vector<std::string> mix;
    /** Core counts swept (the N axis). */
    std::vector<int> coreCounts;
    /** Count-major, config-minor: (N₀ noTH), (N₀ TH), (N₁ noTH)... */
    std::vector<MulticoreCase> cases;
};

/**
 * Many-core neighbor-coupling study: each core count in @p core_counts
 * (empty = 1/2/4/8) runs the mixed-benchmark stack twice — 3D without
 * herding and full 3D — so the per-core tables expose how neighbour
 * cores heat each other as the stack fills and how much the per-core
 * DTM ladder claws back. @p base supplies the mix, bank geometry, and
 * DTM knobs; its numCores is overridden by each grid cell.
 */
MulticoreStudyData
runMulticoreStudy(System &sys, const MulticoreConfig &base,
                  const std::vector<int> &core_counts = {},
                  const CancelToken *cancel = nullptr);

/**
 * Knobs of a config-family trigger sweep — the interval fast path's
 * headline workload: many DTM runs of one (benchmark, config-family),
 * differing only in policy and trigger temperature.
 */
struct FamilySweepOptions
{
    /** Configuration family swept (its fitted model is shared by every
     *  fast point). The naive 3D stack default is the interesting one:
     *  it actually trips DTM across the trigger range. */
    ConfigKind config = ConfigKind::ThreeDNoTH;
    /** Per-point DTM knobs; policy and trigger are overwritten by the
     *  sweep grid below. */
    DtmOptions dtm;
    /** Trigger temperatures: triggerSteps points spanning [lo, hi]. */
    double triggerLoK = 352.0;
    double triggerHiK = 368.0;
    int triggerSteps = 51;
    /** Policies swept (cross product with the trigger grid). */
    std::vector<DtmPolicyKind> policies = {
        DtmPolicyKind::ClockGate, DtmPolicyKind::FetchThrottle};
    /**
     * In fast mode, every anchorStride-th trigger step of each policy
     * also runs the exact path; the measured fast-vs-exact deltas feed
     * the sweep's error bound. 0 disables anchoring (no error bound).
     */
    int anchorStride = 16;
    /** Fast path (fit once, replay per point) vs exact per-point core
     *  runs on the same grid. */
    bool fast = true;
    IntervalOptions interval;
};

/** One (policy, trigger) point of a family sweep. */
struct FamilySweepPoint
{
    double triggerK = 0.0;
    DtmPolicyKind policy = DtmPolicyKind::ClockGate;
    /** The sweep-mode result (replayed when fast, exact otherwise). */
    DtmReport report;
    /** True when this fast point was also run exactly. */
    bool anchor = false;
    DtmReport exact; ///< Exact anchor result (valid when anchor).
};

/** Everything behind one family sweep. */
struct FamilySweepData
{
    std::string benchmark;
    ConfigKind config = ConfigKind::Base;
    bool fast = false;
    /** Points in (policy-major, trigger-minor) grid order. */
    std::vector<FamilySweepPoint> points;
    /** Exact anchors run (0 in exact mode or with anchoring off). */
    int anchors = 0;
    double maxIpcErr = 0.0;   ///< Max relative effective-IPC error.
    double maxPeakErrK = 0.0; ///< Max |peak temperature delta| (K).
    double maxDutyErrPp = 0.0;///< Max throttle-duty delta (pct points).
};

/**
 * Sweep a (policy x trigger) DTM grid over one config-family. In fast
 * mode the model is fitted (or fetched) once up front and every point
 * replays it — on a warm store the whole sweep performs zero core
 * simulations; anchor points bound the replay error against the exact
 * engine. In exact mode every point steps the cycle-accurate core (the
 * comparison baseline for the fast path's speedup claim).
 */
FamilySweepData runFamilySweep(System &sys, const std::string &benchmark,
                               const FamilySweepOptions &opts,
                               const CancelToken *cancel = nullptr);

} // namespace th

#endif // TH_SIM_EXPERIMENTS_H
