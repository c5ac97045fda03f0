/**
 * @file
 * Text renderers for the experiment results — the exact report bodies
 * th_run prints locally, and the one place each paper table and
 * figure is rendered. th_serve renders responses through the same
 * functions, which is what makes a served report byte-identical to a
 * local run of the same request (the loopback smoke test diffs them).
 *
 * Every paper anchor is one line "anchor <what>: <measured> (paper
 * <published>)", its measured value beside the value in
 * sim/paper_targets.h. tests/paper_anchors.txt snapshots these lines.
 */

#ifndef TH_SIM_REPORT_H
#define TH_SIM_REPORT_H

#include <string>

#include "sim/experiments.h"
#include "sim/system.h"

namespace th {

/**
 * Table 2: per-block 2D/3D latencies, the critical-loop clock table
 * beside the paper's, and the two critical-loop anchors.
 */
std::string renderTable2(const BlockLibrary &lib);

/** "=== Figure 8: performance ===" header + table + summary line. */
std::string renderFig8(const Fig8Data &data);

/**
 * Figure 8's second section, printed after renderFig8: Fig 8(b)
 * instructions per ns, the mean-of-means IPC, per-benchmark speedups
 * and the speedup anchors.
 */
std::string renderFig8Detail(const Fig8Data &data);

/** "=== Figure 9: power ===" header + table + saving range. */
std::string renderFig9(const Fig9Data &data);

/**
 * Figure 9's second section, printed after renderFig9: the per-block
 * breakdowns of Fig 9(a-c), per-application savings and the power
 * anchors.
 */
std::string renderFig9Detail(const Fig9Data &data);

/**
 * "=== Figure 10: thermal ===" worst-case table, the same-app hot
 * blocks of Fig 10(d-f), and the peak, increase, iso-power and ROB
 * anchors.
 */
std::string renderFig10(const Fig10Data &data);

/** "=== Width prediction study ===" per-benchmark table + anchor. */
std::string renderWidth(const WidthStudyData &data);

/** One "=== Ablation on <app> (3D config) ===" table per app. */
std::string renderAblation(const AblationData &data);

/**
 * "=== Closed-loop DTM ... ===" header + per-config table. Fast-path
 * studies (data.fast) append the measured error-bound line; exact
 * studies render byte-identically to before the fast path existed.
 */
std::string renderDtm(const DtmStudyData &data, const DtmOptions &opts);

/**
 * "=== Family sweep ... ===" header + per-policy aggregate table. Fast
 * sweeps end with the stable error line
 * "error vs exact anchors: ipc X%, peak Y K, duty Z pp (N anchors)"
 * that CI greps its accuracy assertion from.
 */
std::string renderFamilySweep(const FamilySweepData &data,
                              const FamilySweepOptions &opts);

/**
 * "=== Many-core stack ... ===" header + per-core DTM-outcome rows, a
 * "stack" aggregate row, the per-core contention table, and the L2
 * bank table. The DTM-outcome rows come from the same core-count-aware
 * renderer renderDtm uses, so the single-core study's output stays
 * byte-identical while many-core reports scale rows with the stack.
 */
std::string renderMulticore(const MulticoreReport &rep);

/**
 * "=== Many-core neighbor coupling ===" header + one summary row per
 * (core count, config) cell, ending with the stable line
 * "neighbor coupling (no herding): hottest core ... (delta X K)"
 * that CI greps its coupling assertion from.
 */
std::string renderMulticoreStudy(const MulticoreStudyData &data);

/** One-line summary of a single (benchmark, config) core run. */
std::string renderCoreRun(const std::string &benchmark,
                          const std::string &config,
                          const CoreResult &r);

/** Cache/store counter footer ("core cache: ...\nstore ...: ..."). */
std::string renderCounters(const System &sys);

} // namespace th

#endif // TH_SIM_REPORT_H
