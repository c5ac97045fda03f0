#include "sim/dispatch.h"

#include <climits>
#include <cmath>

#include "dtm/policy.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "trace/suites.h"

namespace th {

bool
validateRequest(const SimRequest &req, const SimOptions &window,
                std::string &err)
{
    for (const std::string &b : req.benchmarks) {
        if (!hasBenchmark(b)) {
            err = "unknown benchmark '" + b + "'";
            return false;
        }
    }
    // The store keys a result by (benchmark, config hash) only — the
    // simulation window is the System's to fix. Accept 0 ("use the
    // System's") or an exact match; anything else would silently serve
    // a result computed under a different window.
    if (req.insts != 0 && req.insts != window.instructions) {
        err = "requested insts " + std::to_string(req.insts) +
              " != server window " + std::to_string(window.instructions) +
              " (the server's simulation window is fixed)";
        return false;
    }
    if (req.warmup != 0 && req.warmup != window.warmupInstructions) {
        err = "requested warmup " + std::to_string(req.warmup) +
              " != server window " +
              std::to_string(window.warmupInstructions) +
              " (the server's simulation window is fixed)";
        return false;
    }
    if (req.kind == SimRequestKind::Core && req.benchmarks.size() != 1) {
        err = "core requests take exactly one benchmark";
        return false;
    }
    // Core runs name their config; multicore runs may (default 3D).
    const bool core = req.kind == SimRequestKind::Core;
    if (!core && req.kind != SimRequestKind::Multicore &&
        !req.config.empty()) {
        err = "config is only meaningful for core and multicore "
              "requests";
        return false;
    }
    ConfigKind kind;
    if ((core || !req.config.empty()) &&
        !configKindByName(req.config, kind)) {
        err = "unknown config '" + req.config +
              "' (Base, TH, Pipe, Fast, 3D, 3D-noTH)";
        return false;
    }
    if (req.kind == SimRequestKind::Multicore) {
        // The generated floorplan and thermal grid scale with the core
        // count; cap both axes so a hostile request cannot ask for an
        // absurd stack (and so the int casts below never wrap).
        if (req.mcCores > 64) {
            err = "mcCores " + std::to_string(req.mcCores) +
                  " out of range (max 64)";
            return false;
        }
        if (req.mcL2Banks > 64) {
            err = "mcL2Banks " + std::to_string(req.mcL2Banks) +
                  " out of range (max 64)";
            return false;
        }
    } else if (req.mcCores != 0 || req.mcL2Banks != 0) {
        err = "mcCores/mcL2Banks are only meaningful for multicore "
              "requests";
        return false;
    }
    if (req.kind == SimRequestKind::Dtm && req.benchmarks.size() > 1) {
        err = "dtm requests take at most one benchmark";
        return false;
    }
    // Multicore requests reuse the DTM knobs for their per-core
    // policies, so both kinds get the same validation.
    if (req.kind == SimRequestKind::Dtm ||
        req.kind == SimRequestKind::Multicore) {
        DtmPolicyKind policy;
        if (!req.dtmPolicy.empty() &&
            !dtmPolicyByName(req.dtmPolicy, policy)) {
            err = "unknown policy '" + req.dtmPolicy +
                  "' (none, clockgate, fetch)";
            return false;
        }
        SolverKind solver;
        if (!req.dtmSolver.empty() &&
            !solverKindByName(req.dtmSolver, &solver)) {
            err = "unknown solver '" + req.dtmSolver +
                  "' (sor, multigrid)";
            return false;
        }
        // The wire carries these as unsigned; DtmOptions holds ints. A
        // hostile value above INT_MAX would wrap negative through the
        // narrowing cast and sail past the > 0 default-selection
        // guards, so reject it here with a structured error.
        if (req.dtmIntervals > static_cast<std::uint32_t>(INT_MAX)) {
            err = "dtmIntervals " + std::to_string(req.dtmIntervals) +
                  " out of range (max " + std::to_string(INT_MAX) + ")";
            return false;
        }
        if (req.dtmGridN > static_cast<std::uint32_t>(INT_MAX)) {
            err = "dtmGridN " + std::to_string(req.dtmGridN) +
                  " out of range (max " + std::to_string(INT_MAX) + ")";
            return false;
        }
        // dtmOptionsFrom keeps a knob only when it is > 0, so a NaN or
        // negative trigger or dilation would silently become the
        // default, and an infinite dilation would reach the stepper's
        // step-count cast.
        if (!std::isfinite(req.dtmTriggerK) || req.dtmTriggerK < 0.0) {
            err = "dtmTriggerK " + std::to_string(req.dtmTriggerK) +
                  " must be finite and >= 0 (0 selects the default)";
            return false;
        }
        if (!std::isfinite(req.dtmDilation) || req.dtmDilation < 0.0) {
            err = "dtmDilation " + std::to_string(req.dtmDilation) +
                  " must be finite and >= 0 (0 selects the default)";
            return false;
        }
        // 0 selects the default grid; 1..3 would reach the engines'
        // fatal() gridN check and take a server down with it.
        if (req.dtmGridN != 0 &&
            req.dtmGridN < static_cast<std::uint32_t>(kMinDtmGridN)) {
            err = "dtmGridN " + std::to_string(req.dtmGridN) +
                  " too coarse (min " + std::to_string(kMinDtmGridN) +
                  ")";
            return false;
        }
    }
    if (req.fastPath > 1) {
        err = "fastPath must be 0 or 1";
        return false;
    }
    if (req.fastPath != 0 && req.kind != SimRequestKind::Dtm) {
        err = "fastPath is only meaningful for dtm requests";
        return false;
    }
    return true;
}

DtmOptions
dtmOptionsFrom(const SimRequest &req)
{
    DtmOptions opts;
    if (!req.dtmPolicy.empty())
        dtmPolicyByName(req.dtmPolicy, opts.policy); // validated upstream
    if (req.dtmTriggerK > 0.0)
        opts.triggers.triggerK = req.dtmTriggerK;
    if (req.dtmIntervals > 0)
        opts.maxIntervals = static_cast<int>(req.dtmIntervals);
    if (req.dtmIntervalCycles > 0)
        opts.intervalCycles = req.dtmIntervalCycles;
    if (req.dtmDilation > 0.0)
        opts.timeDilation = req.dtmDilation;
    if (req.dtmGridN > 0)
        opts.gridN = static_cast<int>(req.dtmGridN);
    if (!req.dtmSolver.empty())
        solverKindByName(req.dtmSolver, &opts.solver); // validated upstream
    return opts;
}

SimResponse
runRequest(System &sys, const SimRequest &req, const CancelToken *cancel)
{
    SimResponse rsp;
    switch (req.kind) {
    case SimRequestKind::Fig8: {
        const Fig8Data data = runFigure8(sys, req.benchmarks, cancel);
        rsp.text = renderFig8(data) + renderFig8Detail(data);
        break;
    }
    case SimRequestKind::Fig9: {
        const Fig9Data data = runFigure9(sys, req.benchmarks, cancel);
        rsp.text = renderFig9(data) + renderFig9Detail(data);
        break;
    }
    case SimRequestKind::Fig10:
        rsp.text = renderFig10(runFigure10(sys, req.benchmarks, cancel));
        break;
    case SimRequestKind::Width:
        rsp.text = renderWidth(runWidthStudy(sys, req.benchmarks, cancel));
        break;
    case SimRequestKind::Dtm: {
        const DtmOptions opts = dtmOptionsFrom(req);
        const std::string benchmark = req.benchmarks.empty()
                                          ? System::kPowerReferenceBenchmark
                                          : req.benchmarks[0];
        // fastPath replays fitted interval models (with an exact anchor
        // backing the report's error line); requests differing only in
        // this flag never coalesce — flightKeyOf covers it.
        const DtmStudyData data = req.fastPath != 0
            ? runDtmStudyFast(sys, benchmark, opts, IntervalOptions{},
                              cancel)
            : runDtmStudy(sys, benchmark, opts, cancel);
        rsp.text = renderDtm(data, opts);
        break;
    }
    case SimRequestKind::Core: {
        ConfigKind kind = ConfigKind::Base;
        configKindByName(req.config, kind); // validated upstream
        const CoreResult r = sys.runCore(req.benchmarks[0], kind, cancel);
        rsp.text = renderCoreRun(req.benchmarks[0], req.config, r);
        break;
    }
    case SimRequestKind::Multicore: {
        MulticoreConfig mc;
        mc.benchmarks = req.benchmarks;
        mc.dtm = dtmOptionsFrom(req);
        if (req.mcL2Banks > 0)
            mc.l2Banks = static_cast<int>(req.mcL2Banks);
        if (req.mcCores > 0) {
            // Single stack at the requested core count (config
            // defaults to the full 3D design).
            mc.numCores = static_cast<int>(req.mcCores);
            ConfigKind kind = ConfigKind::ThreeD;
            if (!req.config.empty())
                configKindByName(req.config, kind); // validated upstream
            rsp.text = renderMulticore(sys.runMulticore(kind, mc, cancel));
        } else {
            // No core count: the full neighbor-coupling study.
            rsp.text = renderMulticoreStudy(
                runMulticoreStudy(sys, mc, {}, cancel));
        }
        break;
    }
    case SimRequestKind::Ping:
    case SimRequestKind::Metrics:
        rsp.status = SimStatus::Internal;
        rsp.error = "control-plane request reached the worker pool";
        break;
    }
    return rsp;
}

} // namespace th
