/**
 * @file
 * th_run — the Thermal Herding experiment driver. One binary for
 * reproducing every paper table and figure (each renderer in
 * sim/report.h ends with its "anchor" lines, measured beside paper)
 * against the persistent artifact store, recording and replaying
 * .thtrace files, and maintaining the store.
 *
 * Usage:
 *   th_run table2
 *   th_run fig8|fig9|fig10|width|sweep [--benchmarks a,b,c]
 *          [--insts N] [--warmup N] [--store DIR]
 *   th_run ablation [--insts N] [--warmup N] [--store DIR]
 *   th_run core [--benchmarks b] [--config NAME]
 *   th_run multicore [--cores N] [--banks N] [--benchmarks a,b]
 *   th_run trace record <benchmark> <out.thtrace> [--records N]
 *   th_run trace info <file.thtrace>
 *   th_run trace run <file.thtrace> [--config NAME] [--insts N]
 *          [--warmup N]
 *   th_run fit [--benchmarks b] [--config NAME]
 *   th_run sweep --fast|--exact [--trigger-lo K] [--trigger-hi K]
 *          [--trigger-steps N] [--anchor-stride N]
 *   th_run store ls|gc|verify [--dir DIR] [--max-bytes N] [--dry-run]
 *   th_run <cmd> --connect host:port   # run against a th_serve server
 *   th_run ping|metrics --connect host:port
 *   th_run --version
 *
 * The experiment commands honour TH_STORE_DIR (or --store): a cold run
 * simulates and persists every (benchmark, config) CoreResult; a warm
 * re-run loads them all from disk and prints matching hit counters.
 *
 * The request subcommands (fig8/9/10, width, sweep, core, dtm,
 * multicore) build one SimRequest from the flags. Locally it runs
 * through runRequest (sim/dispatch.h) on an in-process System; with
 * --connect the same request goes to a th_serve server, whose workers
 * call the same runRequest. Served and local output are therefore
 * byte-identical (counter footers aside — those describe whichever
 * System did the work). table2 and ablation, like fit, carry no
 * SimRequest and run only locally.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "common/version.h"
#include "io/trace_file.h"
#include "net/client.h"
#include "sim/dispatch.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "store/artifact_store.h"
#include "trace/suites.h"

using namespace th;

namespace {

/** Simulation window applied when --insts / --warmup are not given. */
constexpr std::uint64_t kDefaultInsts = 200000;
constexpr std::uint64_t kDefaultWarmup = 100000;

/** Tiny flag parser: positional args + --name value pairs. */
struct Args
{
    std::vector<std::string> pos;

    std::string benchmarks;
    std::string config = "Base";
    std::string dir;
    // 0 = not given: local runs fall back to kDefault*; client mode
    // forwards the 0 so the server applies its own fixed window.
    std::uint64_t insts = 0;
    std::uint64_t warmup = 0;
    std::uint64_t records = 0;
    std::uint64_t maxBytes = 256ULL << 20;

    // DTM knobs (0 / empty = keep the DtmOptions default).
    std::string policy = "clockgate";
    double trigger = 0.0;
    std::uint64_t intervals = 0;
    std::uint64_t intervalCycles = 0;
    double dilation = 0.0;
    std::uint64_t grid = 0;
    std::string solver; ///< "" = DtmOptions default (sor).

    // Interval fast-path knobs.
    bool fast = false;      ///< dtm/sweep: replay fitted models.
    bool exact = false;     ///< sweep: exact family sweep (baseline).
    bool configGiven = false; ///< --config was passed explicitly.
    // 0 = keep the FamilySweepOptions / IntervalOptions default.
    double triggerLo = 0.0;
    double triggerHi = 0.0;
    std::uint64_t triggerSteps = 0;
    std::uint64_t anchorStride = 0;
    std::uint64_t fitCycles = 0;
    std::uint64_t fitInterval = 0;

    // Many-core knobs (0 = multicore runs the full coupling study).
    std::uint64_t cores = 0;
    std::uint64_t banks = 0;

    // Store maintenance.
    bool dryRun = false; ///< store gc: print the plan, evict nothing.

    // Client mode ("" = run locally).
    std::string connect;
    std::uint64_t deadlineMs = 0;
};

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "th_run: %s\n\n", msg);
    std::fprintf(stderr,
        "usage:\n"
        "  th_run table2\n"
        "  th_run fig8|fig9|fig10|width|sweep [--benchmarks a,b,c]\n"
        "         [--insts N] [--warmup N] [--store DIR]\n"
        "  th_run ablation [--insts N] [--warmup N] [--store DIR]\n"
        "  th_run trace record <benchmark> <out.thtrace> [--records N]\n"
        "  th_run trace info <file.thtrace>\n"
        "  th_run trace run <file.thtrace> [--config NAME] [--insts N]\n"
        "         [--warmup N]\n"
        "  th_run dtm [--benchmarks b] [--policy none|clockgate|fetch]\n"
        "         [--trigger K] [--intervals N] [--interval-cycles N]\n"
        "         [--dilation X] [--grid N] [--solver sor|multigrid]\n"
        "         [--store DIR] [--fast]\n"
        "  th_run fit [--benchmarks b] [--config NAME] [--fit-cycles N]\n"
        "         [--fit-interval N] [--store DIR]\n"
        "  th_run sweep --fast|--exact [--benchmarks b] [--config NAME]\n"
        "         [--trigger-lo K] [--trigger-hi K] [--trigger-steps N]\n"
        "         [--anchor-stride N] [--fit-cycles N] [--fit-interval N]\n"
        "         [--intervals N] [--interval-cycles N] [--grid N]\n"
        "  th_run core [--benchmarks b] [--config NAME]\n"
        "  th_run multicore [--cores N] [--banks N] [--benchmarks a,b]\n"
        "         [--config NAME] [--policy ...] [--trigger K]\n"
        "         [--intervals N] [--interval-cycles N] [--grid N]\n"
        "         [--store DIR]\n"
        "  th_run store ls|gc|verify [--dir DIR] [--max-bytes N]\n"
        "         [--dry-run]\n"
        "  th_run <experiment> --connect host:port [--deadline-ms N]\n"
        "  th_run ping|metrics --connect host:port\n"
        "  th_run --version\n"
        "\n"
        "table2, fig8/9/10 and width print the paper's tables and end\n"
        "with anchor lines, measured beside paper; sweep runs fig8,\n"
        "fig9 and fig10 in turn; ablation turns each herding mechanism\n"
        "off in turn on mpeg2enc, gzip and yacr2.\n"
        "The experiment commands persist CoreResults to --store /\n"
        "TH_STORE_DIR when set; a warm re-run then skips simulation.\n"
        "th_run dtm compares closed-loop thermal throttling on the\n"
        "planar, naive-3D, and 3D+herding designs; with a store, a warm\n"
        "rerun replays the cached reports without any simulation.\n"
        "th_run fit builds a config-family interval model; sweep --fast\n"
        "replays it over a (policy x trigger) DTM grid with measured\n"
        "error bounds; sweep --exact runs the same grid cycle-exactly.\n"
        "th_run multicore --cores N runs one N-core stack (the mix in\n"
        "--benchmarks cycles over the cores); without --cores it runs\n"
        "the full neighbor-coupling study (N=1/2/4/8, herding off/on).\n");
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0')
        usage(strformat("%s expects a number, got '%s'", flag,
                        s.c_str()).c_str());
    return v;
}

double
parseF64(const std::string &s, const char *flag)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        usage(strformat("%s expects a number, got '%s'", flag,
                        s.c_str()).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(strformat("%s requires a value", flag).c_str());
            return argv[++i];
        };
        if (a == "--benchmarks")
            args.benchmarks = value("--benchmarks");
        else if (a == "--config") {
            args.config = value("--config");
            args.configGiven = true;
        } else if (a == "--store" || a == "--dir")
            args.dir = value(a.c_str());
        else if (a == "--insts")
            args.insts = parseU64(value("--insts"), "--insts");
        else if (a == "--warmup")
            args.warmup = parseU64(value("--warmup"), "--warmup");
        else if (a == "--records")
            args.records = parseU64(value("--records"), "--records");
        else if (a == "--max-bytes")
            args.maxBytes = parseU64(value("--max-bytes"), "--max-bytes");
        else if (a == "--policy")
            args.policy = value("--policy");
        else if (a == "--solver")
            args.solver = value("--solver");
        else if (a == "--trigger")
            args.trigger = parseF64(value("--trigger"), "--trigger");
        else if (a == "--intervals")
            args.intervals = parseU64(value("--intervals"), "--intervals");
        else if (a == "--interval-cycles")
            args.intervalCycles =
                parseU64(value("--interval-cycles"), "--interval-cycles");
        else if (a == "--dilation")
            args.dilation = parseF64(value("--dilation"), "--dilation");
        else if (a == "--grid")
            args.grid = parseU64(value("--grid"), "--grid");
        else if (a == "--cores")
            args.cores = parseU64(value("--cores"), "--cores");
        else if (a == "--banks")
            args.banks = parseU64(value("--banks"), "--banks");
        else if (a == "--fast")
            args.fast = true;
        else if (a == "--exact")
            args.exact = true;
        else if (a == "--dry-run")
            args.dryRun = true;
        else if (a == "--trigger-lo")
            args.triggerLo = parseF64(value("--trigger-lo"), "--trigger-lo");
        else if (a == "--trigger-hi")
            args.triggerHi = parseF64(value("--trigger-hi"), "--trigger-hi");
        else if (a == "--trigger-steps")
            args.triggerSteps =
                parseU64(value("--trigger-steps"), "--trigger-steps");
        else if (a == "--anchor-stride")
            args.anchorStride =
                parseU64(value("--anchor-stride"), "--anchor-stride");
        else if (a == "--fit-cycles")
            args.fitCycles = parseU64(value("--fit-cycles"), "--fit-cycles");
        else if (a == "--fit-interval")
            args.fitInterval =
                parseU64(value("--fit-interval"), "--fit-interval");
        else if (a == "--connect")
            args.connect = value("--connect");
        else if (a == "--deadline-ms")
            args.deadlineMs =
                parseU64(value("--deadline-ms"), "--deadline-ms");
        else if (a == "--version") {
            std::printf("%s\n", buildInfo());
            std::exit(0);
        } else if (a == "--help" || a == "-h")
            usage();
        else if (!a.empty() && a[0] == '-')
            usage(strformat("unknown flag '%s'", a.c_str()).c_str());
        else
            args.pos.push_back(a);
    }
    return args;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item = csv.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** --config as a ConfigKind; @p fallback when --config is absent. */
ConfigKind
configOf(const Args &args, ConfigKind fallback)
{
    ConfigKind kind = fallback;
    if (args.configGiven && !configKindByName(args.config, kind))
        usage(strformat("unknown config '%s' (Base, TH, Pipe, Fast, 3D, "
                        "3D-noTH)", args.config.c_str()).c_str());
    return kind;
}

/** @p v as a @p Field; exits 2 when it does not fit. */
template <typename Field>
Field
narrow(std::uint64_t v, const char *flag)
{
    const auto max =
        static_cast<std::uint64_t>(std::numeric_limits<Field>::max());
    if (v > max)
        usage(strformat("%s %llu out of range (max %llu)", flag,
                        static_cast<unsigned long long>(v),
                        static_cast<unsigned long long>(max))
                  .c_str());
    return static_cast<Field>(v);
}

/** Copy the DTM flags into @p req's DTM knobs (range-checked). */
void
setDtmKnobs(SimRequest &req, const Args &args)
{
    req.dtmPolicy = args.policy;
    req.dtmTriggerK = args.trigger;
    req.dtmIntervals = narrow<std::uint32_t>(args.intervals, "--intervals");
    req.dtmIntervalCycles = args.intervalCycles;
    req.dtmDilation = args.dilation;
    req.dtmGridN = narrow<std::uint32_t>(args.grid, "--grid");
    req.dtmSolver = args.solver;
}

/** The request kinds behind each request subcommand; sweep runs the
 *  three figures in turn. */
const std::map<std::string, std::vector<SimRequestKind>> &
requestKinds()
{
    using K = SimRequestKind;
    static const std::map<std::string, std::vector<K>> kinds = {
        {"fig8", {K::Fig8}},   {"fig9", {K::Fig9}},
        {"fig10", {K::Fig10}}, {"width", {K::Width}},
        {"sweep", {K::Fig8, K::Fig9, K::Fig10}},
        {"core", {K::Core}},   {"dtm", {K::Dtm}},
        {"multicore", {K::Multicore}},
        {"ping", {K::Ping}},   {"metrics", {K::Metrics}},
    };
    return kinds;
}

/**
 * The SimRequests of request subcommand @p cmd — the one builder
 * behind both local runs and --connect. Exits 2 when a flag value does
 * not fit its request field, or when a flag no request carries is
 * given.
 */
std::vector<SimRequest>
requestsOf(const std::string &cmd, const Args &args)
{
    if (args.fitCycles > 0 || args.fitInterval > 0)
        usage(strformat("--fit-cycles/--fit-interval apply to fit and "
                        "sweep --fast|--exact, not %s",
                        cmd.c_str()).c_str());
    SimRequest req;
    req.benchmarks = splitList(args.benchmarks);
    req.insts = args.insts;
    req.warmup = args.warmup;
    req.deadlineMs = narrow<std::uint32_t>(args.deadlineMs, "--deadline-ms");
    if (cmd == "core") {
        if (req.benchmarks.empty())
            req.benchmarks = {System::kPowerReferenceBenchmark};
        req.config = args.config;
    }
    if (cmd == "dtm" || cmd == "multicore")
        setDtmKnobs(req, args);
    if (cmd == "dtm")
        req.fastPath = args.fast ? 1 : 0;
    if (cmd == "multicore") {
        req.mcCores = narrow<std::uint32_t>(args.cores, "--cores");
        req.mcL2Banks = narrow<std::uint32_t>(args.banks, "--banks");
        if (args.configGiven)
            req.config = args.config;
    }
    std::vector<SimRequest> reqs;
    for (const SimRequestKind kind : requestKinds().at(cmd)) {
        req.kind = kind;
        reqs.push_back(req);
    }
    return reqs;
}

System
makeSystem(const Args &args)
{
    SimOptions opts;
    opts.instructions = args.insts ? args.insts : kDefaultInsts;
    opts.warmupInstructions = args.warmup ? args.warmup : kDefaultWarmup;
    opts.storeDir = args.dir; // Empty falls back to TH_STORE_DIR.
    return System(opts);
}

/** Validate @p req against @p sys's window; exits 2 when invalid. */
void
checkRequest(const SimRequest &req, const System &sys)
{
    std::string err;
    if (!validateRequest(req, sys.options(), err))
        usage(err.c_str());
}

/** Resolve the single --benchmarks entry of @p cmd (default mpeg2). */
std::string
singleBenchmark(const Args &args, const char *cmd)
{
    const std::vector<std::string> benchmarks =
        splitList(args.benchmarks);
    if (benchmarks.size() > 1)
        usage(strformat("%s takes a single --benchmarks entry",
                        cmd).c_str());
    const std::string benchmark =
        benchmarks.empty() ? System::kPowerReferenceBenchmark
                           : benchmarks[0];
    if (!hasBenchmark(benchmark))
        usage(strformat("unknown benchmark '%s'",
                        benchmark.c_str()).c_str());
    return benchmark;
}

IntervalOptions
intervalOptionsOf(const Args &args)
{
    IntervalOptions iopts;
    if (args.fitCycles > 0)
        iopts.fitCycles = args.fitCycles;
    if (args.fitInterval > 0)
        iopts.fitIntervalCycles = args.fitInterval;
    return iopts;
}

// -------------------------------------------------------------------
// Local paper studies that no SimRequest carries.
// -------------------------------------------------------------------

int
cmdTable2()
{
    // Circuit models only: no core runs, so no System.
    std::fputs(renderTable2(BlockLibrary{}).c_str(), stdout);
    return 0;
}

int
cmdAblation(const Args &args)
{
    System sys = makeSystem(args);
    std::fputs(renderAblation(runAblation(sys)).c_str(), stdout);
    std::fputs(renderCounters(sys).c_str(), stdout);
    return 0;
}

// -------------------------------------------------------------------
// Interval fast-path commands.
// -------------------------------------------------------------------

int
cmdFit(const Args &args)
{
    System sys = makeSystem(args);
    const std::string benchmark = singleBenchmark(args, "fit");
    // Family commands default to the naive 3D stack: the family that
    // actually trips DTM across the sweep.
    const ConfigKind kind = configOf(args, ConfigKind::ThreeDNoTH);
    const IntervalModel m =
        sys.runIntervalFit(benchmark, kind, intervalOptionsOf(args));
    std::printf("fitted %s on %s: %zu phases over %llu cycles "
                "(%llu instructions), family %016llx\n",
                benchmark.c_str(), configName(kind), m.phases.size(),
                (unsigned long long)m.totalCycles,
                (unsigned long long)m.totalInstructions,
                (unsigned long long)m.familyHash);
    std::fputs(renderCounters(sys).c_str(), stdout);
    return 0;
}

int
cmdFamilySweep(const Args &args)
{
    System sys = makeSystem(args);
    const std::string benchmark = singleBenchmark(args, "sweep");

    // The DTM flags map onto DtmOptions exactly as a dtm request's do.
    SimRequest knobs;
    knobs.kind = SimRequestKind::Dtm;
    setDtmKnobs(knobs, args);
    checkRequest(knobs, sys);

    FamilySweepOptions opts;
    opts.fast = !args.exact;
    opts.config = configOf(args, ConfigKind::ThreeDNoTH);
    opts.dtm = dtmOptionsFrom(knobs);
    // The family grid steps the transient solver hundreds of times;
    // default to a coarse thermal grid unless --grid asks otherwise
    // (applied to both modes so fast and exact stay comparable).
    if (args.grid == 0)
        opts.dtm.gridN = 8;
    if (args.triggerLo > 0.0)
        opts.triggerLoK = args.triggerLo;
    if (args.triggerHi > 0.0)
        opts.triggerHiK = args.triggerHi;
    if (args.triggerSteps > 0)
        opts.triggerSteps = narrow<int>(args.triggerSteps, "--trigger-steps");
    if (args.anchorStride > 0)
        opts.anchorStride = narrow<int>(args.anchorStride, "--anchor-stride");
    opts.interval = intervalOptionsOf(args);

    const auto t0 = std::chrono::steady_clock::now();
    const FamilySweepData data = runFamilySweep(sys, benchmark, opts);
    const auto t1 = std::chrono::steady_clock::now();
    std::fputs(renderFamilySweep(data, opts).c_str(), stdout);
    // Wall-clock lives here in the tools layer, outside the
    // deterministic renderers; CI's speedup assertion greps this line.
    std::printf("sweep wall ms: %lld\n",
                static_cast<long long>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        t1 - t0)
                        .count()));
    std::fputs(renderCounters(sys).c_str(), stdout);
    return 0;
}

// -------------------------------------------------------------------
// Trace commands.
// -------------------------------------------------------------------

int
cmdTraceRecord(const Args &args)
{
    if (args.pos.size() != 4)
        usage("trace record needs <benchmark> <out.thtrace>");
    const std::string &benchmark = args.pos[2];
    const std::string &path = args.pos[3];
    if (!hasBenchmark(benchmark))
        usage(strformat("unknown benchmark '%s'", benchmark.c_str())
                  .c_str());
    const BenchmarkProfile &profile = benchmarkByName(benchmark);

    // Record enough of the stream to drive a full simulation window:
    // the core fetches ahead of commit, so pad by the maximum possible
    // in-flight population plus redirect slack.
    const std::uint64_t records = args.records
        ? args.records
        : (args.insts ? args.insts : kDefaultInsts) +
              (args.warmup ? args.warmup : kDefaultWarmup) + 8192;

    SyntheticTrace trace(profile);
    std::string err;
    if (!recordTrace(path, trace, records, profile.name, profile.suite,
                     profile.seed, &err)) {
        std::fprintf(stderr, "th_run: %s\n", err.c_str());
        return 1;
    }
    TraceFileInfo info;
    if (!readTraceInfo(path, info, &err)) {
        std::fprintf(stderr, "th_run: wrote but cannot re-read: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("recorded %llu records of %s (seed 0x%llx) to %s\n",
                (unsigned long long)info.numRecords, benchmark.c_str(),
                (unsigned long long)info.seed, path.c_str());
    return 0;
}

int
cmdTraceInfo(const Args &args)
{
    if (args.pos.size() != 3)
        usage("trace info needs <file.thtrace>");
    TraceFileInfo info;
    std::string err;
    if (!readTraceInfo(args.pos[2], info, &err)) {
        std::fprintf(stderr, "th_run: %s\n", err.c_str());
        return 1;
    }
    std::printf("benchmark: %s\nsuite:     %s\nseed:      0x%llx\n"
                "records:   %llu\nprefill:   %llu lines\nschema:    "
                "v%u\n",
                info.benchmark.c_str(), info.suite.c_str(),
                (unsigned long long)info.seed,
                (unsigned long long)info.numRecords,
                (unsigned long long)info.numPrefillLines,
                info.schemaVersion);
    return 0;
}

int
cmdTraceRun(const Args &args)
{
    if (args.pos.size() != 3)
        usage("trace run needs <file.thtrace>");
    TraceFileReplay replay;
    std::string err;
    if (!replay.open(args.pos[2], &err)) {
        std::fprintf(stderr, "th_run: %s\n", err.c_str());
        return 1;
    }
    System sys = makeSystem(args);
    const CoreConfig cfg =
        makeConfig(configOf(args, ConfigKind::Base), sys.circuits());
    const CoreResult r = sys.runTrace(replay, cfg);
    std::fputs(renderCoreRun(replay.info().benchmark, args.config, r)
                   .c_str(),
               stdout);
    return 0;
}

// -------------------------------------------------------------------
// Request subcommands: one SimRequest builder, then either the
// in-process dispatcher or a th_serve server. Both answer through
// runRequest (sim/dispatch.h), so local and served reports are the
// same bytes; only the local counter footer differs.
// -------------------------------------------------------------------

bool
parseHostPort(const std::string &spec, std::string &host,
              std::uint16_t &port)
{
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size())
        return false;
    host = spec.substr(0, colon);
    const std::uint64_t p = parseU64(spec.substr(colon + 1), "--connect");
    if (p == 0 || p > 65535)
        return false;
    port = static_cast<std::uint16_t>(p);
    return true;
}

int
callServer(const std::vector<SimRequest> &reqs, const Args &args)
{
    std::string host;
    std::uint16_t port = 0;
    if (!parseHostPort(args.connect, host, port))
        usage("--connect expects host:port");

    SimClient client;
    std::string err;
    if (!client.connect(host, port, err)) {
        std::fprintf(stderr, "th_run: %s\n", err.c_str());
        return 1;
    }
    for (const SimRequest &req : reqs) {
        SimResponse rsp;
        if (!client.call(req, rsp, err)) {
            std::fprintf(stderr, "th_run: %s\n", err.c_str());
            return 1;
        }
        if (rsp.status != SimStatus::Ok) {
            std::fprintf(stderr, "th_run: server replied %s: %s\n",
                         simStatusName(rsp.status), rsp.error.c_str());
            return 1;
        }
        std::fputs(rsp.text.c_str(), stdout);
    }
    return 0;
}

int
cmdRequest(const std::string &cmd, const Args &args)
{
    const std::vector<SimRequest> reqs = requestsOf(cmd, args);
    if (!args.connect.empty())
        return callServer(reqs, args);
    if (cmd == "ping" || cmd == "metrics")
        usage(strformat("'%s' needs --connect host:port",
                        cmd.c_str()).c_str());
    System sys = makeSystem(args);
    for (const SimRequest &req : reqs)
        checkRequest(req, sys);
    for (const SimRequest &req : reqs)
        std::fputs(runRequest(sys, req).text.c_str(), stdout);
    std::fputs(renderCounters(sys).c_str(), stdout);
    return 0;
}

// -------------------------------------------------------------------
// Store commands.
// -------------------------------------------------------------------

std::string
storeDirOf(const Args &args)
{
    if (!args.dir.empty())
        return args.dir;
    const char *env = std::getenv("TH_STORE_DIR");
    if (env && *env)
        return env;
    usage("store commands need --dir or TH_STORE_DIR");
}

int
cmdStore(const Args &args)
{
    if (args.pos.size() < 2)
        usage("store needs a subcommand (ls, gc, verify)");
    const std::string &what = args.pos[1];
    StoreOptions opts;
    opts.dir = storeDirOf(args);
    opts.maxBytes = args.maxBytes;
    ArtifactStore store(opts);

    if (what == "ls") {
        Table t({"Benchmark", "Config hash", "Format", "Bytes", "State"});
        std::uint64_t total = 0;
        std::size_t entries = 0;
        std::map<std::string, int> kinds; // Sorted: stable output.
        for (const auto &e : store.list()) {
            t.addRow({e.benchmark.empty() ? "?" : e.benchmark,
                      e.quarantined
                          ? "-"
                          : strformat("%016llx",
                                      (unsigned long long)e.cfgHash),
                      e.format.empty() ? "?" : e.format,
                      std::to_string(e.bytes),
                      e.quarantined ? "quarantined" : "ok"});
            ++kinds[e.format.empty() ? "?" : e.format];
            total += e.bytes;
            ++entries;
        }
        t.print(std::cout);
        std::string by_kind;
        for (const auto &[kind, n] : kinds)
            by_kind += strformat("%s%s %d", by_kind.empty() ? "" : ", ",
                                 kind.c_str(), n);
        if (!by_kind.empty())
            std::printf("formats: %s\n", by_kind.c_str());
        std::printf("%zu entries, %llu bytes in %s\n", entries,
                    (unsigned long long)total, opts.dir.c_str());
        return 0;
    }
    if (what == "gc") {
        if (args.dryRun) {
            const auto plan = store.gcPlan(args.maxBytes);
            std::uint64_t bytes = 0;
            for (const auto &e : plan) {
                std::printf("would evict %s (%s, %llu bytes, %s)\n",
                            e.path.c_str(),
                            e.format.empty() ? "?" : e.format.c_str(),
                            (unsigned long long)e.bytes,
                            e.quarantined ? "quarantined" : "ok");
                bytes += e.bytes;
            }
            std::printf("gc --dry-run: would remove %zu files, %llu "
                        "bytes (cap %llu bytes)\n",
                        plan.size(), (unsigned long long)bytes,
                        (unsigned long long)args.maxBytes);
            return 0;
        }
        const int removed = store.gc(args.maxBytes);
        std::printf("gc: removed %d files (cap %llu bytes)\n", removed,
                    (unsigned long long)args.maxBytes);
        return 0;
    }
    if (what == "verify") {
        const int bad = store.verify();
        std::printf("verify: %d invalid entr%s\n", bad,
                    bad == 1 ? "y" : "ies");
        return bad == 0 ? 0 : 1;
    }
    usage(strformat("unknown store subcommand '%s'", what.c_str())
              .c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.pos.empty())
        usage();
    const std::string &cmd = args.pos[0];

    if (cmd == "sweep" && (args.fast || args.exact)) {
        if (args.fast && args.exact)
            usage("sweep takes --fast or --exact, not both");
        if (!args.connect.empty())
            usage("sweep --fast|--exact cannot run against a server");
        return cmdFamilySweep(args);
    }
    if (requestKinds().count(cmd) != 0)
        return cmdRequest(cmd, args);
    if (!args.connect.empty())
        usage(strformat("command '%s' cannot run against a server",
                        cmd.c_str()).c_str());
    if (cmd == "fit")
        return cmdFit(args);
    if (cmd == "table2")
        return cmdTable2();
    if (cmd == "ablation")
        return cmdAblation(args);
    if (cmd == "trace") {
        if (args.pos.size() < 2)
            usage("trace needs a subcommand (record, info, run)");
        const std::string &what = args.pos[1];
        if (what == "record")
            return cmdTraceRecord(args);
        if (what == "info")
            return cmdTraceInfo(args);
        if (what == "run")
            return cmdTraceRun(args);
        usage(strformat("unknown trace subcommand '%s'",
                        what.c_str()).c_str());
    }
    if (cmd == "store")
        return cmdStore(args);
    usage(strformat("unknown command '%s'", cmd.c_str()).c_str());
}
