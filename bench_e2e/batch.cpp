/**
 * @file
 * The batch workloads: figs_cold, figs_warm and dtm_exact. Each
 * operation is one user-visible job (what one th_run invocation does)
 * on one input, on a System built for it. A workload has a fixed set of
 * inputs; the seed draws their order. A run goes through the inputs in
 * rounds, after one untimed warm-up operation, until the measured window
 * ends, and reports each input's fastest operation (RunResult::bestMs).
 * Untraced operations call the public harnesses exactly as th_run does.
 * Traced operations issue the same layer calls themselves, with spans
 * around each, and must render the byte-identical report, checked
 * against an untraced reference operation on the same input.
 *
 * Jobs are the th_run jobs at reduced sizes (simulation window, control
 * intervals) so that one takes a fraction of a second on one thread and
 * every input repeats many times in a run. The sizes are the constants
 * below; README.md lists them.
 */

#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "decorators.h"
#include "io/serialize.h"
#include "sim/configs.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "sim/system.h"
#include "store/artifact_store.h"
#include "trace/suites.h"
#include "workloads.h"

extern char **environ;

namespace bench {

namespace {

using namespace th;
namespace fs = std::filesystem;

// Every batch System's simulation window: the figs core runs and the
// power calibration of every job.
constexpr std::uint64_t kInsts = 20000;
constexpr std::uint64_t kWarmup = 10000;

// figs_*: Fig 8 + Fig 9 for one benchmark. The paper's anchors: crafty
// and mcf (max and min SPECint speedup), mpeg2enc (max power) and
// yacr2 (min herding saving).
const std::vector<std::string> kFigsBenchmarks = {"crafty", "mcf",
                                                  "mpeg2enc", "yacr2"};

// dtm_exact: runDtmStudy with default DtmOptions but 1 control interval
// of kDtmIntervalCycles instead of 40 of 50K, on the power reference
// and a DRAM-bound benchmark.
constexpr int kDtmIntervals = 1;
const std::vector<std::string> kDtmBenchmarks = {"mpeg2enc", "mcf"};

/**
 * Set-up samples per untraced run; their median is setup_s. They are
 * taken between operations, spread over the window, so that the median
 * spans the host's speed over the whole run as the operations do: 7
 * samples taken back to back before the window read 23-40% apart (IQR /
 * median over 10 runs), while the serve workload's, one per round, read
 * 7% apart.
 */
constexpr int kSetupSamples = 30;
/** Rounds a run completes at least, whatever its window. */
constexpr int kMinRounds = 3;
/**
 * Operations a traced run records spans for; the rest of its window
 * runs untraced operations, which still count in the op.* metrics.
 * figs_warm's 0.1-ms operations would otherwise keep 2M spans in memory
 * and write a 225-MB span file.
 */
constexpr int kMaxTracedOps = 1000;

/** Salts so each workload draws an independent stream from one seed. */
enum Salt : std::uint64_t {
    kSaltFigs = 1,
    kSaltDtm = 2,
};

Rng
seededRng(std::uint64_t seed, Salt salt)
{
    return Rng(seed * 0x9e3779b97f4a7c15ULL + salt);
}

/** @p items in a seed-drawn order. */
template <typename T>
std::vector<T>
shuffled(std::vector<T> items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.range(i)]);
    return items;
}

bool
expect(bool ok, const std::string &what)
{
    if (!ok)
        std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
    return ok;
}

/** Total bytes of the regular files under @p dir. */
double
dirBytes(const std::string &dir)
{
    std::error_code ec;
    double total = 0.0;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += static_cast<double>(it->file_size(ec));
    }
    return total;
}

void
addStoreCounters(Counters &c, const StoreStats &s)
{
    c.add("store.hits", static_cast<double>(s.hits));
    c.add("store.misses", static_cast<double>(s.misses));
    c.add("store.stores", static_cast<double>(s.stores));
}

/**
 * Encode @p v, decode the bytes, and check the decoded value encodes to
 * the same bytes — the codec round trip of one persisted artifact,
 * timed as io.encode / io.decode.
 */
template <typename T>
bool
codecRoundTrip(const T &v, std::vector<std::uint8_t> (*serialize)(const T &),
               bool (*decode)(Decoder &, T &), Tracer &tr, int parent,
               Counters &c)
{
    std::vector<std::uint8_t> bytes;
    {
        ScopedSpan span(tr, "io.encode", parent);
        bytes = serialize(v);
    }
    T back;
    bool ok = false;
    {
        ScopedSpan span(tr, "io.decode", parent);
        Decoder dec(bytes);
        ok = decode(dec, back);
    }
    c.add("io.bytes", static_cast<double>(bytes.size()));
    return expect(ok && serialize(back) == bytes, "codec round trip");
}

// ---------------------------------------------------------------- figs

/** Fig 8 + Fig 9 of @p bench, what th_run fig8 and fig9 print. */
std::string
figsJob(System &sys, const std::string &bench)
{
    return renderFig8(runFigure8(sys, {bench})) +
        renderFig9(runFigure9(sys, {bench}));
}

/** Every (benchmark, config) core run the job requests. */
std::vector<std::pair<std::string, ConfigKind>>
figsPairs(const std::string &bench)
{
    std::vector<std::pair<std::string, ConfigKind>> out;
    std::set<std::pair<std::string, int>> seen;
    auto add = [&](const std::string &b, ConfigKind k) {
        if (seen.emplace(b, static_cast<int>(k)).second)
            out.emplace_back(b, k);
    };
    for (ConfigKind k : figure8Configs())
        add(bench, k);
    // Fig 9's breakdowns of the power reference.
    for (ConfigKind k : {ConfigKind::Base, ConfigKind::ThreeDNoTH,
                         ConfigKind::ThreeD})
        add(System::kPowerReferenceBenchmark, k);
    return out;
}

/**
 * Traced figs job. Cold: every core run goes through Core::run with a
 * chunk-timed trace and is persisted with ArtifactStore::storeCoreResult
 * into the op's store, so the harness then finds each one there. Warm:
 * every result is loaded from the store first. Both round-trip each
 * result through its codec, then run Fig 8 and Fig 9 through their
 * harnesses.
 */
std::string
tracedFigs(System &sys, const std::string &bench, bool warm,
           const std::string &store_dir, Tracer &tr, Counters &c)
{
    const SimOptions &so = sys.options();
    StoreOptions sopts;
    sopts.dir = store_dir;
    sopts.maxBytes = so.storeMaxBytes;
    ArtifactStore store(sopts);
    const auto pairs = figsPairs(bench);
    const int root = currentSpan();
    std::vector<char> ok(pairs.size(), 1);

    ThreadPool::global().parallelFor(pairs.size(), [&](std::size_t i) {
        const std::string &name = pairs[i].first;
        const CoreConfig cfg = makeConfig(pairs[i].second, sys.circuits());
        const std::uint64_t hash = configHash(cfg);
        CoreResult r;
        if (!warm) {
            ScopedSpan span(tr, "core.run", root);
            SyntheticTrace trace(benchmarkByName(name));
            ChunkTimedTrace timed(trace, tr);
            Core core(cfg);
            r = core.run(timed, so.instructions, so.warmupInstructions);
            c.add("trace.records", static_cast<double>(timed.records()));
            c.add("core.minst",
                  static_cast<double>(core.totalCommitted()) * 1e-6);
            c.add("core.mcycles",
                  static_cast<double>(r.perf.cycles.value()) * 1e-6);
        } else {
            ScopedSpan span(tr, "store.load", root);
            ok[i] = store.loadCoreResult(name, hash, r);
        }
        ok[i] = ok[i] &&
            codecRoundTrip(r, &serializeCoreResult, &decodeCoreResult, tr,
                           root, c);
        if (!warm) {
            ScopedSpan span(tr, "store.store", root);
            ok[i] = ok[i] && store.storeCoreResult(name, hash, r);
        }
    });
    const bool all_ok =
        std::all_of(ok.begin(), ok.end(), [](char v) { return v != 0; });

    Fig8Data f8;
    Fig9Data f9;
    {
        ScopedSpan span(tr, "sim.fig8");
        f8 = runFigure8(sys, {bench});
    }
    {
        ScopedSpan span(tr, "sim.fig9");
        f9 = runFigure9(sys, {bench});
    }
    std::string body;
    {
        ScopedSpan span(tr, "sim.render");
        body = renderFig8(f8) + renderFig9(f9);
    }

    const System::CacheStats cache = sys.coreCacheStats();
    c.add("core.cache_hits", static_cast<double>(cache.hits));
    c.add("core.cache_misses", static_cast<double>(cache.misses));
    addStoreCounters(c, store.stats());
    addStoreCounters(c, sys.storeStats());
    // The warm store never changes; its size is taken once, when primed.
    if (!warm)
        c.add("store.bytes", dirBytes(store_dir));
    // A failed load, store or round trip poisons the digest so the
    // caller's comparison reports it.
    return all_ok ? body : body + "\n<traced figs layer failure>";
}

// ----------------------------------------------------------------- dtm

DtmOptions
dtmOptions()
{
    DtmOptions o;
    o.maxIntervals = kDtmIntervals;
    o.intervalCycles = kDtmIntervalCycles;
    return o;
}

std::string
dtmJob(System &sys, const std::string &bench)
{
    const DtmOptions opts = dtmOptions();
    return renderDtm(runDtmStudy(sys, bench, opts), opts);
}

/**
 * Traced DTM study: each configuration's closed loop is driven through
 * DtmEngine::run(IntervalSource&, ...) over a TimedCoreSource, built
 * exactly as DtmEngine::run(profile, ...) builds its source.
 */
std::string
tracedDtm(System &sys, const std::string &bench, Tracer &tr, Counters &c)
{
    const DtmOptions opts = dtmOptions();
    const int parent = currentSpan();
    const DtmEngine engine(sys.power(), sys.hotspot(),
                           sys.planarFloorplan(), sys.stackedFloorplan());
    const ConfigKind kinds[] = {ConfigKind::Base, ConfigKind::ThreeDNoTH,
                                ConfigKind::ThreeD};
    DtmStudyData data;
    data.benchmark = bench;
    data.cases = ThreadPool::global().parallelMap(3, [&](std::size_t i) {
        DtmCase dc;
        dc.config = kinds[i];
        const CoreConfig cfg = makeConfig(kinds[i], sys.circuits());
        ScopedSpan span(tr, "dtm.run", parent);
        SyntheticTrace trace(benchmarkByName(bench));
        ChunkTimedTrace timed(trace, tr);
        Core core(cfg);
        {
            ScopedSpan warm(tr, "dtm.core");
            core.beginRun(timed, opts.warmupInstructions);
        }
        TimedCoreSource src(core, tr);
        dc.report =
            engine.run(src, bench, cfg, configName(kinds[i]), opts);
        c.add("trace.records", static_cast<double>(timed.records()));
        c.add("core.minst",
              static_cast<double>(core.totalCommitted()) * 1e-6);
        double cycles = 0.0;
        for (const DtmIntervalSample &s : dc.report.intervals)
            cycles += static_cast<double>(s.cycles);
        c.add("core.mcycles", cycles * 1e-6);
        c.add("dtm.intervals",
              static_cast<double>(dc.report.intervals.size()));
        return dc;
    });
    bool ok = true;
    for (const DtmCase &dc : data.cases)
        ok = codecRoundTrip(dc.report, &serializeDtmReport,
                            &decodeDtmReport, tr, parent, c) && ok;
    ScopedSpan span(tr, "sim.render");
    const std::string body = renderDtm(data, opts);
    return ok ? body : body + "\n<traced dtm layer failure>";
}

// ------------------------------------------------------ the operations

/** One batch workload: its inputs, per-op System options, job and
 *  checks. */
struct BatchSpec
{
    int inputs = 1;
    SimOptions sim;
    /** Store placement: none, a fresh one per op, or one shared store
     *  primed before the window (figs_warm). */
    enum class Store { None, PerOp, Shared } store = Store::None;
    std::function<std::string(System &, int)> job;
    std::function<std::string(System &, int, const std::string &)> traced;
    /** Post-job checks on the op's System (store/cache counters). */
    std::function<bool(System &)> check = [](System &) { return true; };
    /**
     * Shared store only: fill the store at the given directory and
     * return, per input, the report every op on it must render (the
     * same job's report from an empty store).
     */
    std::function<std::vector<std::string>(const std::string &)> prime;
};

/**
 * figs_warm's priming: one System on the shared store runs each input's
 * job, simulating and storing every core run the warm jobs read; its
 * reports are the figs_cold job's reports for those inputs.
 */
std::vector<std::string>
primeFigsStore(const SimOptions &sim, const std::vector<std::string> &inputs,
               const std::string &dir)
{
    SimOptions so = sim;
    so.storeDir = dir;
    System sys(so);
    std::vector<std::string> refs;
    for (const std::string &b : inputs)
        refs.push_back(figsJob(sys, b));
    return refs;
}

BatchSpec
makeSpec(const RunOptions &opts, Tracer &tr, RunResult &out)
{
    BatchSpec s;
    s.sim.instructions = kInsts;
    s.sim.warmupInstructions = kWarmup;
    Counters &c = out.counters;
    Counters &probes = out.probes;
    const std::string &w = opts.workload;
    if (w == "figs_cold" || w == "figs_warm") {
        const bool warm = w == "figs_warm";
        Rng rng = seededRng(opts.seed, kSaltFigs);
        auto order = std::make_shared<std::vector<std::string>>(
            shuffled(kFigsBenchmarks, rng));
        s.inputs = static_cast<int>(order->size());
        s.store = warm ? BatchSpec::Store::Shared : BatchSpec::Store::PerOp;
        s.job = [order](System &sys, int i) {
            return figsJob(sys, (*order)[static_cast<std::size_t>(i)]);
        };
        s.traced = [order, warm, &tr, &c](System &sys, int i,
                                          const std::string &dir) {
            return tracedFigs(sys, (*order)[static_cast<std::size_t>(i)],
                              warm, dir, tr, c);
        };
        if (warm) {
            const SimOptions sim = s.sim;
            s.prime = [order, sim, &probes](const std::string &dir) {
                auto refs = primeFigsStore(sim, *order, dir);
                probes.set("store.bytes", dirBytes(dir));
                return refs;
            };
            s.check = [](System &sys) {
                const StoreStats st = sys.storeStats();
                return expect(st.hits > 0 && st.misses == 0 &&
                                  st.stores == 0,
                              "warm figs job ran zero simulations");
            };
        } else {
            s.check = [](System &sys) {
                const StoreStats st = sys.storeStats();
                return expect(st.hits == 0 && st.stores > 0 &&
                                  st.stores == st.misses,
                              "cold figs job simulated and stored every "
                              "core run");
            };
        }
    } else {
        Rng rng = seededRng(opts.seed, kSaltDtm);
        auto order = std::make_shared<std::vector<std::string>>(
            shuffled(kDtmBenchmarks, rng));
        s.inputs = static_cast<int>(order->size());
        s.job = [order](System &sys, int i) {
            return dtmJob(sys, (*order)[static_cast<std::size_t>(i)]);
        };
        s.traced = [order, &tr, &c](System &sys, int i, const std::string &) {
            return tracedDtm(sys, (*order)[static_cast<std::size_t>(i)], tr,
                             c);
        };
    }
    return s;
}

/** A System built and calibrated for one op. */
std::unique_ptr<System>
setUp(const SimOptions &so, Tracer &tr)
{
    std::unique_ptr<System> sys;
    {
        ScopedSpan span(tr, "sim.system");
        sys = std::make_unique<System>(so);
    }
    {
        ScopedSpan span(tr, "sim.calibrate");
        sys->power();
    }
    return sys;
}

/**
 * One set-up sample: spawn this binary in set-up-probe mode (process
 * start, static initialisation, System built, power calibrated) and
 * time it until it exits.
 */
bool
timeSetupProcess(const RunOptions &opts, const std::string &store_dir,
                 double &seconds)
{
    const std::string self = "/proc/self/exe";
    std::vector<std::string> args = {self, "--setup-probe", "--workload",
                                     opts.workload, "--store-dir",
                                     store_dir};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const Clock::time_point t0 = Clock::now();
    pid_t pid = -1;
    if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0)
        return false;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        return false;
    seconds = secondsSince(t0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Runs a batch workload's operations: one untimed warm-up op on the
 * first input, then rounds over every input, each op a separate job on
 * its own System (as separate th_run invocations would run it). Every
 * op on an input must render the same report as the first one on it.
 */
class OpRunner
{
  public:
    OpRunner(const RunOptions &opts, const BatchSpec &spec, Tracer &tr,
             RunResult &out)
        : opts_(opts), spec_(spec), tr_(tr), out_(out)
    {
        if (spec_.store == BatchSpec::Store::Shared) {
            shared_ = opts_.workDir + "/shared-store";
            refs_ = spec_.prime(shared_);
        }
    }

    void run()
    {
        untracedOp("warmup", 0, false);
        const Clock::time_point w0 = Clock::now();
        // Untraced runs: one set-up sample before an op whenever a
        // kSetupSamples-th of the window has passed since the last.
        const double setup_gap = opts_.seconds / kSetupSamples;
        int setups = 0;
        // Whole rounds only, at least kMinRounds, stopping at the round
        // whose end lies nearest the window's.
        for (int round = 0;; ++round) {
            const Clock::time_point r0 = Clock::now();
            for (int input = 0; input < spec_.inputs; ++input) {
                if (!opts_.traced && secondsSince(w0) >= setups * setup_gap)
                    sampleSetup(setups++);
                const std::string tag =
                    std::to_string(round) + "-" + std::to_string(input);
                if (opts_.traced && out_.tracedOps < kMaxTracedOps)
                    tracedOp(tag, input);
                else
                    untracedOp(tag, input, true);
                if (round == 0)
                    head_ += last_body_;
            }
            if (round == 0)
                checkDigest();
            if (round + 1 >= kMinRounds &&
                secondsSince(w0) + 0.5 * secondsSince(r0) >= opts_.seconds)
                break;
        }
        out_.windowS = secondsSince(w0);
        while (!opts_.traced && setups < kSetupSamples)
            sampleSetup(setups++);
    }

  private:
    /** One set-up sample, a fresh process (see timeSetupProcess). */
    void sampleSetup(int k)
    {
        const std::string dir = opDir("setup-" + std::to_string(k));
        double s = 0.0;
        if (out_.check(timeSetupProcess(opts_, dir, s),
                       "set-up probe process"))
            out_.setupS.push_back(s);
        removeOpDir(dir);
    }

    std::string opDir(const std::string &tag) const
    {
        switch (spec_.store) {
        case BatchSpec::Store::None:
            return "";
        case BatchSpec::Store::Shared:
            return shared_;
        case BatchSpec::Store::PerOp:
            break;
        }
        return opts_.workDir + "/op-" + tag;
    }

    void removeOpDir(const std::string &dir) const
    {
        if (spec_.store == BatchSpec::Store::PerOp) {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    }

    /** One untraced op on @p input; returns its job milliseconds
     *  (set-up of its System excluded). */
    double runUntraced(const std::string &tag, int input, std::string &body,
                       bool &ok)
    {
        const std::string dir = opDir(tag);
        SimOptions so = spec_.sim;
        so.storeDir = dir;
        Tracer off(false);
        auto sys = setUp(so, off);
        const Clock::time_point t0 = Clock::now();
        body = spec_.job(*sys, input);
        const double ms = secondsSince(t0) * 1e3;
        ok = spec_.check(*sys);
        sys.reset();
        removeOpDir(dir);
        return ms;
    }

    /**
     * The first report on each input is the one every later op on it
     * must reproduce; on a primed store it must equal the cold job's
     * report.
     */
    bool checkBody(int input, const std::string &body)
    {
        last_body_ = body;
        const std::string digest = hex64(fnv1a(body));
        bool ok = true;
        if (!refs_.empty())
            ok = expect(body == refs_[static_cast<std::size_t>(input)],
                        "warm report differs from the cold job's");
        const auto [it, fresh] = seen_.emplace(input, digest);
        return expect(fresh || it->second == digest,
                      "report digest " + digest + " != the first op's on "
                      "input " + std::to_string(input) + " (" +
                          it->second + ")") && ok;
    }

    /** The first round's reports make the run's digest, golden-checked
     *  at seed 1. */
    void checkDigest()
    {
        out_.digest = hex64(fnv1a(head_));
        if (!opts_.goldenDigest.empty())
            out_.check(out_.digest == opts_.goldenDigest,
                       "report digest " + out_.digest + " != golden " +
                           opts_.goldenDigest);
    }

    void untracedOp(const std::string &tag, int input, bool timed)
    {
        std::string body;
        bool ok = false;
        const double ms = runUntraced(tag, input, body, ok);
        ok = checkBody(input, body) && ok;
        out_.check(ok, "op " + tag);
        if (timed)
            out_.addOp(static_cast<std::size_t>(input), ms);
    }

    void tracedOp(const std::string &tag, int input)
    {
        // Untraced reference op on the same input: the report the traced
        // op must reproduce, and the wall its overhead is taken against.
        std::string ref_body;
        bool ok = false;
        const double ref_ms = runUntraced(tag + "-ref", input, ref_body, ok);
        ok = checkBody(input, ref_body) && ok;

        const std::string dir = opDir(tag + "-traced");
        std::unique_ptr<System> sys;
        {
            ScopedSpan span(tr_, "setup");
            SimOptions so = spec_.sim;
            so.storeDir = dir;
            sys = setUp(so, tr_);
        }
        std::string body;
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(tr_, "op");
            body = spec_.traced(*sys, input, dir);
        }
        const double ms = secondsSince(t0) * 1e3;
        sys.reset();
        removeOpDir(dir);
        ok = expect(body == ref_body,
                    "traced report differs from the untraced one") && ok;
        out_.check(ok, "traced op " + tag);
        ++out_.tracedOps;
        out_.tracedOpMs.push_back(ms);
        out_.untracedRefMs.push_back(ref_ms);
        out_.addOp(static_cast<std::size_t>(input), ref_ms);
    }

    const RunOptions &opts_;
    const BatchSpec &spec_;
    Tracer &tr_;
    RunResult &out_;
    std::string shared_;
    /** Per input: the report a warm op must render. */
    std::vector<std::string> refs_;
    /** Per input: the digest of the first op on it. */
    std::map<int, std::string> seen_;
    /** The last op's report, and the first round's reports. */
    std::string last_body_;
    std::string head_;
};

} // namespace

void
runBatch(const RunOptions &opts, Tracer &tracer, RunResult &out)
{
    const BatchSpec spec = makeSpec(opts, tracer, out);
    OpRunner runner(opts, spec, tracer, out);
    runner.run();
    out.peakRssMb = peakRssMb(0);
    if (opts.traced)
        runThermalProbes(opts.workload, out.probes);
}

int
runSetupProbe(const RunOptions &opts, const std::string &store_dir)
{
    Tracer off(false);
    RunResult unused;
    SimOptions so = makeSpec(opts, off, unused).sim;
    so.storeDir = store_dir;
    System sys(so);
    sys.power();
    return 0;
}

} // namespace bench
