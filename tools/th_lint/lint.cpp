/**
 * @file
 * The original three token-level checks (field coverage, determinism,
 * mutex-annotation completeness) plus the entry points that sequence
 * every pass. The tokenizer and source model live in tokenizer.cpp,
 * the call-graph builder in callgraph.cpp, and the call-graph-aware
 * passes in blocking.cpp / lockorder.cpp / schema.cpp.
 */

#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "callgraph.h"
#include "internal.h"

namespace fs = std::filesystem;

namespace th_lint {

// --------------------------------------------------------------------
// Check 1: hash / serializer field coverage
// --------------------------------------------------------------------

const std::vector<CoverageRule> &
coverageRules()
{
    // NOTE: paths are repo-root-relative. When a struct or function
    // moves, update this table — in normal mode a stale entry is a
    // diagnostic, never a silently skipped check.
    static const std::vector<CoverageRule> rules = {
        {"CoreConfig", "src/core/params.h",
         {{"configHash", "src/sim/configs.cpp"}},
         "hash-coverage"},
        {"DtmOptions", "src/dtm/engine.h",
         {{"dtmConfigHash", "src/sim/configs.cpp"}},
         "hash-coverage"},
        {"DtmTriggers", "src/dtm/policy.h",
         {{"dtmConfigHash", "src/sim/configs.cpp"}},
         "hash-coverage"},
        // The stats codec, the interval counter zip and the --stats
        // dump all walk these two lists.
        {"PerfStats", "src/core/activity.h",
         {{"forEachPerfStat", "src/core/activity.h"}},
         "serializer-coverage"},
        {"ActivityStats", "src/core/activity.h",
         {{"forEachActivityStat", "src/core/activity.h"}},
         "serializer-coverage"},
        {"CoreResult", "src/core/pipeline.h",
         {{"encodeCoreResult", "src/io/serialize.cpp"},
          {"decodeCoreResult", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"DtmReport", "src/dtm/engine.h",
         {{"encodeDtmReport", "src/io/serialize.cpp"},
          {"decodeDtmReport", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"DtmIntervalSample", "src/dtm/engine.h",
         {{"encodeDtmReport", "src/io/serialize.cpp"},
          {"decodeDtmReport", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"IntervalOptions", "src/interval/model.h",
         {{"intervalModelKey", "src/sim/configs.cpp"}},
         "hash-coverage"},
        {"IntervalModel", "src/interval/model.h",
         {{"encodeIntervalModel", "src/io/serialize.cpp"},
          {"decodeIntervalModel", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"IntervalPhase", "src/interval/model.h",
         {{"encodeIntervalModel", "src/io/serialize.cpp"},
          {"decodeIntervalModel", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"IntervalTick", "src/interval/model.h",
         {{"encodeIntervalModel", "src/io/serialize.cpp"},
          {"decodeIntervalModel", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"IntervalThrottlePoint", "src/interval/model.h",
         {{"encodeThrottleTable", "src/io/serialize.cpp"},
          {"decodeThrottleTable", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"IntervalThrottleBin", "src/interval/model.h",
         {{"encodeIntervalModel", "src/io/serialize.cpp"},
          {"decodeIntervalModel", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"MulticoreConfig", "src/multicore/multicore.h",
         {{"multicoreConfigHash", "src/sim/configs.cpp"}},
         "hash-coverage"},
        {"MulticoreReport", "src/multicore/multicore.h",
         {{"encodeMulticoreReport", "src/io/serialize.cpp"},
          {"decodeMulticoreReport", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"MulticoreCoreStats", "src/multicore/multicore.h",
         {{"encodeMulticoreReport", "src/io/serialize.cpp"},
          {"decodeMulticoreReport", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"MulticoreBankStats", "src/multicore/multicore.h",
         {{"encodeMulticoreReport", "src/io/serialize.cpp"},
          {"decodeMulticoreReport", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"SimRequest", "src/io/request.h",
         {{"encodeSimRequest", "src/io/serialize.cpp"},
          {"decodeSimRequest", "src/io/serialize.cpp"}},
         "serializer-coverage"},
        {"SimResponse", "src/io/request.h",
         {{"encodeSimResponse", "src/io/serialize.cpp"},
          {"decodeSimResponse", "src/io/serialize.cpp"}},
         "serializer-coverage"},
    };
    return rules;
}

namespace {

void
checkCoverage(FileSet &files, const Options &opts,
              std::vector<Diagnostic> &diags)
{
    for (const CoverageRule &rule : coverageRules()) {
        const SourceFile &sf = files.get(rule.structFile);
        if (!sf.loaded) {
            if (!opts.fixtureMode)
                diags.push_back(
                    {rule.structFile, 0, rule.check,
                     std::string("cannot read '") + rule.structFile +
                         "' for struct " + rule.structName +
                         " — update the rule table in "
                         "tools/th_lint/lint.cpp if it moved"});
            continue;
        }
        std::vector<Field> fields;
        if (!parseStructFields(sf, rule.structName, fields)) {
            if (!opts.fixtureMode)
                diags.push_back(
                    {rule.structFile, 0, rule.check,
                     std::string("struct ") + rule.structName +
                         " not found — update the rule table in "
                         "tools/th_lint/lint.cpp if it moved"});
            continue;
        }
        for (const FnRef &fn : rule.fns) {
            const SourceFile &ff = files.get(fn.file);
            std::set<std::string> idents;
            if (!ff.loaded || !functionBodyIdents(ff, fn.name, idents)) {
                diags.push_back(
                    {fn.file, 0, rule.check,
                     std::string("definition of ") + fn.name +
                         "() not found; " + rule.structName +
                         " coverage cannot be verified"});
                continue;
            }
            for (const Field &f : fields) {
                if (f.excluded || idents.count(f.name))
                    continue;
                diags.push_back(
                    {rule.structFile, f.line, rule.check,
                     std::string(fn.name) + "() (" + fn.file +
                         ") does not reference " + rule.structName +
                         " field '" + f.name +
                         "' — fold/serialize it or mark the field "
                         "// th_lint: excluded(<reason>)"});
            }
        }
    }
}

// --------------------------------------------------------------------
// Check 2: determinism in result-producing directories
// --------------------------------------------------------------------

const char *const kResultDirs[] = {"src/core",     "src/thermal",
                                   "src/power",    "src/dtm",
                                   "src/interval", "src/multicore",
                                   "src/sim"};

bool
isBannedRandomIdent(const std::string &t)
{
    static const std::set<std::string> banned = {
        "rand",          "srand",        "drand48",
        "lrand48",       "mrand48",      "random_device",
        "mt19937",       "mt19937_64",   "minstd_rand",
        "minstd_rand0",  "ranlux24",     "ranlux48",
        "default_random_engine",         "random_shuffle",
    };
    return banned.count(t) != 0;
}

void
checkDeterminism(FileSet &files, const Options &opts,
                 std::vector<Diagnostic> &diags)
{
    for (const char *dir : kResultDirs) {
        const auto sources = sourcesUnder(files.root(), dir);
        if (sources.empty()) {
            if (!opts.fixtureMode)
                diags.push_back(
                    {dir, 0, "determinism",
                     "result-producing directory has no sources — "
                     "update tools/th_lint/lint.cpp if it moved"});
            continue;
        }
        for (const std::string &rel : sources) {
            const SourceFile &sf = files.get(rel);
            const auto &toks = sf.tokens;
            for (std::size_t i = 0; i < toks.size(); ++i) {
                const Token &t = toks[i];
                if (t.kind != Tok::Ident || isExcluded(sf, t.line))
                    continue;
                if (isBannedRandomIdent(t.text)) {
                    diags.push_back(
                        {rel, t.line, "determinism",
                         "non-deterministic randomness '" + t.text +
                             "' in a result-producing directory; use "
                             "th::Rng (common/rng.h)"});
                } else if ((t.text == "time" || t.text == "clock") &&
                           i + 1 < toks.size() &&
                           toks[i + 1].text == "(" &&
                           (i == 0 || (toks[i - 1].text != "." &&
                                       toks[i - 1].text != "->"))) {
                    diags.push_back(
                        {rel, t.line, "determinism",
                         "wall-clock call '" + t.text +
                             "()' in a result-producing directory"});
                } else if (t.text == "unordered_map" ||
                           t.text == "unordered_set") {
                    diags.push_back(
                        {rel, t.line, "determinism",
                         "std::" + t.text +
                             " in a result-producing directory: "
                             "iteration order is unspecified; use an "
                             "ordered container or mark the "
                             "declaration // th_lint: "
                             "excluded(<reason>) if it is lookup-only"});
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Check 3: mutex annotation completeness
// --------------------------------------------------------------------

bool
isAnnotationMacro(const std::string &t)
{
    static const std::set<std::string> macros = {
        "TH_GUARDED_BY", "TH_PT_GUARDED_BY", "TH_REQUIRES",
        "TH_ACQUIRE",    "TH_RELEASE",       "TH_TRY_ACQUIRE",
        "TH_EXCLUDES",
    };
    return macros.count(t) != 0;
}

/** Names referenced by any TH_* annotation argument list in @p sf. */
std::set<std::string>
annotatedNames(const SourceFile &sf)
{
    std::set<std::string> names;
    const auto &toks = sf.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident ||
            !isAnnotationMacro(toks[i].text) ||
            toks[i + 1].text != "(")
            continue;
        std::size_t j = i + 2;
        int d = 1;
        while (j < toks.size() && d > 0) {
            if (toks[j].text == "(")
                ++d;
            else if (toks[j].text == ")")
                --d;
            else if (toks[j].kind == Tok::Ident)
                names.insert(toks[j].text);
            ++j;
        }
    }
    return names;
}

void
checkMutexAnnotations(FileSet &files, const Options &,
                      std::vector<Diagnostic> &diags)
{
    for (const std::string &rel : sourcesUnder(files.root(), "src")) {
        const SourceFile &sf = files.get(rel);
        const auto &toks = sf.tokens;
        std::set<std::string> annotated; // Lazily computed.
        bool haveAnnotated = false;
        for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
            const Token &t = toks[i];
            if (t.kind != Tok::Ident)
                continue;
            const Token &next = toks[i + 1];

            // `std::mutex <name>` members: invisible to the analysis.
            if (t.text == "mutex" && i >= 2 &&
                toks[i - 1].text == "::" && toks[i - 2].text == "std" &&
                next.kind == Tok::Ident) {
                if (!isExcluded(sf, next.line))
                    diags.push_back(
                        {rel, next.line, "mutex-annotation",
                         "std::mutex member '" + next.text +
                             "' is invisible to clang -Wthread-safety; "
                             "use th::Mutex (common/thread_annotations"
                             ".h) with a TH_GUARDED_BY data set"});
                continue;
            }

            // `th::Mutex <name>;` / `Mutex <name>;` members.
            if (t.text == "Mutex" && next.kind == Tok::Ident &&
                i + 2 < toks.size() && toks[i + 2].text == ";" &&
                (i == 0 || !isTypeIntro(toks[i - 1].text))) {
                if (isExcluded(sf, next.line))
                    continue;
                if (!haveAnnotated) {
                    annotated = annotatedNames(sf);
                    haveAnnotated = true;
                }
                if (!annotated.count(next.text))
                    diags.push_back(
                        {rel, next.line, "mutex-annotation",
                         "mutex '" + next.text +
                             "' has no annotated data set: no "
                             "TH_GUARDED_BY/TH_REQUIRES/... in this "
                             "file names it"});
                continue;
            }

            // `std::once_flag <name>`: document what it guards.
            if (t.text == "once_flag" && next.kind == Tok::Ident) {
                if (!hasGuardsMarker(sf, next.line))
                    diags.push_back(
                        {rel, next.line, "mutex-annotation",
                         "once_flag '" + next.text +
                             "' lacks a // th_lint: guards(<what>) "
                             "marker documenting the state it "
                             "initializes"});
                continue;
            }

            // Condition variables sit outside -Wthread-safety's model
            // (the _any waits take the annotated th::UniqueLock, but
            // nothing ties the cv to its predicate): document the
            // predicate with a guards marker, like once_flag.
            if ((t.text == "condition_variable" ||
                 t.text == "condition_variable_any") &&
                next.kind == Tok::Ident) {
                if (!hasGuardsMarker(sf, next.line))
                    diags.push_back(
                        {rel, next.line, "mutex-annotation",
                         "condition variable '" + next.text +
                             "' lacks a // th_lint: guards(<what>) "
                             "marker documenting the predicate it "
                             "signals"});
                continue;
            }
        }

        // Malformed th_lint markers anywhere under src/.
        for (const auto &[ln, m] : sf.markers) {
            if (m.malformed)
                diags.push_back(
                    {rel, ln, "marker",
                     "unparseable th_lint marker (want "
                     "'th_lint: excluded(<reason>)', "
                     "'th_lint: guards(<what>)', or "
                     "'th_lint: blocking-ok(<reason>)')"});
        }
    }
}

} // namespace

// --------------------------------------------------------------------
// Entry points
// --------------------------------------------------------------------

std::string
formatDiagnostic(const Diagnostic &d)
{
    return d.file + ":" + std::to_string(d.line) + ": th_lint(" +
           d.check + "): " + d.message;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatFindingsJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        out << (i ? ",\n " : "\n ") << "{\"file\": \""
            << jsonEscape(d.file) << "\", \"line\": " << d.line
            << ", \"check\": \"" << jsonEscape(d.check)
            << "\", \"message\": \"" << jsonEscape(d.message) << "\"}";
    }
    out << (diags.empty() ? "]" : "\n]");
    return out.str();
}

std::string
formatDiagnosticGithub(const Diagnostic &d)
{
    // GitHub Actions workflow command: newlines and '%' in the
    // message must be URL-encoded; properties also escape ',' / ':'.
    auto escData = [](const std::string &s) {
        std::string out;
        for (const char c : s) {
            if (c == '%')
                out += "%25";
            else if (c == '\n')
                out += "%0A";
            else if (c == '\r')
                out += "%0D";
            else
                out += c;
        }
        return out;
    };
    auto escProp = [&](const std::string &s) {
        std::string out;
        for (const char c : escData(s)) {
            if (c == ',')
                out += "%2C";
            else if (c == ':')
                out += "%3A";
            else
                out += c;
        }
        return out;
    };
    return "::error file=" + escProp(d.file) +
           ",line=" + std::to_string(d.line) +
           ",title=th_lint(" + escProp(d.check) +
           ")::" + escData(d.message);
}

std::vector<Diagnostic>
runChecks(const Options &opts)
{
    FileSet files(opts.root);
    std::vector<Diagnostic> diags;
    checkCoverage(files, opts, diags);
    checkDeterminism(files, opts, diags);
    checkMutexAnnotations(files, opts, diags);
    const CallGraph graph = CallGraph::build(files);
    checkEventLoopBlocking(files, graph, opts, diags);
    checkLockOrder(files, graph, opts, diags);
    checkSchemaDrift(files, opts, diags);
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.message < b.message;
              });
    return diags;
}

int
runSelfTest(const std::string &fixtures_dir)
{
    std::vector<std::string> cases;
    std::error_code ec;
    for (fs::directory_iterator it(fixtures_dir, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->is_directory())
            cases.push_back(it->path().filename().string());
    std::sort(cases.begin(), cases.end());
    if (cases.empty()) {
        std::fprintf(stderr,
                     "th_lint --self-test: no fixture cases in '%s'\n",
                     fixtures_dir.c_str());
        return 1;
    }

    int failures = 0;
    for (const std::string &name : cases) {
        const fs::path dir = fs::path(fixtures_dir) / name;
        std::string expect;
        {
            std::ifstream in(dir / "expect.txt");
            std::ostringstream ss;
            ss << in.rdbuf();
            expect = ss.str();
            while (!expect.empty() &&
                   std::isspace(static_cast<unsigned char>(
                       expect.back())))
                expect.pop_back();
        }
        Options o;
        o.root = dir.string();
        o.fixtureMode = true;
        const auto diags = runChecks(o);

        bool pass;
        if (expect.empty()) {
            pass = diags.empty();
        } else {
            pass = diags.size() == 1 &&
                   formatDiagnostic(diags[0]).find(expect) !=
                       std::string::npos;
        }
        std::printf("[%s] %s\n", pass ? "PASS" : "FAIL", name.c_str());
        if (!pass) {
            ++failures;
            std::printf("  expected %s, got %zu diagnostic(s):\n",
                        expect.empty()
                            ? "no diagnostics"
                            : ("exactly one containing '" + expect +
                               "'").c_str(),
                        diags.size());
            for (const auto &d : diags)
                std::printf("    %s\n", formatDiagnostic(d).c_str());
        }
    }
    std::printf("th_lint self-test: %zu case(s), %d failure(s)\n",
                cases.size(), failures);
    return failures == 0 ? 0 : 1;
}

} // namespace th_lint
