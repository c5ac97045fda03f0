/**
 * @file
 * Schema-drift pass: turns the "bump on change" comments next to the
 * wire/store schema constants into an enforced rule. For every
 * serialized struct in the coverage table the pass fingerprints the
 * declared field list with each field's declared type *and* the
 * ordered field references inside each encode/decode function (so a
 * reorder or a type change drifts, not just an add or drop), then
 * compares fingerprint + guard-constant values against the committed
 * tools/th_lint/schema.lock:
 *
 *  - fingerprint changed, guard constants unchanged  → ERROR naming
 *    the struct and the constant that should have been bumped;
 *  - fingerprint changed, a guard constant bumped    → reminder to
 *    regenerate schema.lock (th_lint --write-schema-lock);
 *  - fingerprint unchanged, a constant changed       → stale lock,
 *    same reminder;
 *  - entry or lock file missing                      → told to run
 *    --write-schema-lock (fixture mode: a missing lock file simply
 *    disables the pass so unrelated fixtures stay single-purpose).
 */

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "internal.h"

namespace fs = std::filesystem;

namespace th_lint {

namespace {

constexpr const char *kLockRelPath = "tools/th_lint/schema.lock";

struct GuardConst
{
    const char *name;
    const char *file;
};

struct SchemaGuard
{
    const char *structName;
    std::vector<GuardConst> consts;
};

/** Which schema constant(s) guard each serialized struct. A drifted
 *  fingerprint is acceptable when ANY of the listed constants moved. */
const std::vector<SchemaGuard> &
schemaGuards()
{
    static const GuardConst wire = {"kWireSchemaVersion",
                                    "src/io/request.h"};
    static const GuardConst store = {"kStoreSchemaVersion",
                                     "src/store/artifact_store.h"};
    static const GuardConst dtmr = {"kDtmReportSchemaVersion",
                                    "src/io/serialize.h"};
    static const GuardConst imdl = {"kIntervalModelSchemaVersion",
                                    "src/io/serialize.h"};
    static const GuardConst mcre = {"kMulticoreReportSchemaVersion",
                                    "src/io/serialize.h"};
    static const std::vector<SchemaGuard> guards = {
        {"SimRequest", {wire}},
        {"SimResponse", {wire}},
        {"PerfStats", {store}},
        {"ActivityStats", {store}},
        {"CoreResult", {store}},
        {"DtmReport", {store, dtmr}},
        {"DtmIntervalSample", {store, dtmr}},
        {"IntervalModel", {imdl}},
        {"IntervalPhase", {imdl}},
        {"IntervalTick", {imdl}},
        {"IntervalThrottlePoint", {imdl}},
        {"IntervalThrottleBin", {imdl}},
        {"MulticoreReport", {store, mcre}},
        {"MulticoreCoreStats", {store, mcre}},
        {"MulticoreBankStats", {store, mcre}},
    };
    return guards;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Value of `<name> = <integer>` in the raw text of root/rel, or ""
 *  when absent (the tokenizer drops numbers, so read the raw file). */
std::string
constantValue(const std::string &root, const std::string &rel,
              const std::string &name)
{
    std::ifstream in(fs::path(root) / rel,
                     std::ios::in | std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
        const std::size_t after = pos + name.size();
        const bool wholeWord =
            (pos == 0 || !(std::isalnum(static_cast<unsigned char>(
                               text[pos - 1])) ||
                           text[pos - 1] == '_')) &&
            (after >= text.size() ||
             !(std::isalnum(
                   static_cast<unsigned char>(text[after])) ||
               text[after] == '_'));
        pos = after;
        if (!wholeWord)
            continue;
        std::size_t i = pos;
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i >= text.size() || text[i] != '=')
            continue;
        ++i;
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        std::string digits;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i])))
            digits += text[i++];
        if (!digits.empty())
            return digits;
    }
    return {};
}

struct Entry
{
    std::string structName;
    std::string fingerprint; ///< hex64 of the canonical description.
    /** Guard constant name -> current value, in guard-table order. */
    std::vector<std::pair<std::string, std::string>> consts;
};

/**
 * Compute the current entry for @p guard, or return false when the
 * struct (or a codec definition) is not present — the coverage pass
 * owns reporting rule rot, so the caller skips silently.
 */
bool
computeEntry(FileSet &files, const SchemaGuard &guard, Entry &out,
             std::string *missingConst)
{
    const CoverageRule *rule = nullptr;
    for (const CoverageRule &r : coverageRules())
        if (std::string(r.structName) == guard.structName) {
            rule = &r;
            break;
        }
    if (rule == nullptr)
        return false;

    const SourceFile &sf = files.get(rule->structFile);
    std::vector<Field> fields;
    if (!sf.loaded || !parseStructFields(sf, rule->structName, fields))
        return false;

    std::set<std::string> fieldNames;
    std::string canon = std::string(rule->structName) + "\n";
    for (const Field &f : fields) {
        if (f.excluded)
            continue;
        fieldNames.insert(f.name);
        canon += "field " + f.type + " " + f.name + "\n";
    }
    for (const FnRef &fn : rule->fns) {
        const SourceFile &ff = files.get(fn.file);
        std::vector<std::string> seq;
        if (!ff.loaded || !functionBodyIdentSequence(ff, fn.name, seq))
            return false;
        canon += std::string("fn ") + fn.name + "\n";
        for (const std::string &ident : seq)
            if (fieldNames.count(ident))
                canon += ident + "\n";
    }

    out.structName = guard.structName;
    out.fingerprint = hex64(fnv1a(canon));
    for (const GuardConst &c : guard.consts) {
        const std::string v =
            constantValue(files.root(), c.file, c.name);
        if (v.empty() && missingConst != nullptr &&
            missingConst->empty())
            *missingConst = std::string(c.name) + " (" + c.file + ")";
        out.consts.emplace_back(c.name, v);
    }
    return true;
}

struct LockEntry
{
    std::string fingerprint;
    std::map<std::string, std::string> consts;
};

bool
readLock(const std::string &root,
         std::map<std::string, LockEntry> &out)
{
    std::ifstream in(fs::path(root) / kLockRelPath);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string structName, fp, kv;
        if (!(ls >> structName >> fp))
            continue;
        LockEntry e;
        e.fingerprint = fp;
        while (ls >> kv) {
            const std::size_t eq = kv.find('=');
            if (eq != std::string::npos)
                e.consts[kv.substr(0, eq)] = kv.substr(eq + 1);
        }
        out[structName] = e;
    }
    return true;
}

std::string
guardList(const Entry &e)
{
    std::string s;
    for (std::size_t i = 0; i < e.consts.size(); ++i)
        s += (i ? " or " : "") + e.consts[i].first;
    return s;
}

} // namespace

void
checkSchemaDrift(FileSet &files, const Options &opts,
                 std::vector<Diagnostic> &diags)
{
    std::map<std::string, LockEntry> lock;
    const bool haveLock = readLock(files.root(), lock);
    if (!haveLock) {
        if (!opts.fixtureMode)
            diags.push_back(
                {kLockRelPath, 0, "schema-drift",
                 "schema.lock is missing; generate it with "
                 "th_lint --root . --write-schema-lock and commit it"});
        return;
    }

    std::set<std::string> known;
    for (const SchemaGuard &guard : schemaGuards()) {
        known.insert(guard.structName);
        Entry now;
        std::string missingConst;
        if (!computeEntry(files, guard, now, &missingConst))
            continue; // coverage pass reports rule rot in normal mode
        if (!missingConst.empty()) {
            if (!opts.fixtureMode)
                diags.push_back(
                    {kLockRelPath, 0, "schema-drift",
                     "schema constant " + missingConst +
                         " not found — update the guard table in "
                         "tools/th_lint/schema.cpp if it moved"});
            continue;
        }

        auto it = lock.find(now.structName);
        if (it == lock.end()) {
            diags.push_back(
                {kLockRelPath, 0, "schema-drift",
                 "no schema.lock entry for " + now.structName +
                     "; regenerate with th_lint --write-schema-lock"});
            continue;
        }
        const LockEntry &old = it->second;

        bool constBumped = false;
        bool constRecorded = true;
        for (const auto &[name, value] : now.consts) {
            auto cit = old.consts.find(name);
            if (cit == old.consts.end()) {
                constRecorded = false;
                continue;
            }
            if (cit->second != value)
                constBumped = true;
        }
        if (!constRecorded) {
            diags.push_back(
                {kLockRelPath, 0, "schema-drift",
                 "schema.lock entry for " + now.structName +
                     " predates the current guard table; regenerate "
                     "with th_lint --write-schema-lock"});
            continue;
        }

        const bool drifted = old.fingerprint != now.fingerprint;
        if (drifted && !constBumped) {
            diags.push_back(
                {kLockRelPath, 0, "schema-drift",
                 "serialized layout of " + now.structName +
                     " drifted (fingerprint " + old.fingerprint +
                     " -> " + now.fingerprint +
                     ") without a bump of " + guardList(now) +
                     "; bump the constant, then regenerate "
                     "schema.lock with th_lint --write-schema-lock"});
        } else if (drifted || constBumped) {
            diags.push_back(
                {kLockRelPath, 0, "schema-drift",
                 "schema.lock entry for " + now.structName +
                     " is stale (the " +
                     std::string(drifted ? "fingerprint"
                                         : "guard constant") +
                     " changed); regenerate with th_lint "
                     "--write-schema-lock"});
        }
    }

    if (!opts.fixtureMode) {
        for (const auto &[name, e] : lock)
            if (!known.count(name))
                diags.push_back(
                    {kLockRelPath, 0, "schema-drift",
                     "stale schema.lock entry for unknown struct " +
                         name + "; regenerate with th_lint "
                                "--write-schema-lock"});
    }
}

bool
writeSchemaLock(const Options &opts, std::string &err)
{
    FileSet files(opts.root);
    std::ostringstream out;
    out << "# th_lint schema.lock — canonical fingerprints of every "
           "serialized struct's\n"
        << "# field list and codec field references, plus the guard "
           "constants recorded\n"
        << "# at generation time. Regenerate after an intentional "
           "schema change with:\n"
        << "#   th_lint --root . --write-schema-lock\n";
    for (const SchemaGuard &guard : schemaGuards()) {
        Entry e;
        std::string missingConst;
        if (!computeEntry(files, guard, e, &missingConst)) {
            if (opts.fixtureMode)
                continue;
            err = std::string("cannot fingerprint ") +
                  guard.structName +
                  " (struct or codec definition not found)";
            return false;
        }
        if (!missingConst.empty() && !opts.fixtureMode) {
            err = "schema constant " + missingConst + " not found";
            return false;
        }
        out << e.structName << " " << e.fingerprint;
        for (const auto &[name, value] : e.consts)
            out << " " << name << "=" << value;
        out << "\n";
    }
    const fs::path path = fs::path(opts.root) / kLockRelPath;
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    std::ofstream f(path, std::ios::out | std::ios::trunc);
    if (!f) {
        err = "cannot write " + path.string();
        return false;
    }
    f << out.str();
    return true;
}

} // namespace th_lint
