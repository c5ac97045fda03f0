/**
 * @file
 * Shared internals of th_lint: the tokenizer's source model, the
 * per-run file cache, marker lookup helpers, struct-field extraction,
 * and the coverage rule table. Everything here is consumed by the pass
 * implementations (lint.cpp, blocking.cpp, lockorder.cpp, schema.cpp)
 * and deliberately stays free of any th_sim dependency.
 */

#ifndef TH_LINT_INTERNAL_H
#define TH_LINT_INTERNAL_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace th_lint {

// --------------------------------------------------------------------
// Token model
// --------------------------------------------------------------------

enum class Tok { Ident, Punct };

struct Token
{
    Tok kind = Tok::Punct;
    std::string text;
    int line = 0;
};

/**
 * A parsed `// th_lint: <kind>(<reason>)` comment. Valid kinds:
 * "excluded" (suppress any check at that declaration), "guards"
 * (document what a once_flag / condition variable protects), and
 * "blocking-ok" (permit a blocking call in event-loop-reachable code).
 */
struct Marker
{
    int line = 0;
    std::string kind;
    std::string reason;
    bool malformed = false;
};

struct SourceFile
{
    std::string relPath; ///< Root-relative, for reporting.
    bool loaded = false;
    std::vector<Token> tokens;
    std::map<int, Marker> markers; ///< By line of the comment.
};

/** Lex @p text into @p out (see tokenizer.cpp for the grammar). */
void lex(const std::string &text, SourceFile &out);

/** Loader with a per-run cache (several passes share files). */
class FileSet
{
  public:
    explicit FileSet(std::string root) : root_(std::move(root)) {}

    const SourceFile &get(const std::string &rel);

    const std::string &root() const { return root_; }

  private:
    std::string root_;
    std::map<std::string, SourceFile> cache_;
};

/** True when a well-formed marker of @p kind covers @p line (the line
 *  itself or the one above). */
bool hasMarker(const SourceFile &sf, int line, const char *kind);

/** True when an "excluded" marker covers @p line. */
bool isExcluded(const SourceFile &sf, int line);

/** True when a "guards" (or "excluded") marker covers @p line. */
bool hasGuardsMarker(const SourceFile &sf, int line);

// --------------------------------------------------------------------
// Struct fields
// --------------------------------------------------------------------

struct Field
{
    std::string name;
    /** Declared type: the tokens before the name, written without
     *  spaces except between two identifiers ("std::uint32_t"). */
    std::string type;
    int line = 0;
    bool excluded = false;
};

bool isTypeIntro(const std::string &t);

/** True when @p stmt has a '(' at nesting depth 0 before any '='. */
bool looksLikeFunction(const std::vector<Token> &stmt);

/**
 * Fields of `struct <name> { ... }` in @p sf, in declaration order.
 * False when no definition of the struct exists in the file.
 */
bool parseStructFields(const SourceFile &sf, const std::string &name,
                       std::vector<Field> &out);

/**
 * Identifiers appearing in the body of the first *definition* of
 * @p fn in @p sf. False when no definition is found.
 */
bool functionBodyIdents(const SourceFile &sf, const std::string &fn,
                        std::set<std::string> &idents);

/**
 * Identifiers referenced in @p fn's body, in order of appearance
 * (duplicates kept) — the schema pass fingerprints the ordered
 * sequence so a codec field *reorder* drifts, not just an add/drop.
 */
bool functionBodyIdentSequence(const SourceFile &sf, const std::string &fn,
                               std::vector<std::string> &idents);

/** All .h/.cpp/.inl files under root/rel, sorted, root-relative. */
std::vector<std::string> sourcesUnder(const std::string &root,
                                      const std::string &rel);

// --------------------------------------------------------------------
// Coverage rule table (shared by the coverage and schema passes)
// --------------------------------------------------------------------

struct FnRef
{
    const char *name;
    const char *file;
};

struct CoverageRule
{
    const char *structName;
    const char *structFile;
    std::vector<FnRef> fns;
    const char *check;
};

const std::vector<CoverageRule> &coverageRules();

// --------------------------------------------------------------------
// Pass entry points (each appends diagnostics; sorted by the caller)
// --------------------------------------------------------------------

class CallGraph; // callgraph.h

void checkEventLoopBlocking(FileSet &files, const CallGraph &graph,
                            const Options &opts,
                            std::vector<Diagnostic> &diags);

void checkLockOrder(FileSet &files, const CallGraph &graph,
                    const Options &opts, std::vector<Diagnostic> &diags);

void checkSchemaDrift(FileSet &files, const Options &opts,
                      std::vector<Diagnostic> &diags);

} // namespace th_lint

#endif // TH_LINT_INTERNAL_H
