/**
 * @file
 * The tokenizer and source model shared by every th_lint pass: a
 * lightweight C++ lexer (comments, strings, and preprocessor lines
 * stripped; identifiers and punctuation kept with line numbers),
 * `// th_lint:` marker parsing, struct-field extraction, and the
 * file walker. Deliberately no libclang dependency so the linter
 * builds everywhere the repo builds.
 */

#include "internal.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

namespace fs = std::filesystem;

namespace th_lint {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Parse a th_lint marker out of one comment's text, if present. */
std::optional<Marker>
parseMarker(const std::string &comment, int line)
{
    const std::size_t at = comment.find("th_lint");
    if (at == std::string::npos)
        return std::nullopt;
    Marker m;
    m.line = line;
    std::size_t i = at + 7; // past "th_lint"
    // Expect ':' then a kind identifier, then optional "(reason)".
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i])))
        ++i;
    // No colon: prose mentioning th_lint, not a marker attempt.
    if (i >= comment.size() || comment[i] != ':')
        return std::nullopt;
    ++i;
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i])))
        ++i;
    std::size_t kb = i;
    while (i < comment.size() && (isIdentChar(comment[i]) ||
                                  comment[i] == '-'))
        ++i;
    m.kind = comment.substr(kb, i - kb);
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i])))
        ++i;
    if (i < comment.size() && comment[i] == '(') {
        int depth = 1;
        std::size_t rb = ++i;
        while (i < comment.size() && depth > 0) {
            if (comment[i] == '(')
                ++depth;
            else if (comment[i] == ')')
                --depth;
            if (depth > 0)
                ++i;
        }
        m.reason = comment.substr(rb, i - rb);
        if (depth != 0)
            m.malformed = true;
    }
    if (m.kind != "excluded" && m.kind != "guards" &&
        m.kind != "blocking-ok")
        m.malformed = true;
    if (!m.malformed && m.reason.empty())
        m.malformed = true; // A marker without a reason is a smell.
    return m;
}

} // namespace

/**
 * Lex one file: preprocessor lines, comments, and literals stripped;
 * identifiers and punctuation kept; `th_lint` comments recorded as
 * markers. `::` and `->` are fused; everything else is one char.
 */
void
lex(const std::string &text, SourceFile &out)
{
    const std::size_t n = text.size();
    std::size_t i = 0;
    int line = 1;
    bool atLineStart = true;

    auto record = [&](const std::string &comment, int cline) {
        if (auto m = parseMarker(comment, cline))
            out.markers[cline] = *m;
    };

    while (i < n) {
        const char c = text[i];
        if (c == '\n') {
            ++line;
            atLineStart = true;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (atLineStart && c == '#') {
            // Preprocessor directive: skip to end of (continued) line.
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (text[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        atLineStart = false;
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            const int cline = line;
            std::size_t b = i;
            while (i < n && text[i] != '\n')
                ++i;
            record(text.substr(b, i - b), cline);
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            const int cline = line;
            std::size_t b = i;
            i += 2;
            while (i + 1 < n &&
                   !(text[i] == '*' && text[i + 1] == '/')) {
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            i = std::min(n, i + 2);
            record(text.substr(b, i - b), cline);
            continue;
        }
        if (c == '"' || c == '\'') {
            // Raw strings: the repo doesn't use them; handle the
            // common R"( ... )" form anyway.
            if (c == '"' && i > 0 && text[i - 1] == 'R') {
                std::size_t d = i + 1;
                while (d < n && text[d] != '(')
                    ++d;
                const std::string delim =
                    ")" + text.substr(i + 1, d - i - 1) + "\"";
                const std::size_t e = text.find(delim, d);
                for (std::size_t k = i;
                     k < std::min(n, e == std::string::npos
                                         ? n
                                         : e + delim.size());
                     ++k)
                    if (text[k] == '\n')
                        ++line;
                i = e == std::string::npos ? n : e + delim.size();
                continue;
            }
            const char quote = c;
            ++i;
            while (i < n && text[i] != quote) {
                if (text[i] == '\\')
                    ++i;
                if (i < n && text[i] == '\n')
                    ++line;
                ++i;
            }
            ++i;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            // pp-number (handles 1e-4, 0x1b3ULL, 1.0); emits no token.
            ++i;
            while (i < n) {
                const char d = text[i];
                if (isIdentChar(d) || d == '.') {
                    ++i;
                } else if ((d == '+' || d == '-') && i > 0 &&
                           (text[i - 1] == 'e' || text[i - 1] == 'E' ||
                            text[i - 1] == 'p' || text[i - 1] == 'P')) {
                    ++i;
                } else {
                    break;
                }
            }
            continue;
        }
        if (isIdentStart(c)) {
            std::size_t b = i;
            while (i < n && isIdentChar(text[i]))
                ++i;
            out.tokens.push_back(
                {Tok::Ident, text.substr(b, i - b), line});
            continue;
        }
        if (c == ':' && i + 1 < n && text[i + 1] == ':') {
            out.tokens.push_back({Tok::Punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && text[i + 1] == '>') {
            out.tokens.push_back({Tok::Punct, "->", line});
            i += 2;
            continue;
        }
        out.tokens.push_back({Tok::Punct, std::string(1, c), line});
        ++i;
    }
}

const SourceFile &
FileSet::get(const std::string &rel)
{
    auto it = cache_.find(rel);
    if (it != cache_.end())
        return it->second;
    SourceFile sf;
    sf.relPath = rel;
    std::ifstream in(fs::path(root_) / rel,
                     std::ios::in | std::ios::binary);
    if (in) {
        std::ostringstream ss;
        ss << in.rdbuf();
        lex(ss.str(), sf);
        sf.loaded = true;
    }
    return cache_.emplace(rel, std::move(sf)).first->second;
}

bool
hasMarker(const SourceFile &sf, int line, const char *kind)
{
    for (int l : {line, line - 1}) {
        auto it = sf.markers.find(l);
        if (it != sf.markers.end() && !it->second.malformed &&
            it->second.kind == kind)
            return true;
    }
    return false;
}

bool
isExcluded(const SourceFile &sf, int line)
{
    return hasMarker(sf, line, "excluded");
}

bool
hasGuardsMarker(const SourceFile &sf, int line)
{
    return hasMarker(sf, line, "guards") || isExcluded(sf, line);
}

// --------------------------------------------------------------------
// Struct field extraction
// --------------------------------------------------------------------

bool
isTypeIntro(const std::string &t)
{
    return t == "struct" || t == "class" || t == "enum" || t == "union";
}

bool
looksLikeFunction(const std::vector<Token> &stmt)
{
    int depth = 0;
    for (const Token &t : stmt) {
        if (t.kind != Tok::Punct)
            continue;
        if (t.text == "(" && depth == 0)
            return true;
        if (t.text == "=" && depth == 0)
            return false;
        if (t.text == "(" || t.text == "[" || t.text == "<")
            ++depth;
        else if (t.text == ")" || t.text == "]" || t.text == ">")
            depth = std::max(0, depth - 1);
    }
    return false;
}

namespace {

/** Tokens [@p first, @p last) as written, with a space only between
 *  two identifiers. */
std::string
joinTokens(std::vector<Token>::const_iterator first,
           std::vector<Token>::const_iterator last)
{
    std::string s;
    bool prevIdent = false;
    for (; first != last; ++first) {
        const bool ident = first->kind == Tok::Ident;
        if (ident && prevIdent)
            s += ' ';
        s += first->text;
        prevIdent = ident;
    }
    return s;
}

/**
 * Extract declarators from one member statement, each with its type:
 * the first declarator's leading tokens, plus a later declarator's own
 * (a '*', say) in `T a, *b;`.
 */
void
namesFromStatement(const std::vector<Token> &stmt, const SourceFile &sf,
                   std::vector<Field> &out)
{
    if (stmt.empty())
        return;
    for (std::size_t k = 0; k < std::min<std::size_t>(2, stmt.size());
         ++k) {
        const std::string &t0 = stmt[k].text;
        if (t0 == "using" || t0 == "typedef" || t0 == "friend" ||
            t0 == "static" || t0 == "template")
            return;
    }
    if (looksLikeFunction(stmt))
        return;

    // Split into declarator chunks at top-level commas.
    std::vector<std::vector<Token>> chunks(1);
    int depth = 0;
    for (const Token &t : stmt) {
        if (t.kind == Tok::Punct) {
            if (t.text == "(" || t.text == "[" || t.text == "<")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == ">")
                depth = std::max(0, depth - 1);
            else if (t.text == "," && depth == 0) {
                chunks.emplace_back();
                continue;
            }
        }
        chunks.back().push_back(t);
    }

    std::string baseType;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        const auto &chunk = chunks[c];
        auto name = chunk.end();
        depth = 0;
        for (auto it = chunk.begin(); it != chunk.end(); ++it) {
            const Token &t = *it;
            if (t.kind == Tok::Punct && depth == 0 &&
                (t.text == "=" || t.text == "{}" || t.text == "["))
                break;
            if (t.kind == Tok::Punct) {
                if (t.text == "(" || t.text == "[" || t.text == "<")
                    ++depth;
                else if (t.text == ")" || t.text == "]" ||
                         t.text == ">")
                    depth = std::max(0, depth - 1);
            }
            if (t.kind == Tok::Ident && depth == 0)
                name = it;
        }
        if (name == chunk.end())
            continue;
        const std::string own = joinTokens(chunk.begin(), name);
        if (c == 0)
            baseType = own;
        out.push_back({name->text, c == 0 ? own : baseType + own,
                       name->line, isExcluded(sf, name->line)});
    }
}

} // namespace

bool
parseStructFields(const SourceFile &sf, const std::string &name,
                  std::vector<Field> &out)
{
    const auto &toks = sf.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident || !isTypeIntro(toks[i].text))
            continue;
        if (toks[i + 1].kind != Tok::Ident || toks[i + 1].text != name)
            continue;
        // Find '{' of the definition before any ';' (else: fwd decl).
        std::size_t j = i + 2;
        while (j < toks.size() && toks[j].text != "{" &&
               toks[j].text != ";")
            ++j;
        if (j >= toks.size() || toks[j].text == ";")
            continue;

        // Walk the body at depth 1, accumulating member statements.
        std::vector<Token> stmt;
        int depth = 1;
        ++j;
        while (j < toks.size() && depth > 0) {
            const Token &t = toks[j];
            if (t.kind == Tok::Punct && t.text == "{") {
                const bool discard = looksLikeFunction(stmt) ||
                    (!stmt.empty() && isTypeIntro(stmt[0].text));
                // Skip to the matching '}'.
                int d = 1;
                ++j;
                while (j < toks.size() && d > 0) {
                    if (toks[j].text == "{")
                        ++d;
                    else if (toks[j].text == "}")
                        --d;
                    ++j;
                }
                if (discard) {
                    stmt.clear();
                    // A method body needs no ';'; a nested type does —
                    // either way the next ';' (if adjacent) is noise.
                    if (j < toks.size() && toks[j].text == ";")
                        ++j;
                } else {
                    stmt.push_back({Tok::Punct, "{}", t.line});
                }
                continue;
            }
            if (t.kind == Tok::Punct && t.text == "}") {
                --depth;
                ++j;
                continue;
            }
            if (t.kind == Tok::Punct && t.text == ";") {
                namesFromStatement(stmt, sf, out);
                stmt.clear();
                ++j;
                continue;
            }
            if (t.kind == Tok::Punct && t.text == ":" &&
                stmt.size() == 1 &&
                (stmt[0].text == "public" || stmt[0].text == "private" ||
                 stmt[0].text == "protected")) {
                stmt.clear();
                ++j;
                continue;
            }
            stmt.push_back(t);
            ++j;
        }
        return true;
    }
    return false;
}

// --------------------------------------------------------------------
// Function body extraction
// --------------------------------------------------------------------

namespace {

/**
 * Locate the body token range [begin, end) of the first definition of
 * @p fn in @p sf (calls — `fn(...)` not followed by a body — are
 * skipped). False when no definition is found.
 */
bool
findBodyRange(const SourceFile &sf, const std::string &fn,
              std::size_t &begin, std::size_t &end)
{
    const auto &toks = sf.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident || toks[i].text != fn)
            continue;
        if (toks[i + 1].text != "(")
            continue;
        // Match the parameter list.
        std::size_t j = i + 1;
        int d = 0;
        do {
            if (toks[j].text == "(")
                ++d;
            else if (toks[j].text == ")")
                --d;
            ++j;
        } while (j < toks.size() && d > 0);
        // Definition iff '{' follows (allowing cv/ref qualifiers).
        while (j < toks.size() && toks[j].kind == Tok::Ident &&
               (toks[j].text == "const" || toks[j].text == "noexcept" ||
                toks[j].text == "override" || toks[j].text == "final"))
            ++j;
        if (j >= toks.size() || toks[j].text != "{")
            continue; // A call or a pure declaration; keep looking.
        d = 1;
        begin = ++j;
        while (j < toks.size() && d > 0) {
            if (toks[j].text == "{")
                ++d;
            else if (toks[j].text == "}")
                --d;
            ++j;
        }
        end = j > 0 ? j - 1 : j; // exclude the closing '}'
        return true;
    }
    return false;
}

} // namespace

bool
functionBodyIdents(const SourceFile &sf, const std::string &fn,
                   std::set<std::string> &idents)
{
    std::size_t begin = 0, end = 0;
    if (!findBodyRange(sf, fn, begin, end))
        return false;
    for (std::size_t j = begin; j < end; ++j)
        if (sf.tokens[j].kind == Tok::Ident)
            idents.insert(sf.tokens[j].text);
    return true;
}

bool
functionBodyIdentSequence(const SourceFile &sf, const std::string &fn,
                          std::vector<std::string> &idents)
{
    std::size_t begin = 0, end = 0;
    if (!findBodyRange(sf, fn, begin, end))
        return false;
    for (std::size_t j = begin; j < end; ++j)
        if (sf.tokens[j].kind == Tok::Ident)
            idents.push_back(sf.tokens[j].text);
    return true;
}

// --------------------------------------------------------------------
// File walking
// --------------------------------------------------------------------

std::vector<std::string>
sourcesUnder(const std::string &root, const std::string &rel)
{
    std::vector<std::string> out;
    const fs::path base = fs::path(root) / rel;
    std::error_code ec;
    if (!fs::is_directory(base, ec))
        return out;
    for (fs::recursive_directory_iterator it(base, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".h" && ext != ".cpp" && ext != ".inl")
            continue;
        out.push_back(
            fs::relative(it->path(), root, ec).generic_string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace th_lint
