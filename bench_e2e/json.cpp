#include "json.h"

#include <cctype>
#include <cstdlib>

namespace bench {

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &s) : s_(s) {}

    bool document(JsonValue &out, std::string &err)
    {
        if (!value(out, 0)) {
            err = err_ + " at offset " + std::to_string(i_);
            return false;
        }
        skipSpace();
        if (i_ != s_.size()) {
            err = "trailing characters at offset " + std::to_string(i_);
            return false;
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void skipSpace()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool fail(const char *what)
    {
        err_ = what;
        return false;
    }

    bool literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(i_, w.size(), w) != 0)
            return fail("bad literal");
        i_ += w.size();
        return true;
    }

    bool string(std::string &out)
    {
        ++i_; // Opening quote.
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\') {
                if (++i_ >= s_.size())
                    break;
                if (s_[i_] != '"' && s_[i_] != '\\' && s_[i_] != '/')
                    return fail("unsupported escape");
            }
            out += s_[i_++];
        }
        if (i_ >= s_.size())
            return fail("unterminated string");
        ++i_;
        return true;
    }

    bool value(JsonValue &v, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (i_ >= s_.size())
            return fail("unexpected end");
        const char c = s_[i_];
        if (c == '{') {
            ++i_;
            skipSpace();
            if (i_ < s_.size() && s_[i_] == '}') {
                ++i_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (i_ >= s_.size() || s_[i_] != '"' || !string(key))
                    return fail("expected key");
                skipSpace();
                if (i_ >= s_.size() || s_[i_++] != ':')
                    return fail("expected ':'");
                if (!value(v.object[key], depth + 1))
                    return false;
                skipSpace();
                if (i_ < s_.size() && s_[i_] == ',') {
                    ++i_;
                    continue;
                }
                if (i_ < s_.size() && s_[i_] == '}') {
                    ++i_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++i_;
            skipSpace();
            if (i_ < s_.size() && s_[i_] == ']') {
                ++i_;
                return true;
            }
            for (;;) {
                v.array.emplace_back();
                if (!value(v.array.back(), depth + 1))
                    return false;
                skipSpace();
                if (i_ < s_.size() && s_[i_] == ',') {
                    ++i_;
                    continue;
                }
                if (i_ < s_.size() && s_[i_] == ']') {
                    ++i_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"')
            return string(v.string);
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        const char *begin = s_.c_str() + i_;
        char *end = nullptr;
        std::strtod(begin, &end);
        if (end == begin)
            return fail("unexpected character");
        i_ += static_cast<std::size_t>(end - begin);
        return true;
    }

    const std::string &s_;
    std::size_t i_ = 0;
    std::string err_;
};

} // namespace

const JsonValue &
JsonValue::operator[](const std::string &key) const
{
    static const JsonValue kNull;
    const auto it = object.find(key);
    return it == object.end() ? kNull : it->second;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    Parser p(text);
    return p.document(out, err);
}

} // namespace bench
