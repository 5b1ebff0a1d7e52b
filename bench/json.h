#ifndef FLEET_BENCH_JSON_H
#define FLEET_BENCH_JSON_H

/**
 * @file
 * The one JSON reader and writer behind every BENCH_*.json and the
 * trace-schema tests.
 *
 * The reader is a small recursive-descent parser that keeps object
 * members in file order and keeps each number's source text next to
 * its value, so an exact replay (bench/harness.h) compares numbers as
 * printed, at the precision the writer chose, never through a double.
 *
 * The writer emits one member per line (or a whole container on one
 * line when asked), so artifacts stay diffable, and formats every
 * number itself: integers exactly, doubles with a fixed number of
 * decimals chosen per key.
 */

#include <cctype>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fleet {
namespace json {

struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** A number's source text, exactly as it appears in the input. */
    std::string text;
    std::string str;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member by key (first match, file order), or null. */
    const Value *find(std::string_view key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
    bool has(std::string_view key) const { return find(key) != nullptr; }

    /** Member as integer; `fallback` if absent or not a number. */
    int64_t getInt(std::string_view key, int64_t fallback = -1) const
    {
        const Value *v = find(key);
        return v && v->isNumber() ? int64_t(v->number) : fallback;
    }
    /** Member as string; empty if absent or not a string. */
    std::string getString(std::string_view key) const
    {
        const Value *v = find(key);
        return v && v->isString() ? v->str : std::string();
    }
};

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    /** Parse the whole input as one JSON value. False on any error;
     * `error()` then describes what went wrong and where. */
    bool parse(Value &out)
    {
        pos_ = 0;
        error_.clear();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing data after top-level value");
        return true;
    }

    const std::string &error() const { return error_; }

  private:
    bool fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at byte " + std::to_string(pos_);
        return false;
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool consume(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool parseLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (no surrogate pairs;
                // the repo's emitters never produce them).
                if (code < 0x80) {
                    out.push_back(char(code));
                } else if (code < 0x800) {
                    out.push_back(char(0xC0 | (code >> 6)));
                    out.push_back(char(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(char(0xE0 | (code >> 12)));
                    out.push_back(char(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(char(0x80 | (code & 0x3F)));
                }
                break;
            }
            default: return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(Value &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected number");
        out.text = std::string(text_.substr(start, pos_ - start));
        char *end = nullptr;
        out.kind = Value::Kind::Number;
        out.number = std::strtod(out.text.c_str(), &end);
        if (end != out.text.c_str() + out.text.size())
            return fail("malformed number");
        return true;
    }

    bool parseValue(Value &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case '{': {
            ++pos_;
            out.kind = Value::Kind::Object;
            if (consume('}'))
                return true;
            do {
                std::string key;
                if (!parseString(key))
                    return false;
                if (!consume(':'))
                    return fail("expected ':' in object");
                Value member;
                if (!parseValue(member))
                    return false;
                out.object.emplace_back(std::move(key), std::move(member));
            } while (consume(','));
            if (!consume('}'))
                return fail("expected '}' or ','");
            return true;
        }
        case '[': {
            ++pos_;
            out.kind = Value::Kind::Array;
            if (consume(']'))
                return true;
            do {
                Value element;
                if (!parseValue(element))
                    return false;
                out.array.push_back(std::move(element));
            } while (consume(','));
            if (!consume(']'))
                return fail("expected ']' or ','");
            return true;
        }
        case '"':
            out.kind = Value::Kind::String;
            return parseString(out.str);
        case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return parseLiteral("true");
        case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return parseLiteral("false");
        case 'n':
            out.kind = Value::Kind::Null;
            return parseLiteral("null");
        default: return parseNumber(out);
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string error_;
};

inline bool
parse(std::string_view text, Value &out, std::string *error = nullptr)
{
    Parser parser(text);
    bool ok = parser.parse(out);
    if (!ok && error)
        *error = parser.error();
    return ok;
}

/** `s` as a quoted JSON string literal. */
inline std::string
quote(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/**
 * Streaming writer. Open the root with object(), then add members with
 * field() and nested containers with object(key)/array(key); end()
 * closes the innermost container. Inside an array, the key-less
 * object() and element() add items. An `inline_` container prints on
 * one line.
 */
class Writer
{
  public:
    Writer &object(bool inline_ = false) { return open("", '{', inline_); }
    Writer &object(std::string_view key, bool inline_ = false)
    {
        return open(key, '{', inline_);
    }
    Writer &array(std::string_view key, bool inline_ = false)
    {
        return open(key, '[', inline_);
    }

    Writer &end()
    {
        Frame frame = stack_.back();
        stack_.pop_back();
        if (!frame.first && !frame.inline_)
            newline(stack_.size());
        out_ += frame.close;
        if (stack_.empty())
            out_ += '\n';
        return *this;
    }

    Writer &field(std::string_view key, std::string_view v)
    {
        return raw(key, quote(v));
    }
    Writer &field(std::string_view key, const char *v)
    {
        return raw(key, quote(v));
    }
    Writer &field(std::string_view key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Writer &field(std::string_view key, T v)
    {
        return raw(key, std::to_string(v));
    }
    /** `v` with exactly `decimals` digits after the point ("%.*f"). */
    Writer &field(std::string_view key, double v, int decimals)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
        return raw(key, buf);
    }
    /** A double always needs its printed precision. */
    Writer &field(std::string_view key, double v) = delete;
    /** A string item of the enclosing array. */
    Writer &element(std::string_view v) { return raw("", quote(v)); }

    /** The document; complete once the root container is closed. */
    const std::string &str() const { return out_; }

  private:
    struct Frame
    {
        char close;
        bool inline_;
        bool first = true;
    };

    /** Separator, line break and indent, then the key if any. */
    void member(std::string_view key)
    {
        if (stack_.empty())
            return;
        Frame &frame = stack_.back();
        if (!frame.first)
            out_ += frame.inline_ ? ", " : ",";
        if (!frame.inline_)
            newline(stack_.size());
        frame.first = false;
        if (!key.empty())
            out_ += quote(key) + ": ";
    }

    void newline(size_t depth)
    {
        out_ += '\n';
        out_.append(2 * depth, ' ');
    }

    Writer &open(std::string_view key, char open, bool inline_)
    {
        member(key);
        out_ += open;
        // An inline container keeps its children inline too.
        bool in_inline = !stack_.empty() && stack_.back().inline_;
        stack_.push_back({open == '{' ? '}' : ']', inline_ || in_inline});
        return *this;
    }

    Writer &raw(std::string_view key, std::string_view text)
    {
        member(key);
        out_ += text;
        return *this;
    }

    std::string out_;
    std::vector<Frame> stack_;
};

} // namespace json
} // namespace fleet

#endif // FLEET_BENCH_JSON_H
