#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "logging.h"

namespace genreuse {

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::newlineIndent()
{
    out_ << '\n';
    for (size_t i = 0; i < hasItems_.size(); ++i)
        out_ << "  ";
}

void
JsonWriter::prepareValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // "key": already emitted, value follows inline
    }
    if (!hasItems_.empty()) {
        if (hasItems_.back())
            out_ << ',';
        hasItems_.back() = true;
        newlineIndent();
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    prepareValue();
    out_ << '{';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    GENREUSE_REQUIRE(!hasItems_.empty(), "endObject without beginObject");
    bool had = hasItems_.back();
    hasItems_.pop_back();
    if (had)
        newlineIndent();
    out_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepareValue();
    out_ << '[';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    GENREUSE_REQUIRE(!hasItems_.empty(), "endArray without beginArray");
    bool had = hasItems_.back();
    hasItems_.pop_back();
    if (had)
        newlineIndent();
    out_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    GENREUSE_REQUIRE(!hasItems_.empty(), "key() outside an object");
    GENREUSE_REQUIRE(!pendingKey_, "two keys in a row");
    if (hasItems_.back())
        out_ << ',';
    hasItems_.back() = true;
    newlineIndent();
    out_ << '"' << escape(k) << "\": ";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    prepareValue();
    out_ << '"' << escape(v) << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    prepareValue();
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        out_ << buf;
    } else {
        out_ << "null"; // JSON has no NaN/Inf
    }
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    prepareValue();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    prepareValue();
    out_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepareValue();
    out_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    GENREUSE_REQUIRE(!json.empty(), "raw() with empty JSON");
    prepareValue();
    // Re-indent the sub-document's continuation lines to this nesting
    // depth so spliced documents diff like natively-written ones.
    std::string indent;
    for (size_t i = 0; i < hasItems_.size(); ++i)
        indent += "  ";
    for (char c : json) {
        out_ << c;
        if (c == '\n')
            out_ << indent;
    }
    return *this;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

double
JsonValue::numberOr(double fallback) const
{
    return kind == Kind::Number ? number : fallback;
}

std::string
JsonValue::stringOr(const std::string &fallback) const
{
    return kind == Kind::String ? string : fallback;
}

namespace {

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Expected<JsonValue>
    parse()
    {
        JsonValue root;
        Status s = parseValue(root, 0);
        if (!s.ok())
            return s;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return root;
    }

  private:
    static constexpr size_t kMaxDepth = 200;

    Status
    fail(const std::string &what) const
    {
        return Status::error(ErrorCode::InvalidArgument, "JSON parse: ",
                             what, " at byte ", pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            pos_++;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *w)
    {
        size_t n = std::strlen(w);
        if (text_.compare(pos_, n, w) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Status
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return Status{};
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // The writer only escapes control characters; decode
                // BMP code points as UTF-8, which covers everything
                // this repo's artifacts contain.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    Status
    parseValue(JsonValue &out, size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            pos_++;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (consume('}'))
                return Status{};
            while (true) {
                skipWs();
                std::string key;
                Status s = parseString(key);
                if (!s.ok())
                    return s;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue member;
                s = parseValue(member, depth + 1);
                if (!s.ok())
                    return s;
                out.members.emplace_back(std::move(key),
                                         std::move(member));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return Status{};
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            pos_++;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (consume(']'))
                return Status{};
            while (true) {
                JsonValue item;
                Status s = parseValue(item, depth + 1);
                if (!s.ok())
                    return s;
                out.items.push_back(std::move(item));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return Status{};
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (consumeWord("true")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return Status{};
        }
        if (consumeWord("false")) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return Status{};
        }
        if (consumeWord("null")) {
            out.kind = JsonValue::Kind::Null;
            return Status{};
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            const char *start = text_.c_str() + pos_;
            char *end = nullptr;
            double v = std::strtod(start, &end);
            if (end == start)
                return fail("bad number");
            pos_ += static_cast<size_t>(end - start);
            out.kind = JsonValue::Kind::Number;
            out.number = v;
            return Status{};
        }
        return fail("unexpected character");
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace

Expected<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

Expected<JsonValue>
parseJsonFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return Status::error(ErrorCode::InvalidArgument,
                             "cannot open JSON file ", path);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return parseJson(text);
}

} // namespace genreuse
