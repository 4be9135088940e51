/**
 * @file
 * Minimal JSON support — no external dependency, just enough for the
 * schema-versioned artifacts this repo emits and consumes:
 *
 *  - JsonWriter, a streaming writer for the exported documents and
 *    BENCH_*.json records, pretty-printed with stable key order so
 *    records can be diffed across runs.
 *  - JsonValue + parseJson(), a recursive-descent reader used by
 *    bench_diff to compare BENCH_*.json files and by tests to
 *    validate exported documents. Object member order is preserved.
 */

#ifndef GENREUSE_COMMON_JSON_H
#define GENREUSE_COMMON_JSON_H

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "status.h"

namespace genreuse {

/**
 * Emits one JSON document through begin/end + key/value calls. The
 * writer tracks nesting and comma placement; callers are responsible
 * for pairing begin/end and for calling key() before every value
 * inside an object.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; must precede the member's value. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /** Splice an already-serialized JSON value verbatim (e.g. a
     *  sub-document built by another JsonWriter). */
    JsonWriter &raw(const std::string &json);

    /** The document text (call after the final end). */
    std::string str() const { return out_.str(); }

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

  private:
    void prepareValue();
    void newlineIndent();

    std::ostringstream out_;
    std::vector<bool> hasItems_; //!< per open scope: any member yet?
    bool pendingKey_ = false;
};

/**
 * A parsed JSON document node. Kind-tagged; only the fields matching
 * the kind are meaningful. Numbers are held as double (the writer
 * emits %.12g, so round-trips are exact for the values this repo
 * records). Object members keep document order.
 */
struct JsonValue
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
    std::string string;
    std::vector<JsonValue> items; //!< array elements
    std::vector<std::pair<std::string, JsonValue>> members; //!< object

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member of an object by key; nullptr when absent or not an
     *  object. */
    const JsonValue *find(const std::string &key) const;

    /** This node's number, or @p fallback when not a number. */
    double numberOr(double fallback) const;

    /** This node's string, or @p fallback when not a string. */
    std::string stringOr(const std::string &fallback) const;
};

/**
 * Parse one JSON document (trailing whitespace allowed, nothing
 * else). Returns InvalidArgument with a byte offset on malformed
 * input; nesting deeper than an internal sanity bound is rejected.
 */
Expected<JsonValue> parseJson(const std::string &text);

/** parseJson() over the contents of @p path (read errors surface as
 *  InvalidArgument naming the file). */
Expected<JsonValue> parseJsonFile(const std::string &path);

} // namespace genreuse

#endif // GENREUSE_COMMON_JSON_H
