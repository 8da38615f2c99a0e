/**
 * @file
 * The repo's one JSON writer (objects, arrays, strings, numbers,
 * booleans) and its matching parser. The writer renders launch reports,
 * the Chrome trace and JSON metric exports, and the bench result files;
 * the parser reads sevf_serve workload traces and lets tests and
 * tools/sevf_obscheck validate everything the repo itself emits. It
 * sits in base so that obs, at the bottom of the stack, can use it.
 */
#ifndef SEVF_BASE_JSON_H_
#define SEVF_BASE_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/types.h"

namespace sevf::base {

/**
 * Streaming JSON writer with an explicit nesting stack; emits compact
 * one-line output. Keys/values are escaped per RFC 8259.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Key inside an object; must be followed by a value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s);
    /**
     * Shortest decimal form that parses back to exactly @p v. JSON has
     * no form for inf or NaN, so @p v must be finite.
     */
    JsonWriter &value(double v);
    JsonWriter &value(u64 v);
    JsonWriter &value(i64 v);
    JsonWriter &value(bool v);

    /** Final document; valid only when all scopes are closed. */
    std::string take();

  private:
    void comma();
    /** Append @p s as a quoted, RFC 8259-escaped string. */
    void quoted(std::string_view s);

    std::string out_;
    std::vector<char> stack_;  // '{' or '['
    bool need_comma_ = false;
    bool after_key_ = false;
};

/**
 * Parsed JSON document node. Numbers are held as doubles, so integers
 * round-trip exactly up to 2^53. Object member order is not preserved
 * (std::map), which is fine for validation use.
 */
class JsonValue
{
  public:
    enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() = default;
    static JsonValue null();
    static JsonValue boolean(bool v);
    static JsonValue number(double v);
    static JsonValue string(std::string v);
    static JsonValue array(Array v);
    static JsonValue object(Object v);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isBool() const { return kind_ == Kind::kBool; }
    bool isNumber() const { return kind_ == Kind::kNumber; }
    bool isString() const { return kind_ == Kind::kString; }
    bool isArray() const { return kind_ == Kind::kArray; }
    bool isObject() const { return kind_ == Kind::kObject; }

    /** Typed accessors; panic on kind mismatch (SEVF_CHECK). */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /**
     * Convenience: member @p key as a string/number, with panic when it
     * is missing or the wrong type — for tests and validators where
     * absence is a hard failure.
     */
    const std::string &stringAt(std::string_view key) const;
    double numberAt(std::string_view key) const;

  private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0;
    std::string string_;
    // Indirect so JsonValue stays movable despite the recursive types.
    std::shared_ptr<Array> array_;
    std::shared_ptr<Object> object_;
};

/**
 * Parse one complete JSON document with RFC 8259's grammar: raw control
 * characters inside strings, numbers with a leading zero or a bare
 * trailing dot, and trailing garbage after the document are errors.
 * A \uXXXX surrogate pair decodes to UTF-8; a lone surrogate passes
 * through as its code unit. No exceptions — a malformed document
 * returns a kCorrupted Status with the byte offset.
 */
Result<JsonValue> parseJson(std::string_view text);

} // namespace sevf::base

#endif // SEVF_BASE_JSON_H_
