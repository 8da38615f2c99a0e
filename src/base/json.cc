#include "base/json.h"

#include <charconv>
#include <cstdlib>

#include "base/logging.h"

namespace sevf::base {

void
JsonWriter::comma()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (need_comma_) {
        out_ += ',';
    }
}

void
JsonWriter::quoted(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (char c : s) {
        switch (c) {
          case '"': out_ += "\\\""; break;
          case '\\': out_ += "\\\\"; break;
          case '\n': out_ += "\\n"; break;
          case '\t': out_ += "\\t"; break;
          case '\r': out_ += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out_ += "\\u00";
                out_ += kHex[c >> 4];
                out_ += kHex[c & 0xf];
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    stack_.push_back('{');
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    SEVF_CHECK(!stack_.empty() && stack_.back() == '{');
    stack_.pop_back();
    out_ += '}';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    stack_.push_back('[');
    need_comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    SEVF_CHECK(!stack_.empty() && stack_.back() == '[');
    stack_.pop_back();
    out_ += ']';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    SEVF_CHECK(!stack_.empty() && stack_.back() == '{');
    comma();
    quoted(name);
    out_ += ':';
    need_comma_ = false;
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    comma();
    quoted(s);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *s)
{
    return value(std::string_view(s));
}

JsonWriter &
JsonWriter::value(double v)
{
    comma();
    char buf[32];
    std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, r.ptr);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(u64 v)
{
    comma();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(i64 v)
{
    comma();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
    need_comma_ = true;
    return *this;
}

std::string
JsonWriter::take()
{
    SEVF_CHECK(stack_.empty());
    return std::move(out_);
}

// ---- JsonValue -----------------------------------------------------------

JsonValue
JsonValue::null()
{
    return JsonValue();
}

JsonValue
JsonValue::boolean(bool v)
{
    JsonValue out;
    out.kind_ = Kind::kBool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::number(double v)
{
    JsonValue out;
    out.kind_ = Kind::kNumber;
    out.number_ = v;
    return out;
}

JsonValue
JsonValue::string(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::kString;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::array(Array v)
{
    JsonValue out;
    out.kind_ = Kind::kArray;
    out.array_ = std::make_shared<Array>(std::move(v));
    return out;
}

JsonValue
JsonValue::object(Object v)
{
    JsonValue out;
    out.kind_ = Kind::kObject;
    out.object_ = std::make_shared<Object>(std::move(v));
    return out;
}

bool
JsonValue::asBool() const
{
    SEVF_CHECK(isBool());
    return bool_;
}

double
JsonValue::asNumber() const
{
    SEVF_CHECK(isNumber());
    return number_;
}

const std::string &
JsonValue::asString() const
{
    SEVF_CHECK(isString());
    return string_;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    SEVF_CHECK(isArray());
    return *array_;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    SEVF_CHECK(isObject());
    return *object_;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (!isObject()) {
        return nullptr;
    }
    auto it = object_->find(std::string(key));
    return it == object_->end() ? nullptr : &it->second;
}

const std::string &
JsonValue::stringAt(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (v == nullptr) {
        panic("JsonValue: missing key ", key);
    }
    return v->asString();
}

double
JsonValue::numberAt(std::string_view key) const
{
    const JsonValue *v = find(key);
    if (v == nullptr) {
        panic("JsonValue: missing key ", key);
    }
    return v->asNumber();
}

// ---- parser --------------------------------------------------------------

namespace {

/**
 * Recursive-descent parser. Error handling is a sticky flag + message
 * rather than Status plumbed through every production; parseJson wraps
 * the outcome. Depth is bounded to keep adversarial inputs from
 * recursing off the stack.
 */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWhitespace();
        if (!failed_ && pos_ != text_.size()) {
            fail("trailing characters after document");
        }
        return v;
    }

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    std::size_t errorOffset() const { return error_offset_; }

  private:
    static constexpr int kMaxDepth = 128;

    void
    fail(std::string message)
    {
        if (!failed_) {
            failed_ = true;
            error_ = std::move(message);
            error_offset_ = pos_;
        }
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return JsonValue();
        }
        skipWhitespace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of document");
            return JsonValue();
        }
        char c = text_[pos_];
        if (c == '{') {
            return parseObject(depth);
        }
        if (c == '[') {
            return parseArray(depth);
        }
        if (c == '"') {
            return JsonValue::string(parseString());
        }
        if (c == 't') {
            if (!consumeLiteral("true")) {
                fail("bad literal");
            }
            return JsonValue::boolean(true);
        }
        if (c == 'f') {
            if (!consumeLiteral("false")) {
                fail("bad literal");
            }
            return JsonValue::boolean(false);
        }
        if (c == 'n') {
            if (!consumeLiteral("null")) {
                fail("bad literal");
            }
            return JsonValue::null();
        }
        return parseNumber();
    }

    JsonValue
    parseObject(int depth)
    {
        ++pos_; // '{'
        JsonValue::Object members;
        skipWhitespace();
        if (consume('}')) {
            return JsonValue::object(std::move(members));
        }
        while (!failed_) {
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                break;
            }
            std::string key = parseString();
            skipWhitespace();
            if (!consume(':')) {
                fail("expected ':' after key");
                break;
            }
            members[std::move(key)] = parseValue(depth + 1);
            skipWhitespace();
            if (consume(',')) {
                continue;
            }
            if (consume('}')) {
                break;
            }
            fail("expected ',' or '}' in object");
        }
        return JsonValue::object(std::move(members));
    }

    JsonValue
    parseArray(int depth)
    {
        ++pos_; // '['
        JsonValue::Array items;
        skipWhitespace();
        if (consume(']')) {
            return JsonValue::array(std::move(items));
        }
        while (!failed_) {
            items.push_back(parseValue(depth + 1));
            skipWhitespace();
            if (consume(',')) {
                continue;
            }
            if (consume(']')) {
                break;
            }
            fail("expected ',' or ']' in array");
        }
        return JsonValue::array(std::move(items));
    }

    int
    hexDigit(char c)
    {
        if (c >= '0' && c <= '9') {
            return c - '0';
        }
        if (c >= 'a' && c <= 'f') {
            return c - 'a' + 10;
        }
        if (c >= 'A' && c <= 'F') {
            return c - 'A' + 10;
        }
        return -1;
    }

    /** \uXXXX after the backslash-u; -1 on malformed input. */
    int
    parseHex4()
    {
        if (pos_ + 4 > text_.size()) {
            return -1;
        }
        int value = 0;
        for (int i = 0; i < 4; ++i) {
            int d = hexDigit(text_[pos_ + i]);
            if (d < 0) {
                return -1;
            }
            value = value * 16 + d;
        }
        pos_ += 4;
        return value;
    }

    void
    appendUtf8(std::string &out, u32 cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    std::string
    parseString()
    {
        std::string out;
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("raw control character in string");
                return out;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                break;
            }
            char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out += esc;
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
                int cp = parseHex4();
                if (cp < 0) {
                    fail("bad \\u escape");
                    return out;
                }
                // Combine a surrogate pair when one follows.
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    text_.substr(pos_, 2) == "\\u") {
                    std::size_t saved = pos_;
                    pos_ += 2;
                    int lo = parseHex4();
                    if (lo >= 0xDC00 && lo <= 0xDFFF) {
                        appendUtf8(out, 0x10000 +
                                            ((static_cast<u32>(cp) - 0xD800)
                                             << 10) +
                                            (static_cast<u32>(lo) - 0xDC00));
                        break;
                    }
                    pos_ = saved;
                }
                appendUtf8(out, static_cast<u32>(cp));
                break;
            }
            default:
                fail("bad escape character");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    /** Consume a run of decimal digits; returns how many. */
    std::size_t
    skipDigits()
    {
        std::size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
        }
        return pos_ - from;
    }

    /** RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    JsonValue
    parseNumber()
    {
        std::size_t start = pos_;
        consume('-');
        bool leading_zero = pos_ < text_.size() && text_[pos_] == '0';
        std::size_t int_digits = skipDigits();
        if (int_digits == 0) {
            fail("expected value");
            return JsonValue();
        }
        if (leading_zero && int_digits > 1) {
            fail("leading zero in number");
            return JsonValue();
        }
        if (consume('.') && skipDigits() == 0) {
            fail("expected digit after decimal point");
            return JsonValue();
        }
        if (consume('e') || consume('E')) {
            if (!consume('+')) {
                consume('-');
            }
            if (skipDigits() == 0) {
                fail("expected digit in exponent");
                return JsonValue();
            }
        }
        // The grammar above is a subset of strtod's, so it consumes the
        // whole token.
        std::string token(text_.substr(start, pos_ - start));
        return JsonValue::number(std::strtod(token.c_str(), nullptr));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
    std::size_t error_offset_ = 0;
};

} // namespace

Result<JsonValue>
parseJson(std::string_view text)
{
    Parser parser(text);
    JsonValue v = parser.parseDocument();
    if (parser.failed()) {
        return Status(ErrorCode::kCorrupted,
                      "JSON parse error at byte " +
                          std::to_string(parser.errorOffset()) + ": " +
                          parser.error());
    }
    return v;
}

} // namespace sevf::base
