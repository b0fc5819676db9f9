#include "util/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace nscs {

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::integer(int64_t i)
{
    JsonValue v;
    v.type_ = Type::Int;
    v.int_ = i;
    v.dbl_ = static_cast<double>(i);
    return v;
}

JsonValue
JsonValue::number(double d)
{
    JsonValue v;
    v.type_ = Type::Double;
    v.dbl_ = d;
    return v;
}

JsonValue
JsonValue::string(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

bool
JsonValue::asBool() const
{
    NSCS_ASSERT(type_ == Type::Bool, "JSON node is not a bool");
    return bool_;
}

int64_t
JsonValue::asInt() const
{
    if (type_ == Type::Int)
        return int_;
    NSCS_ASSERT(type_ == Type::Double && dbl_ == std::floor(dbl_),
                "JSON node is not an integral number");
    return static_cast<int64_t>(dbl_);
}

double
JsonValue::asDouble() const
{
    NSCS_ASSERT(isNumber(), "JSON node is not numeric");
    return type_ == Type::Int ? static_cast<double>(int_) : dbl_;
}

const std::string &
JsonValue::asString() const
{
    NSCS_ASSERT(type_ == Type::String, "JSON node is not a string");
    return str_;
}

size_t
JsonValue::size() const
{
    if (type_ == Type::Array)
        return arr_.size();
    if (type_ == Type::Object)
        return obj_.size();
    return 0;
}

void
JsonValue::append(JsonValue v)
{
    NSCS_ASSERT(type_ == Type::Array, "append on non-array JSON node");
    arr_.push_back(std::move(v));
}

const JsonValue &
JsonValue::at(size_t i) const
{
    NSCS_ASSERT(type_ == Type::Array && i < arr_.size(),
                "JSON array index %zu out of range", i);
    return arr_[i];
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    NSCS_ASSERT(type_ == Type::Object, "set on non-object JSON node");
    obj_[key] = std::move(v);
}

bool
JsonValue::has(const std::string &key) const
{
    return type_ == Type::Object && obj_.count(key) > 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    NSCS_ASSERT(type_ == Type::Object, "at(key) on non-object JSON node");
    auto it = obj_.find(key);
    NSCS_ASSERT(it != obj_.end(), "JSON object missing key '%s'",
                key.c_str());
    return it->second;
}

std::vector<std::string>
JsonValue::keys() const
{
    std::vector<std::string> out;
    if (type_ == Type::Object)
        for (const auto &kv : obj_)
            out.push_back(kv.first);
    return out;
}

namespace {

void
escapeInto(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
indentInto(std::string &out, int indent, int depth)
{
    if (indent > 0) {
        out.push_back('\n');
        out.append(static_cast<size_t>(indent) * depth, ' ');
    }
}

} // anonymous namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        out += std::to_string(int_);
        break;
      case Type::Double: {
        if (std::isfinite(dbl_)) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", dbl_);
            out += buf;
        } else {
            out += "null";  // JSON has no inf/nan
        }
        break;
      }
      case Type::String:
        escapeInto(out, str_);
        break;
      case Type::Array: {
        out.push_back('[');
        bool first = true;
        for (const auto &v : arr_) {
            if (!first)
                out.push_back(',');
            first = false;
            indentInto(out, indent, depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            indentInto(out, indent, depth);
        out.push_back(']');
        break;
      }
      case Type::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &kv : obj_) {
            if (!first)
                out.push_back(',');
            first = false;
            indentInto(out, indent, depth + 1);
            escapeInto(out, kv.first);
            out += indent > 0 ? ": " : ":";
            kv.second.dumpTo(out, indent, depth + 1);
        }
        if (!obj_.empty())
            indentInto(out, indent, depth);
        out.push_back('}');
        break;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    Parser(const std::string &text) : text_(text) {}

    JsonParseResult
    run()
    {
        JsonParseResult res;
        skipWs();
        if (!parseValue(res.value)) {
            res.ok = false;
            res.error = error_;
            return res;
        }
        skipWs();
        if (pos_ != text_.size()) {
            res.ok = false;
            res.error = errAt("trailing content");
            return res;
        }
        res.ok = true;
        return res;
    }

  private:
    std::string
    errAt(const std::string &msg)
    {
        return msg + " at offset " + std::to_string(pos_);
    }

    bool
    fail(const std::string &msg)
    {
        if (error_.empty())
            error_ = errAt(msg);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return fail(std::string("expected '") + word + "'");
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': return parseString(out);
          case 't':
            if (!literal("true"))
                return false;
            out = JsonValue::boolean(true);
            return true;
          case 'f':
            if (!literal("false"))
                return false;
            out = JsonValue::boolean(false);
            return true;
          case 'n':
            if (!literal("null"))
                return false;
            out = JsonValue();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(JsonValue &out)
    {
        std::string s;
        if (!parseRawString(s))
            return false;
        out = JsonValue::string(std::move(s));
        return true;
    }

    bool
    parseRawString(std::string &s)
    {
        if (text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                s.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("bad escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':  s.push_back('"'); break;
              case '\\': s.push_back('\\'); break;
              case '/':  s.push_back('/'); break;
              case 'b':  s.push_back('\b'); break;
              case 'f':  s.push_back('\f'); break;
              case 'n':  s.push_back('\n'); break;
              case 'r':  s.push_back('\r'); break;
              case 't':  s.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("bad \\u escape");
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
                        return fail("bad \\u digit");
                }
                if (code < 0x80) {
                    s.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    s.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    s.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    s.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        bool isInt = true;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            isInt = false;
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            isInt = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
            return fail("expected number");
        std::string tok = text_.substr(start, pos_ - start);
        if (isInt) {
            errno = 0;
            long long v = std::strtoll(tok.c_str(), nullptr, 10);
            if (errno == 0) {
                out = JsonValue::integer(v);
                return true;
            }
            // fall through to double on overflow
        }
        out = JsonValue::number(std::strtod(tok.c_str(), nullptr));
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        ++pos_;  // '['
        out = JsonValue::array();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue elem;
            skipWs();
            if (!parseValue(elem))
                return false;
            out.append(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        ++pos_;  // '{'
        out = JsonValue::object();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseRawString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue val;
            if (!parseValue(val))
                return false;
            out.set(key, std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
    std::string error_;
};

} // anonymous namespace

JsonParseResult
parseJson(const std::string &text)
{
    return Parser(text).run();
}

std::string
u64ToHex(uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

bool
readHex(const JsonValue &v, uint64_t &out)
{
    std::string s;
    if (!readString(v, s) || s.size() != 16)
        return false;
    uint64_t x = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            d = c - 'A' + 10;
        else
            return false;
        x = (x << 4) | static_cast<uint64_t>(d);
    }
    out = x;
    return true;
}

bool
readString(const JsonValue &v, std::string &out)
{
    if (v.type() != JsonValue::Type::String)
        return false;
    out = v.asString();
    return true;
}

bool
readString(const JsonValue &obj, const std::string &key,
           std::string &out)
{
    return obj.has(key) && readString(obj.at(key), out);
}

bool
readBool(const JsonValue &v, bool &out)
{
    if (v.type() != JsonValue::Type::Bool)
        return false;
    out = v.asBool();
    return true;
}

bool
readBool(const JsonValue &obj, const std::string &key, bool &out)
{
    return obj.has(key) && readBool(obj.at(key), out);
}

bool
readFlags(const JsonValue &v, std::vector<uint8_t> &flags)
{
    return v.size() == flags.size() && readInts(v, flags, 0, 1);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream of(path, std::ios::binary | std::ios::trunc);
    if (!of)
        return false;
    of << content;
    return static_cast<bool>(of);
}

} // namespace nscs
