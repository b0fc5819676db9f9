/**
 * @file
 * Minimal self-contained JSON value, parser and writer.
 *
 * Used to write model files (compiled networks, core
 * configurations), snapshots and stats documents, and, through the
 * checked field reader below, to read model files, snapshots, fault
 * plans and traffic profiles.  Supports the full JSON
 * grammar except for \u escapes beyond the Basic Latin range, which
 * model files never contain.  Parsing errors are reported with byte
 * offsets through a status object rather than exceptions.
 */

#ifndef NSCS_UTIL_JSON_HH
#define NSCS_UTIL_JSON_HH

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace nscs {

/**
 * A JSON document node.  Numbers are stored as double plus an exact
 * int64 when the literal was integral, so round-tripping configuration
 * integers is lossless up to 2^53 (and up to int64 via asInt).
 */
class JsonValue
{
  public:
    /** JSON node kind. */
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    JsonValue() : type_(Type::Null) {}

    /** Boolean literal. */
    static JsonValue boolean(bool b);

    /** Integer number. */
    static JsonValue integer(int64_t v);

    /** Floating number. */
    static JsonValue number(double v);

    /** String literal. */
    static JsonValue string(std::string s);

    /** Empty array. */
    static JsonValue array();

    /** Empty object. */
    static JsonValue object();

    /** Node kind. */
    Type type() const { return type_; }

    /** @return true for Int or Double nodes. */
    bool
    isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Double;
    }

    /** Boolean content; node must be Bool. */
    bool asBool() const;

    /** Integer content; node must be numeric and integral. */
    int64_t asInt() const;

    /** Numeric content as double; node must be numeric. */
    double asDouble() const;

    /** String content; node must be String. */
    const std::string &asString() const;

    // --- array interface -------------------------------------------------

    /** Number of elements / members. */
    size_t size() const;

    /** Append to an Array node. */
    void append(JsonValue v);

    /** Element access; node must be Array and index in range. */
    const JsonValue &at(size_t i) const;

    // --- object interface ------------------------------------------------

    /** Set object member @p key. */
    void set(const std::string &key, JsonValue v);

    /** @return true if the Object node has member @p key. */
    bool has(const std::string &key) const;

    /** Member access; node must be Object and key present. */
    const JsonValue &at(const std::string &key) const;

    /** Object keys in sorted order. */
    std::vector<std::string> keys() const;

    // --- serialization ---------------------------------------------------

    /** Serialize; @p indent > 0 pretty-prints with that indent. */
    std::string dump(int indent = 0) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    int64_t int_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::map<std::string, JsonValue> obj_;
};

/** Result of JsonValue parsing. */
struct JsonParseResult
{
    bool ok = false;        //!< true when parsing succeeded
    std::string error;      //!< human-readable error with offset
    JsonValue value;        //!< parsed document when ok
};

/** Parse a complete JSON document from @p text. */
JsonParseResult parseJson(const std::string &text);

/**
 * Fixed-width (16 digit) lowercase hex encoding of @p v.  JSON
 * integers only carry int64 losslessly, so full-range uint64 values
 * (bit masks, xoshiro words) travel as hex strings in snapshots.
 */
std::string u64ToHex(uint64_t v);

// --- checked field reader/writer --------------------------------------
//
// Every loader of a document the tools accept (model file, snapshot,
// fault plan, traffic profile) reads through these.  A reader returns
// false, and never asserts, when its node is missing, has the wrong
// type or lies out of range.  Integers must be JSON integer literals
// (not 2.0).

/** The range of integral @p T that a JSON int64 carries. */
template <std::integral T>
inline constexpr int64_t kJsonIntMin =
    std::is_signed_v<T> ? int64_t{std::numeric_limits<T>::min()} : 0;
template <std::integral T>
inline constexpr int64_t kJsonIntMax = static_cast<int64_t>(
    std::min<uint64_t>(std::numeric_limits<T>::max(), INT64_MAX));

/** Store integer node @p v in @p out if it lies in [lo, hi] (and in
 *  the range of @p T). */
template <std::integral T>
bool
readInt(const JsonValue &v, T &out, int64_t lo = kJsonIntMin<T>,
        int64_t hi = kJsonIntMax<T>)
{
    if (v.type() != JsonValue::Type::Int ||
        v.asInt() < std::max(lo, kJsonIntMin<T>) ||
        v.asInt() > std::min(hi, kJsonIntMax<T>))
        return false;
    out = static_cast<T>(v.asInt());
    return true;
}

/** readInt on member @p key of object @p obj. */
template <std::integral T>
bool
readInt(const JsonValue &obj, const std::string &key, T &out,
        int64_t lo = kJsonIntMin<T>, int64_t hi = kJsonIntMax<T>)
{
    return obj.has(key) && readInt(obj.at(key), out, lo, hi);
}

/** Read string node @p v, or member @p key of @p obj. */
bool readString(const JsonValue &v, std::string &out);
bool readString(const JsonValue &obj, const std::string &key,
                std::string &out);

/** Read bool node @p v, or member @p key of @p obj. */
bool readBool(const JsonValue &v, bool &out);
bool readBool(const JsonValue &obj, const std::string &key, bool &out);

/** Read a u64ToHex string node. */
bool readHex(const JsonValue &v, uint64_t &out);

/** Append integers @p xs to array @p arr. */
template <std::integral... T>
void
appendInts(JsonValue &arr, T... xs)
{
    (arr.append(JsonValue::integer(static_cast<int64_t>(xs))), ...);
}

/** @p xs as an integer array. */
template <std::integral T>
JsonValue
intsToJson(const std::vector<T> &xs)
{
    JsonValue out = JsonValue::array();
    for (T x : xs)
        appendInts(out, x);
    return out;
}

/** Read integer array @p v, every element in [lo, hi], into @p out
 *  (resized to its length; untouched unless @p v is an array). */
template <std::integral T>
bool
readInts(const JsonValue &v, std::vector<T> &out,
         int64_t lo = kJsonIntMin<T>, int64_t hi = kJsonIntMax<T>)
{
    if (v.type() != JsonValue::Type::Array)
        return false;
    out.resize(v.size());
    for (size_t i = 0; i < out.size(); ++i)
        if (!readInt(v.at(i), out[i], lo, hi))
            return false;
    return true;
}

/** Read a 0/1 flag array of exactly flags.size() elements. */
bool readFlags(const JsonValue &v, std::vector<uint8_t> &flags);

/** Read a whole file; returns false on I/O failure. */
bool readFile(const std::string &path, std::string &out);

/** Write a whole file; returns false on I/O failure. */
bool writeFile(const std::string &path, const std::string &content);

} // namespace nscs

#endif // NSCS_UTIL_JSON_HH
