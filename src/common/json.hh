/**
 * @file
 * Minimal JSON value with deterministic serialization and a parser that
 * round-trips it, used for the machine-readable BENCH_*.json experiment
 * outputs, the bh_farm commit records, and the bh_collect tools.
 *
 * Object keys keep insertion order and doubles print as the shortest
 * round-trip decimal, so two runs that compute identical values serialize
 * to byte-identical files regardless of thread count or platform locale.
 * The parser preserves those properties in reverse: for every value this
 * module can dump, dump(parse(dump(x))) == dump(x) byte for byte, and
 * parsed doubles are bit-identical to the ones that were serialized.
 */

#ifndef BH_COMMON_JSON_HH
#define BH_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bh
{

/** Ordered JSON value (null, bool, int, double, string, array, object). */
class Json
{
  public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    Json() = default;
    Json(bool v) : type_(Type::Bool), boolVal(v) {}
    Json(int v) : type_(Type::Int), intVal(v) {}
    Json(unsigned v) : type_(Type::Int), intVal(v) {}
    Json(std::int64_t v) : type_(Type::Int), intVal(v) {}
    Json(std::uint64_t v) : type_(Type::Int), intVal(static_cast<std::int64_t>(v)) {}
    Json(double v) : type_(Type::Double), dblVal(v) {}
    Json(const char *v) : type_(Type::String), strVal(v) {}
    Json(std::string v) : type_(Type::String), strVal(std::move(v)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }

    /** Object access: inserts a null member on first use (insertion order). */
    Json &operator[](const std::string &key);

    /** Object lookup without insertion; nullptr when absent. */
    const Json *find(const std::string &key) const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &
    objectItems() const
    {
        return members;
    }

    /** Array append; returns the array for chaining. */
    Json &push(Json value);

    /** Array element access (must be an array). */
    const Json &at(std::size_t index) const;
    std::size_t size() const;

    bool asBool() const { return boolVal; }
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const { return strVal; }

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Shortest decimal that round-trips to exactly `v`. */
    static std::string formatDouble(double v);

    /**
     * Parse JSON text into `out`. Returns false on malformed input and,
     * when `err` is non-null, stores a message naming the byte offset.
     * Accepts exactly the grammar dump() emits plus standard JSON
     * (any whitespace, \uXXXX escapes with surrogate pairs, numbers in
     * scientific notation; "1e999" overflows to infinity, matching the
     * serializer's encoding of non-finite values).
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *err = nullptr);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool boolVal = false;
    std::int64_t intVal = 0;
    double dblVal = 0.0;
    std::string strVal;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> members;
};

} // namespace bh

#endif // BH_COMMON_JSON_HH
