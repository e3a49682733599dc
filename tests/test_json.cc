/**
 * @file
 * Tests for the JSON parser: everything Json::dump() can emit must
 * round-trip — parse(dump(x)) == x structurally and, crucially for
 * bh_farm's commit-and-replay path, dump(parse(dump(x))) == dump(x)
 * byte for byte (including bit-exact doubles). Plus malformed-input
 * rejection.
 */

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/rng.hh"

namespace bh
{
namespace
{

Json
parseOk(const std::string &text)
{
    Json out;
    std::string err;
    EXPECT_TRUE(Json::parse(text, out, &err)) << text << ": " << err;
    return out;
}

void
expectRoundTrip(const Json &j)
{
    std::string compact = j.dump();
    Json reparsed = parseOk(compact);
    EXPECT_EQ(reparsed.dump(), compact);
    // Pretty-printed output parses back to the same compact form.
    Json pretty = parseOk(j.dump(2));
    EXPECT_EQ(pretty.dump(), compact);
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_EQ(parseOk("true").asBool(), true);
    EXPECT_EQ(parseOk("false").asBool(), false);
    EXPECT_EQ(parseOk("42").asInt(), 42);
    EXPECT_EQ(parseOk("-17").asInt(), -17);
    EXPECT_EQ(parseOk("0.5").asDouble(), 0.5);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseOk("  42  ").asInt(), 42);
}

TEST(JsonParse, IntegerClassificationPreservesBytes)
{
    // Tokens that round-trip through std::to_string stay integers...
    EXPECT_EQ(parseOk("7").type(), Json::Type::Int);
    EXPECT_EQ(parseOk("-9223372036854775808").asInt(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parseOk("9223372036854775807").asInt(),
              std::numeric_limits<std::int64_t>::max());
    // ...while "-0" and out-of-int64 magnitudes become doubles so that
    // re-dumping reproduces the original bytes.
    Json neg_zero = parseOk("-0");
    EXPECT_EQ(neg_zero.type(), Json::Type::Double);
    EXPECT_EQ(neg_zero.dump(), "-0");
    Json big = parseOk("18446744073709551615");
    EXPECT_EQ(big.type(), Json::Type::Double);
    EXPECT_EQ(parseOk("2.0").type(), Json::Type::Double);
    EXPECT_EQ(parseOk("1e3").type(), Json::Type::Double);
}

TEST(JsonParse, DoubleBitExactness)
{
    for (double v : {0.1, 1.0 / 3.0, 2.5e-300, 1.7976931348623157e308,
                     5e-324, 0.30000000000000004, -123.456e-7}) {
        Json j = parseOk(Json::formatDouble(v));
        EXPECT_EQ(j.asDouble(), v);     // bit-identical value
        EXPECT_EQ(j.dump(), Json::formatDouble(v));
    }
    // Non-finite encoding: the serializer writes +/-1e999, which parses
    // back to infinity and re-dumps identically.
    EXPECT_TRUE(std::isinf(parseOk("1e999").asDouble()));
    EXPECT_EQ(parseOk("1e999").dump(), "1e999");
    EXPECT_EQ(parseOk("-1e999").dump(), "-1e999");
    // NaN serializes as null; parsing keeps the dump bytes stable.
    EXPECT_EQ(parseOk(Json::formatDouble(
        std::numeric_limits<double>::quiet_NaN())).dump(), "null");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\\"b\\\\c\"").asString(), "a\"b\\c");
    EXPECT_EQ(parseOk("\"\\n\\t\\r\\b\\f\\/\"").asString(),
              "\n\t\r\b\f/");
    EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseOk("\"\\u20ac\"").asString(), "\xe2\x82\xac");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    // Control characters dump as \u00XX and round-trip.
    Json j(std::string("\x01\x02nul\x1f"));
    expectRoundTrip(j);
}

TEST(JsonParse, NestedDocumentsRoundTrip)
{
    Json doc = Json::object();
    doc["ints"] = Json::array();
    doc["ints"].push(1).push(-2).push(std::int64_t{1} << 62);
    doc["nested"] = Json::object();
    doc["nested"]["deep"] = Json::array();
    doc["nested"]["deep"].push(Json::object());
    doc["nested"]["empty_arr"] = Json::array();
    doc["nested"]["empty_obj"] = Json::object();
    doc["pi"] = 3.141592653589793;
    doc["s"] = "tab\there \"and\" unicode \xc3\xa9";
    doc["flag"] = false;
    doc["nothing"] = Json();
    expectRoundTrip(doc);
}

TEST(JsonParse, DuplicateKeysCollapseToLast)
{
    Json j = parseOk("{\"a\":1,\"a\":2}");
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(j.find("a")->asInt(), 2);
}

TEST(JsonParse, RejectsMalformedInput)
{
    Json out;
    for (const char *bad :
         {"", "{", "[1,", "[1 2]", "{\"a\":}", "{\"a\" 1}", "{a:1}",
          "\"unterminated", "\"bad\\q\"", "\"\\u12g4\"", "tru", "nul",
          "1.2.3", "--4", "+1", "[1]]", "{}{}", "\"\\ud83d\"",
          "\"raw\ncontrol\"", "01a", "012", ".5", "5.", "-.5", "1e",
          "1e+", "0x10"}) {
        std::string err;
        EXPECT_FALSE(Json::parse(bad, out, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonParse, RejectsPathologicalNesting)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    Json out;
    EXPECT_FALSE(Json::parse(deep, out));
    // A depth comfortably under the limit parses fine.
    std::string ok(100, '[');
    ok += "7";
    ok += std::string(100, ']');
    EXPECT_TRUE(Json::parse(ok, out));
}

/** Random document generator for the fuzz-ish round-trip sweep. */
Json
randomJson(Rng &rng, int depth)
{
    // Leaves only below a depth cap; containers get rarer with depth.
    std::uint64_t pick = rng.below(depth >= 5 ? 5 : 7);
    switch (pick) {
        case 0:
            return Json();
        case 1:
            return Json(rng.chance(0.5));
        case 2: {
            switch (rng.below(4)) {
                case 0: return Json(static_cast<std::int64_t>(rng.next()));
                case 1: return Json(std::numeric_limits<std::int64_t>::min());
                case 2: return Json(std::numeric_limits<std::int64_t>::max());
                default: return Json(rng.range(-1000, 1000));
            }
        }
        case 3: {
            switch (rng.below(4)) {
                case 0: return Json(rng.uniform());
                case 1: return Json(rng.uniform() * 1e300);
                case 2: return Json(rng.uniform() * 1e-300);
                default: return Json(-rng.uniform() * 12345.678);
            }
        }
        case 4: {
            std::string s;
            std::uint64_t len = rng.below(12);
            for (std::uint64_t i = 0; i < len; ++i) {
                switch (rng.below(5)) {
                    case 0: s += static_cast<char>(rng.range(0, 0x1f)); break;
                    case 1: s += '"'; break;
                    case 2: s += '\\'; break;
                    case 3: s += "\xc3\xa9"; break;   // é as raw UTF-8
                    default:
                        s += static_cast<char>(rng.range(' ', '~'));
                }
            }
            return Json(std::move(s));
        }
        case 5: {
            Json arr = Json::array();
            std::uint64_t n = rng.below(4);
            for (std::uint64_t i = 0; i < n; ++i)
                arr.push(randomJson(rng, depth + 1));
            return arr;
        }
        default: {
            Json obj = Json::object();
            std::uint64_t n = rng.below(4);
            for (std::uint64_t i = 0; i < n; ++i)
                obj["k" + std::to_string(rng.below(1000)) +
                    std::string(rng.below(2), '"')] =
                    randomJson(rng, depth + 1);
            return obj;
        }
    }
}

TEST(JsonParse, FuzzRoundTripRandomDocuments)
{
    Rng rng(20260728);
    for (int iter = 0; iter < 300; ++iter) {
        Json doc = randomJson(rng, 0);
        std::string compact = doc.dump();
        Json reparsed;
        std::string err;
        ASSERT_TRUE(Json::parse(compact, reparsed, &err))
            << compact << ": " << err;
        EXPECT_EQ(reparsed.dump(), compact);
        Json pretty;
        ASSERT_TRUE(Json::parse(doc.dump(3), pretty, &err)) << err;
        EXPECT_EQ(pretty.dump(), compact);
    }
}

} // namespace
} // namespace bh
