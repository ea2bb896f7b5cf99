#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace pimcomp {
namespace {

TEST(JsonValue, Scalars) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_FALSE(Json(false).as_bool());
  EXPECT_DOUBLE_EQ(Json(3.5).as_number(), 3.5);
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_EQ(Json("hello").as_string(), "hello");
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(Json(1.0).as_string(), JsonError);
  EXPECT_THROW(Json("x").as_number(), JsonError);
  EXPECT_THROW(Json().as_bool(), JsonError);
  EXPECT_THROW(Json(1).at("key"), JsonError);
  EXPECT_THROW(Json(1).at(std::size_t{0}), JsonError);
}

TEST(JsonValue, ArrayOperations) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json::array());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(std::size_t{0}).as_int(), 1);
  EXPECT_EQ(arr.at(1).as_string(), "two");
  EXPECT_THROW(arr.at(3), JsonError);
}

TEST(JsonValue, ObjectOperations) {
  Json obj = Json::object();
  obj["a"] = 1;
  obj["b"] = "text";
  obj["a"] = 2;  // overwrite
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("z"));
  EXPECT_EQ(obj.at("a").as_int(), 2);
  EXPECT_EQ(obj.size(), 2u);
  EXPECT_THROW(obj.at("missing"), JsonError);
}

TEST(JsonValue, GetWithFallback) {
  Json obj = Json::object();
  obj["x"] = 5;
  EXPECT_EQ(obj.get("x", 0), 5);
  EXPECT_EQ(obj.get("y", 7), 7);
  EXPECT_EQ(obj.get("name", std::string("none")), "none");
  EXPECT_TRUE(obj.get("flag", true));
}

TEST(JsonValue, IntegerAccessorsAcceptOnlyExactIntegers) {
  // Untrusted numbers that are not integers, or do not fit, are refused
  // instead of rounded or wrapped.
  for (const char* text :
       {"1e300", "9.3e18", "0.5", "2.5", "9223372036854775808"}) {
    const Json number = Json::parse(text);
    EXPECT_THROW(number.as_int(), JsonError) << text;
  }
  EXPECT_EQ(Json::parse("-0").as_int(), 0);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("4e3").as_int(), 4000);

  const Json obj =
      Json::parse(R"({"max": 2147483647, "over": 2147483648, "half": 0.5})");
  EXPECT_EQ(obj.get("max", 0), std::numeric_limits<int>::max());
  EXPECT_THROW(obj.get("over", 0), JsonError);
  EXPECT_EQ(obj.get("over", std::int64_t{0}), std::int64_t{2147483648});
  EXPECT_THROW(obj.get("half", 0), JsonError);
  EXPECT_THROW(obj.get("half", std::int64_t{0}), JsonError);
  EXPECT_THROW(Json::parse(R"({"x": -2147483649})").get("x", 0), JsonError);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = 1;
  obj["apple"] = 2;
  obj["mango"] = 3;
  const auto& items = obj.items();
  EXPECT_EQ(items[0].first, "zebra");
  EXPECT_EQ(items[1].first, "apple");
  EXPECT_EQ(items[2].first, "mango");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(Json::parse("\"str\"").as_string(), "str");
}

TEST(JsonParse, NestedDocument) {
  const Json doc = Json::parse(R"({
    "name": "vgg16",
    "input": [3, 224, 224],
    "nodes": [{"op": "conv", "stride": 1}, {"op": "pool"}]
  })");
  EXPECT_EQ(doc.at("name").as_string(), "vgg16");
  EXPECT_EQ(doc.at("input").size(), 3u);
  EXPECT_EQ(doc.at("input").at(1).as_int(), 224);
  EXPECT_EQ(doc.at("nodes").at(std::size_t{0}).at("op").as_string(), "conv");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb")").as_string(), "a\nb");
  EXPECT_EQ(Json::parse(R"("q\"q")").as_string(), "q\"q");
  EXPECT_EQ(Json::parse(R"("back\\slash")").as_string(), "back\\slash");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(Json::parse("  [ 1 , 2 ]  ").size(), 2u);
  EXPECT_EQ(Json::parse("{ }").size(), 0u);
  EXPECT_EQ(Json::parse("[]").size(), 0u);
}

TEST(JsonParse, MalformedThrows) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("[1] trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(JsonParse, RejectsDeepNesting) {
  // A 200 KB line of brackets is a JsonError, not a stack overflow.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  EXPECT_THROW(Json::parse(std::string(100000, '[') + std::string(100000, ']')),
               JsonError);
  EXPECT_THROW(Json::parse(std::string(100000, '{')), JsonError);
  const auto nested = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += i % 2 == 0 ? "[" : "{\"k\":";
    text += "0";
    for (int i = depth - 1; i >= 0; --i) text += i % 2 == 0 ? "]" : "}";
    return text;
  };
  EXPECT_NO_THROW(Json::parse(nested(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), JsonError);
  try {
    Json::parse(std::string(100000, '['));
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("nests deeper than 512"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonParse, NumbersFollowRfc8259) {
  // Each of these was once accepted, some as a prefix ([1-2] read as [1]).
  for (const char* bad :
       {"[1-2]", "1.2.3", "+5", "01", "-01", "1e", "1e+", ".5", "-", "1.",
        "--1", "0x10", "[1,+2]", "{\"a\":01}", "1.e5", "1e5.0", "Infinity",
        "NaN", "-Infinity", "1e400", "-1e400"}) {
    EXPECT_THROW(Json::parse(bad), JsonError) << bad;
  }
  const Json negative_zero = Json::parse("-0");
  EXPECT_EQ(negative_zero.as_number(), 0.0);
  EXPECT_TRUE(std::signbit(negative_zero.as_number()));
  EXPECT_EQ(Json::parse("1E5").as_number(), 100000.0);
  EXPECT_EQ(Json::parse("2.5e-3").as_number(), 2.5e-3);
  EXPECT_EQ(Json::parse("-1.5E+2").as_number(), -150.0);
  EXPECT_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_EQ(Json::parse("123456789012345678").as_number(),
            123456789012345678.0);
  EXPECT_EQ(Json::parse("[-7,0e0,1e-2]").dump(-1), "[-7,0,0.01]");
  // Subnormals are numbers too: dump can emit them, so parse reads them.
  EXPECT_EQ(Json::parse("4.9406564584124654e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
}

TEST(JsonParse, RepeatedKeyKeepsTheFirstSlotAndTheLastValue) {
  const Json small = Json::parse(R"({"a":1,"b":2,"a":3})");
  ASSERT_EQ(small.size(), 2u);
  EXPECT_EQ(small.items()[0].first, "a");
  EXPECT_EQ(small.items()[0].second.as_int(), 3);
  EXPECT_EQ(small.items()[1].first, "b");
  // Objects past the parser's key-index threshold follow the same rule.
  std::string text = "{";
  for (int i = 0; i < 40; ++i) text += "\"k" + std::to_string(i) + "\":0,";
  text += R"("k3":"late","k39":"last"})";
  const Json large = Json::parse(text);
  ASSERT_EQ(large.size(), 40u);
  EXPECT_EQ(large.items()[3].first, "k3");
  EXPECT_EQ(large.items()[3].second.as_string(), "late");
  EXPECT_EQ(large.items()[39].second.as_string(), "last");
}

TEST(JsonValue, CopiesAreDeepAndMovesLeaveNull) {
  Json original = Json::parse(R"({"a":[1,{"b":"text"}]})");
  Json copy = original;
  copy["a"].push_back(2);
  EXPECT_EQ(original.dump(-1), R"({"a":[1,{"b":"text"}]})");
  EXPECT_EQ(copy.dump(-1), R"({"a":[1,{"b":"text"},2]})");
  Json moved = std::move(copy);
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.at("a").size(), 3u);
  // Assigning a value its own child: the child is detached first.
  moved = std::move(moved["a"]);
  EXPECT_EQ(moved.dump(-1), R"([1,{"b":"text"},2])");
  moved = moved.at(1);
  EXPECT_EQ(moved.dump(-1), R"({"b":"text"})");
  EXPECT_EQ(sizeof(Json), 16u);
}

TEST(JsonDump, NumbersMatchPrintfShortestRoundTrip) {
  // Non-integral values print as %.17g, integral ones below 9e15 as
  // integers, whatever formatter produces them.
  Rng rng(42);
  std::vector<double> values = {0.1, -2.5e-3, 1e300, -1e-300, 9.5e15,
                                9.0e15, 8.9e15, 1.0 / 3.0, 5e-324,
                                std::numeric_limits<double>::max()};
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t bits = rng.next_u64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(d)) values.push_back(d);
  }
  for (double d : values) {
    char expected[48];
    if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
      std::snprintf(expected, sizeof(expected), "%lld",
                    static_cast<long long>(std::llround(d)));
    } else {
      std::snprintf(expected, sizeof(expected), "%.17g", d);
    }
    EXPECT_EQ(Json(d).dump(-1), expected);
    EXPECT_EQ(Json::parse(expected).as_number(), d) << expected;
  }
}

TEST(JsonDump, CompactAndPretty) {
  Json obj = Json::object();
  obj["a"] = 1;
  Json arr = Json::array();
  arr.push_back(2);
  obj["b"] = std::move(arr);
  EXPECT_EQ(obj.dump(-1), "{\"a\":1,\"b\":[2]}");
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(obj.dump(0), "{\n\"a\": 1,\n\"b\": [\n2\n]\n}");
}

TEST(JsonDump, IntegersStayIntegral) {
  EXPECT_EQ(Json(1000000).dump(-1), "1000000");
  EXPECT_EQ(Json(static_cast<std::int64_t>(1) << 40).dump(-1),
            "1099511627776");
}

class JsonRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(JsonRoundTrip, ParseDumpParseIsStable) {
  const Json first = Json::parse(GetParam());
  const std::string dumped = first.dump(-1);
  const Json second = Json::parse(dumped);
  EXPECT_EQ(second.dump(-1), dumped);
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTrip,
    ::testing::Values(
        R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})",
        R"([1,2,3,[4,[5]]])", R"("plain string")", R"(3.14159)",
        R"({"empty_obj":{},"empty_arr":[]})",
        R"({"esc":"line\nbreak\ttab"})"));

}  // namespace
}  // namespace pimcomp
