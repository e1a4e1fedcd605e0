// The bench harness JSON value type: exact double round-trips, ordered
// object keys, strict parsing with byte-offset errors.
#include "perf/json.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace rbx {
namespace perf {
namespace {

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(Json::null().dump(-1), "null");
  EXPECT_EQ(Json::boolean(true).dump(-1), "true");
  EXPECT_EQ(Json::boolean(false).dump(-1), "false");
  EXPECT_EQ(Json::number(42).dump(-1), "42");
  EXPECT_EQ(Json::string("hi").dump(-1), "\"hi\"");

  EXPECT_TRUE(Json::parse("null").kind() == Json::Kind::kNull);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"a b\"").as_string(), "a b");
}

TEST(JsonTest, DoublesRoundTripBitwise) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           6225.8437,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::epsilon(),
                           1e-308};
  for (double v : values) {
    const std::string text = Json::number(v).dump(-1);
    const double back = Json::parse(text).as_number();
    EXPECT_EQ(back, v) << text;
  }
  // Non-finite doubles have no JSON spelling; they serialize as null
  // rather than emitting an unparseable token.
  EXPECT_EQ(Json::number(std::nan("")).dump(-1), "null");
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(-1),
            "null");
}

TEST(JsonTest, ObjectKeepsInsertionOrder) {
  Json o = Json::object();
  o.set("zeta", Json::number(1));
  o.set("alpha", Json::number(2));
  o.set("mid", Json::number(3));
  EXPECT_EQ(o.dump(-1), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
  // set() on an existing key overwrites in place, keeping its position.
  o.set("alpha", Json::number(9));
  EXPECT_EQ(o.dump(-1), "{\"zeta\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonTest, NestedDumpParseRoundTrip) {
  Json root = Json::object();
  root.set("schema", Json::string("rbx-bench-v1"));
  Json arr = Json::array();
  Json k = Json::object();
  k.set("name", Json::string("spmv"));
  k.set("ns_median", Json::number(6225.8437));
  arr.push_back(k);
  root.set("kernels", arr);

  const Json back = Json::parse(root.dump());
  EXPECT_EQ(back.string_at("schema"), "rbx-bench-v1");
  const Json* kernels = back.find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_EQ(kernels->items().size(), 1u);
  EXPECT_EQ(kernels->items()[0].number_at("ns_median"), 6225.8437);
  // Re-dumping the parse is byte-identical: ordering and numbers are
  // stable through a full round trip.
  EXPECT_EQ(back.dump(), root.dump());
}

TEST(JsonTest, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\x01f";
  const std::string text = Json::string(raw).dump(-1);
  EXPECT_EQ(Json::parse(text).as_string(), raw);
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(JsonTest, StrictParseRejects) {
  EXPECT_THROW(Json::parse(""), json::Error);
  EXPECT_THROW(Json::parse("{"), json::Error);
  EXPECT_THROW(Json::parse("[1,]"), json::Error);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), json::Error);
  EXPECT_THROW(Json::parse("nul"), json::Error);
  EXPECT_THROW(Json::parse("1 2"), json::Error);  // trailing garbage
  EXPECT_THROW(Json::parse("\"\\x\""), json::Error);
  EXPECT_THROW(Json::parse("'single'"), json::Error);
}

TEST(JsonTest, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // The recursive descent once took one stack frame per '[' and died with
  // SIGSEGV on this input.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), json::Error);
  EXPECT_THROW(Json::parse(std::string(100000, '[') +
                           std::string(100000, ']')),
               json::Error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) {
    objects += "{\"k\":";
  }
  EXPECT_THROW(Json::parse(objects), json::Error);
  // A modest depth still parses.
  const Json nested =
      Json::parse(std::string(100, '[') + std::string(100, ']'));
  EXPECT_TRUE(nested.is_array());
}

TEST(JsonTest, OnlyJsonNumbersParse) {
  // strtod alone would read each of these as a number.
  for (const char* text :
       {"NaN", "Infinity", "-inf", "0x10", "+1", ".5", "01", "1e400", "-",
        "1.", "1e", "-01", "[NaN]", "{\"ns_median\": NaN}", "[1e400]"}) {
    EXPECT_THROW(Json::parse(text), json::Error) << text;
  }
  const double minus_zero = Json::parse("-0").as_number();
  EXPECT_EQ(minus_zero, 0.0);
  EXPECT_TRUE(std::signbit(minus_zero));
  EXPECT_EQ(Json::parse("0.5e3").as_number(), 500.0);
  EXPECT_EQ(Json::parse("1E+2").as_number(), 100.0);
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);  // underflow is finite
  EXPECT_EQ(Json::parse("[0,-1.25e-3]").items()[1].as_number(), -1.25e-3);
}

TEST(JsonTest, TypedAccessorsThrowOnMismatch) {
  const Json n = Json::number(1);
  EXPECT_THROW(n.as_string(), json::Error);
  EXPECT_THROW(n.items(), json::Error);
  EXPECT_THROW(n.number_at("x"), json::Error);
  Json o = Json::object();
  EXPECT_EQ(o.find("missing"), nullptr);
  EXPECT_THROW(o.number_at("missing"), json::Error);
  o.set("s", Json::string("x"));
  EXPECT_THROW(o.number_at("s"), json::Error);
}

}  // namespace
}  // namespace perf
}  // namespace rbx
