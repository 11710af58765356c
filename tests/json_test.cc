// Tests for the minimal JSON reader/writer used by the data repository.
#include <gtest/gtest.h>

#include "common/json.h"

namespace sparktune {
namespace {

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(Json::Null().Dump(), "null");
  EXPECT_EQ(Json::Bool(true).Dump(), "true");
  EXPECT_EQ(Json::Bool(false).Dump(), "false");
  EXPECT_EQ(Json::Number(42).Dump(), "42");
  EXPECT_EQ(Json::Number(-1.5).Dump(), "-1.5");
  EXPECT_EQ(Json::Str("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, EscapesSpecialCharacters) {
  Json s = Json::Str("a\"b\\c\nd");
  std::string dumped = s.Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json o = Json::Object();
  o.Set("z", Json::Number(1));
  o.Set("a", Json::Number(2));
  EXPECT_EQ(o.Dump(), "{\"z\":1,\"a\":2}");
}

TEST(JsonTest, SetOverwrites) {
  Json o = Json::Object();
  o.Set("k", Json::Number(1));
  o.Set("k", Json::Number(9));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_DOUBLE_EQ(o.Get("k")->AsNumber(), 9.0);
}

TEST(JsonTest, NestedRoundTrip) {
  Json doc = Json::Object();
  Json arr = Json::Array();
  arr.Append(Json::Number(1.25));
  arr.Append(Json::Str("x"));
  arr.Append(Json::Null());
  Json inner = Json::Object();
  inner.Set("flag", Json::Bool(true));
  arr.Append(std::move(inner));
  doc.Set("items", std::move(arr));

  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  const Json* items = parsed->Get("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 4u);
  EXPECT_DOUBLE_EQ(items->at(0).AsNumber(), 1.25);
  EXPECT_EQ(items->at(1).AsString(), "x");
  EXPECT_TRUE(items->at(2).is_null());
  EXPECT_TRUE(items->at(3).GetBoolOr("flag", false));
}

TEST(JsonTest, ParseWhitespaceAndNumbers) {
  auto r = Json::Parse("  { \"a\" : [ 1 , 2.5e2 , -3 ] }  ");
  ASSERT_TRUE(r.ok());
  const Json* a = r->Get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->at(1).AsNumber(), 250.0);
  EXPECT_DOUBLE_EQ(a->at(2).AsNumber(), -3.0);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
}

TEST(JsonTest, UnicodeEscapeDecodesToUtf8) {
  auto r = Json::Parse("\"\\u00e9\"");  // é
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsString(), "\xc3\xa9");
}

TEST(JsonTest, TypedGettersWithFallbacks) {
  auto r = Json::Parse("{\"n\":3,\"s\":\"v\",\"b\":true}");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->GetNumberOr("n", -1), 3.0);
  EXPECT_DOUBLE_EQ(r->GetNumberOr("missing", -1), -1.0);
  EXPECT_EQ(r->GetStringOr("s", ""), "v");
  EXPECT_EQ(r->GetStringOr("n", "fallback"), "fallback");  // wrong type
  EXPECT_TRUE(r->GetBoolOr("b", false));
}

TEST(JsonTest, CheckedIntegerGetter) {
  auto r = Json::Parse(
      "{\"i\":-7,\"max\":2147483647,\"over\":2147483648,\"frac\":2.5,"
      "\"big\":1e300,\"inf\":1e400,\"s\":\"3\",\"u\":9007199254740992,"
      "\"neg\":-1}");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->GetIntOr<int>("i", 0), -7);
  EXPECT_EQ(*r->GetIntOr<int>("max", 0), 2147483647);
  EXPECT_EQ(*r->GetIntOr<int>("missing", 42), 42);
  EXPECT_EQ(*r->GetIntOr<long long>("over", 0), 2147483648LL);
  EXPECT_EQ(*r->GetIntOr<uint64_t>("u", 0), 9007199254740992ULL);
  for (const char* key : {"over", "frac", "big", "inf", "s"}) {
    auto v = r->GetIntOr<int>(key, 0);
    ASSERT_FALSE(v.ok()) << key;
    EXPECT_EQ(v.status().code(), Status::Code::kInvalidArgument) << key;
  }
  EXPECT_FALSE(r->GetIntOr<long long>("big", 0).ok());
  EXPECT_FALSE(r->GetIntOr<uint64_t>("neg", 0).ok());
  // An array element goes through the same check.
  EXPECT_EQ(*Json::Number(-7).AsInt<long long>(), -7);
  for (double bad : {1e300, 2.5}) {
    EXPECT_EQ(Json::Number(bad).AsInt<long long>().status().code(),
              Status::Code::kInvalidArgument)
        << bad;
  }
  EXPECT_FALSE(Json::Str("3").AsInt<int>().ok());
}

TEST(JsonTest, ValueCodecs) {
  EXPECT_EQ(U64ToJson(0xdeadbeefULL).Dump(), "\"00000000deadbeef\"");
  const Json max = U64ToJson(~0ULL);
  EXPECT_EQ(U64FromJson(&max, 0), ~0ULL);
  const Json number = Json::Number(3.0);
  EXPECT_EQ(U64FromJson(&number, 7), 7u);
  EXPECT_EQ(U64FromJson(nullptr, 7), 7u);

  Json arr = Json::Array();
  arr.Append(Json::Number(1.5));
  arr.Append(Json::Str("x"));
  EXPECT_EQ(VectorFromJson(arr), (std::vector<double>{1.5, 0.0}));
  EXPECT_EQ(VectorToJson({1.5, -2.0}).Dump(), "[1.5,-2]");
  EXPECT_TRUE(VectorFromJson(Json::Object()).empty());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
}

TEST(JsonTest, LargeIntegersKeepPrecision) {
  Json n = Json::Number(123456789012.0);
  EXPECT_EQ(n.Dump(), "123456789012");
}

}  // namespace
}  // namespace sparktune
