// Unit tests for common/: Status, Result, strings, table printer.
#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"

namespace sparktune {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("beta out of range");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: beta out of range");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
  EXPECT_EQ(Status::Unavailable("x").ToString(), "Unavailable: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "", "c"}, "|"), "a|b||c");
  EXPECT_EQ(StrJoin({}, "|"), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("spark.executor.cores", "spark."));
  EXPECT_FALSE(StartsWith("spark", "spark."));
}

TEST(StringsTest, PrettyDouble) {
  EXPECT_EQ(PrettyDouble(3.0), "3");
  EXPECT_EQ(PrettyDouble(12.50, 2), "12.5");
  EXPECT_EQ(PrettyDouble(0.12345, 3), "0.123");
}

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name      | value |"), std::string::npos);
  EXPECT_NE(s.find("| long-name | 22    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvQuotesCommas) {
  TablePrinter t({"a", "b"});
  t.AddRow({"x,y", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n\"x,y\",2\n");
}

}  // namespace
}  // namespace sparktune
