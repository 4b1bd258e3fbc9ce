#include "pipeline/csv.h"

#include <sstream>

#include <gtest/gtest.h>

namespace fungusdb {
namespace {

Schema MixedSchema() {
  return Schema::Make({{"id", DataType::kInt64, false},
                       {"score", DataType::kFloat64, true},
                       {"name", DataType::kString, false},
                       {"ok", DataType::kBool, false}})
      .value();
}

TEST(SplitCsvLineTest, PlainFields) {
  const auto fields = SplitCsvLine("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLineTest, EmptyFieldsPreserved) {
  const auto fields = SplitCsvLine("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitCsvLineTest, QuotedFieldsWithDelimiterAndEscapes) {
  const auto fields = SplitCsvLine("\"a,b\",\"say \"\"hi\"\"\"", ',');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "say \"hi\"");
}

TEST(SplitCsvLineTest, TrailingCarriageReturnDropped) {
  const auto fields = SplitCsvLine("a,b\r", ',');
  EXPECT_EQ(fields[1], "b");
}

TEST(ParseCsvFieldTest, TypedParsing) {
  EXPECT_EQ(ParseCsvField("42", DataType::kInt64, true)->AsInt64(), 42);
  EXPECT_DOUBLE_EQ(
      ParseCsvField("2.5", DataType::kFloat64, true)->AsFloat64(), 2.5);
  EXPECT_TRUE(ParseCsvField("true", DataType::kBool, true)->AsBool());
  EXPECT_FALSE(ParseCsvField("0", DataType::kBool, true)->AsBool());
  EXPECT_EQ(
      ParseCsvField("99", DataType::kTimestamp, true)->AsTimestamp(), 99);
  EXPECT_EQ(ParseCsvField("x", DataType::kString, true)->AsString(), "x");
}

TEST(ParseCsvFieldTest, EmptyBecomesNull) {
  EXPECT_TRUE(ParseCsvField("", DataType::kInt64, true)->is_null());
  // Strings keep the empty string.
  EXPECT_EQ(ParseCsvField("", DataType::kString, true)->AsString(), "");
  // With empty_is_null off, empty numerics are parse errors.
  EXPECT_FALSE(ParseCsvField("", DataType::kInt64, false).ok());
}

TEST(ParseCsvFieldTest, MalformedFieldsFail) {
  EXPECT_FALSE(ParseCsvField("abc", DataType::kInt64, true).ok());
  EXPECT_FALSE(ParseCsvField("1.5x", DataType::kFloat64, true).ok());
  EXPECT_FALSE(ParseCsvField("maybe", DataType::kBool, true).ok());
}

TEST(ParseCsvFieldTest, OutOfRangeIntegersFail) {
  // Saturating to INT64_MAX would store a value nobody sent.
  EXPECT_FALSE(
      ParseCsvField("99999999999999999999", DataType::kInt64, true).ok());
  EXPECT_FALSE(
      ParseCsvField("-99999999999999999999", DataType::kTimestamp, true).ok());
  EXPECT_FALSE(ParseCsvField("7 ", DataType::kInt64, true).ok());
}

TEST(ParseCsvRowTest, TypedRowAgainstTheSchema) {
  const std::vector<Value> row =
      ParseCsvRow(MixedSchema(), "7,,\"a,b\",true").value();
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].AsInt64(), 7);
  EXPECT_TRUE(row[1].is_null());  // nullable column
  EXPECT_EQ(row[2].AsString(), "a,b");
  EXPECT_TRUE(row[3].AsBool());
}

TEST(ParseCsvRowTest, ErrorsNameTheFaultyPart) {
  const Status count = ParseCsvRow(MixedSchema(), "7,1.5,x").status();
  EXPECT_EQ(count.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(count.message(), "expected 4 fields, got 3");
  const Status field = ParseCsvRow(MixedSchema(), "seven,1,x,true").status();
  EXPECT_EQ(field.code(), StatusCode::kParseError);
  EXPECT_EQ(field.message(), "not an int64: 'seven'");
  // Non-nullable: an empty id is not null, it is a bad int64.
  EXPECT_FALSE(ParseCsvRow(MixedSchema(), ",1,x,true").ok());
}

TEST(CsvSourceTest, ReadsRecordsSkippingHeader) {
  std::istringstream input(
      "id,score,name,ok\n"
      "1,2.5,alice,true\n"
      "2,,bob,false\n");
  CsvSource source(&input, MixedSchema());
  auto r1 = source.Next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ((*r1)[0].AsInt64(), 1);
  EXPECT_EQ((*r1)[2].AsString(), "alice");
  auto r2 = source.Next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE((*r2)[1].is_null());
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_TRUE(source.status().ok());
  EXPECT_EQ(source.records_read(), 2u);
}

TEST(CsvSourceTest, NoHeaderMode) {
  std::istringstream input("5,1.0,x,true\n");
  CsvOptions options;
  options.has_header = false;
  CsvSource source(&input, MixedSchema(), options);
  ASSERT_TRUE(source.Next().has_value());
  EXPECT_FALSE(source.Next().has_value());
}

TEST(CsvSourceTest, BlankLinesSkipped) {
  std::istringstream input("1,1.0,a,true\n\n   \n2,2.0,b,false\n");
  CsvOptions options;
  options.has_header = false;
  CsvSource source(&input, MixedSchema(), options);
  EXPECT_TRUE(source.Next().has_value());
  EXPECT_TRUE(source.Next().has_value());
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_TRUE(source.status().ok());
}

TEST(CsvSourceTest, ArityMismatchStopsWithError) {
  std::istringstream input("1,2.0,a,true\n1,2.0\n");
  CsvOptions options;
  options.has_header = false;
  CsvSource source(&input, MixedSchema(), options);
  EXPECT_TRUE(source.Next().has_value());
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_EQ(source.status().code(), StatusCode::kParseError);
  EXPECT_NE(source.status().message().find("line 2"), std::string::npos);
}

TEST(CsvSourceTest, TypeErrorStopsWithError) {
  std::istringstream input("oops,2.0,a,true\n");
  CsvOptions options;
  options.has_header = false;
  CsvSource source(&input, MixedSchema(), options);
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_EQ(source.status().code(), StatusCode::kParseError);
}

TEST(WriteCsvTest, TableRoundTrip) {
  Table t("t", MixedSchema());
  t.Append({Value::Int64(1), Value::Float64(0.5), Value::String("a,b"),
            Value::Bool(true)},
           100)
      .value();
  t.Append({Value::Int64(2), Value::Null(), Value::String("plain"),
            Value::Bool(false)},
           200)
      .value();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());

  std::istringstream in(out.str());
  CsvSource source(&in, MixedSchema());
  auto r1 = source.Next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ((*r1)[2].AsString(), "a,b");
  auto r2 = source.Next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE((*r2)[1].is_null());
  EXPECT_FALSE((*r2)[3].AsBool());
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_TRUE(source.status().ok());
}

TEST(WriteCsvTest, SystemColumnsOptIn) {
  Table t("t", MixedSchema());
  t.Append({Value::Int64(1), Value::Float64(0.5), Value::String("x"),
            Value::Bool(true)},
           1234)
      .value();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out, CsvOptions{},
                       /*include_system_columns=*/true)
                  .ok());
  EXPECT_NE(out.str().find("__ts"), std::string::npos);
  EXPECT_NE(out.str().find("1234"), std::string::npos);
}

TEST(WriteCsvTest, SkipsDeadRows) {
  Table t("t", MixedSchema());
  t.Append({Value::Int64(1), Value::Null(), Value::String("dead"),
            Value::Bool(true)},
           0)
      .value();
  ASSERT_TRUE(t.Kill(0).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(t, out).ok());
  EXPECT_EQ(out.str().find("dead"), std::string::npos);
}

TEST(WriteCsvTest, ResultSetExport) {
  ResultSet rs;
  rs.column_names = {"n", "label"};
  rs.rows.push_back({Value::Int64(3), Value::String("he said \"hi\"")});
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(rs, out).ok());
  EXPECT_EQ(out.str(),
            "n,label\n3,\"he said \"\"hi\"\"\"\n");
}

TEST(FormatCsvFieldTest, QuotingRules) {
  EXPECT_EQ(FormatCsvField(Value::String("plain"), ','), "plain");
  EXPECT_EQ(FormatCsvField(Value::String("a,b"), ','), "\"a,b\"");
  EXPECT_EQ(FormatCsvField(Value::String("q\"q"), ','), "\"q\"\"q\"");
  EXPECT_EQ(FormatCsvField(Value::Null(), ','), "");
}

}  // namespace
}  // namespace fungusdb
