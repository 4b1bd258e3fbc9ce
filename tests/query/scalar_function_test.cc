// Scalar builtins (abs/floor/ceil/round/length/lower/upper/time_bucket),
// each run through the engine as `SELECT <expr> FROM t`, and GROUP BY
// over aliased expressions — tumbling-window analytics.

#include <gtest/gtest.h>

#include "query/binder.h"
#include "query/engine.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

class ScalarFunctionTest : public ::testing::Test {
 protected:
  ScalarFunctionTest()
      : table_("t", Schema::Make({{"i", DataType::kInt64, false},
                                  {"f", DataType::kFloat64, true},
                                  {"s", DataType::kString, false}})
                        .value()) {
    table_
        .Append({Value::Int64(-5), Value::Float64(2.7),
                 Value::String("MiXeD")},
                /*now=*/90 * kMinute)
        .value();
  }

  /// `SELECT <expr_text> FROM <table>`'s one cell.
  static Result<Value> TryEval(const std::string& expr_text, Table& table) {
    FUNGUSDB_ASSIGN_OR_RETURN(
        Query q, ParseQuery("SELECT " + expr_text + " AS v FROM t"));
    FUNGUSDB_ASSIGN_OR_RETURN(ResultSet rs,
                              QueryEngine().Execute(q, table, 0));
    EXPECT_EQ(rs.num_rows(), 1u) << expr_text;
    return rs.at(0, 0);
  }

  Value Eval(const std::string& expr_text) {
    return TryEval(expr_text, table_).value();
  }

  Table table_;
};

TEST_F(ScalarFunctionTest, Abs) {
  EXPECT_EQ(Eval("abs(i)").AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Eval("abs(0.0 - f)").AsFloat64(), 2.7);
  EXPECT_EQ(Eval("abs(-7)").AsInt64(), 7);
}

TEST_F(ScalarFunctionTest, FloorCeilRound) {
  EXPECT_DOUBLE_EQ(Eval("floor(f)").AsFloat64(), 2.0);
  EXPECT_DOUBLE_EQ(Eval("ceil(f)").AsFloat64(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("round(f)").AsFloat64(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("round(2.4)").AsFloat64(), 2.0);
}

TEST_F(ScalarFunctionTest, StringFunctions) {
  EXPECT_EQ(Eval("length(s)").AsInt64(), 5);
  EXPECT_EQ(Eval("lower(s)").AsString(), "mixed");
  EXPECT_EQ(Eval("upper(s)").AsString(), "MIXED");
  EXPECT_EQ(Eval("length('')").AsInt64(), 0);
}

TEST_F(ScalarFunctionTest, TimeBucketTruncates) {
  // __ts is 90 minutes; hourly buckets start at 60 minutes.
  const std::string hour_us = std::to_string(kHour);
  EXPECT_EQ(Eval("time_bucket(__ts, " + hour_us + ")").AsTimestamp(),
            kHour);
  EXPECT_EQ(Eval("time_bucket(0, " + hour_us + ")").AsTimestamp(), 0);
}

TEST_F(ScalarFunctionTest, TimeBucketNegativeTimestampsFloor) {
  EXPECT_EQ(Eval("time_bucket(0 - 1, 100)").AsTimestamp(), -100);
  EXPECT_EQ(Eval("time_bucket(0 - 100, 100)").AsTimestamp(), -100);
  EXPECT_EQ(Eval("time_bucket(0 - 101, 100)").AsTimestamp(), -200);
}

TEST_F(ScalarFunctionTest, NullPropagates) {
  Table nulls("n",
              Schema::Make({{"f", DataType::kFloat64, true}}).value());
  nulls.Append({Value::Null()}, 0).value();
  EXPECT_TRUE(TryEval("floor(f)", nulls).value().is_null());
}

TEST_F(ScalarFunctionTest, TypeErrorsCaughtAtBind) {
  auto bind = [&](const std::string& text) {
    return Bind(*ParseExpression(text).value(), table_.schema()).status();
  };
  EXPECT_EQ(bind("abs(s)").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(bind("length(i)").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(bind("lower(f)").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(bind("time_bucket(__ts, 1.5)").code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(bind("time_bucket(f, 10)").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(bind("abs(i, f)").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bind("time_bucket(__ts)").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ScalarFunctionTest, ZeroWidthBucketIsRuntimeError) {
  EXPECT_FALSE(TryEval("time_bucket(__ts, 0)", table_).ok());
}

TEST_F(ScalarFunctionTest, UnknownFunctionStillFailsAtParse) {
  EXPECT_FALSE(ParseExpression("sqrt(f)").ok());
}

TEST(WindowedGroupByTest, TumblingWindowAggregation) {
  Table t("events",
          Schema::Make({{"v", DataType::kFloat64, false}}).value());
  // 3 events in hour 0, 2 in hour 1, 1 in hour 3.
  for (Timestamp ts : {5 * kMinute, 20 * kMinute, 59 * kMinute,
                       61 * kMinute, 100 * kMinute, 190 * kMinute}) {
    t.Append({Value::Float64(1.0)}, ts).value();
  }
  QueryEngine engine;
  Query q = ParseQuery("SELECT time_bucket(__ts, " +
                       std::to_string(kHour) +
                       ") AS w, count(*) AS n FROM events "
                       "GROUP BY w ORDER BY w")
                .value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.at(0, 0).AsTimestamp(), 0);
  EXPECT_EQ(rs.at(0, 1).AsInt64(), 3);
  EXPECT_EQ(rs.at(1, 0).AsTimestamp(), kHour);
  EXPECT_EQ(rs.at(1, 1).AsInt64(), 2);
  EXPECT_EQ(rs.at(2, 0).AsTimestamp(), 3 * kHour);
  EXPECT_EQ(rs.at(2, 1).AsInt64(), 1);
}

TEST(WindowedGroupByTest, AliasWinsOverColumnName) {
  // A select alias shadowing a real column: the alias expression is
  // what gets grouped on.
  Table t("t", Schema::Make({{"v", DataType::kInt64, false}}).value());
  for (int i = 0; i < 6; ++i) t.Append({Value::Int64(i)}, 0).value();
  QueryEngine engine;
  Query q = ParseQuery("SELECT v % 2 AS v, count(*) AS n FROM t "
                       "GROUP BY v ORDER BY v")
                .value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.at(0, 1).AsInt64(), 3);
  EXPECT_EQ(rs.at(1, 1).AsInt64(), 3);
}

TEST(WindowedGroupByTest, UngroupedExpressionStillRejected) {
  Table t("t", Schema::Make({{"v", DataType::kInt64, false}}).value());
  QueryEngine engine;
  Query q =
      ParseQuery("SELECT v % 2 AS m, count(*) FROM t GROUP BY v").value();
  EXPECT_EQ(engine.Execute(q, t, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WindowedGroupByTest, FunctionsInsideAggregates) {
  Table t("t", Schema::Make({{"v", DataType::kFloat64, false}}).value());
  t.Append({Value::Float64(-3.0)}, 0).value();
  t.Append({Value::Float64(4.0)}, 0).value();
  QueryEngine engine;
  Query q = ParseQuery("SELECT sum(abs(v)) AS s FROM t").value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  EXPECT_DOUBLE_EQ(rs.at(0, 0).AsFloat64(), 7.0);
}

}  // namespace
}  // namespace fungusdb
