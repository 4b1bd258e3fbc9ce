// Additional query-engine edge cases: aggregate/order interplay, limits
// on grouped output, consuming aggregates with grouping, and system
// columns inside aggregates.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "query/engine.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

class EngineEdgeTest : public ::testing::Test {
 protected:
  EngineEdgeTest()
      : table_("sales",
               Schema::Make({{"region", DataType::kString, false},
                             {"amount", DataType::kFloat64, false}})
                   .value()) {
    const char* regions[] = {"east", "west", "north"};
    for (int i = 0; i < 12; ++i) {
      table_
          .Append({Value::String(regions[i % 3]),
                   Value::Float64((i + 1) * 10.0)},
                  /*now=*/i * kMinute)
          .value();
    }
  }

  ResultSet Run(const std::string& sql) {
    Query q = ParseQuery(sql).value();
    return engine_.Execute(q, table_, /*now=*/kDay).value();
  }

  Table table_;
  QueryEngine engine_;
};

TEST_F(EngineEdgeTest, OrderByAggregateOutputColumn) {
  ResultSet rs = Run(
      "SELECT region, sum(amount) AS total FROM sales "
      "GROUP BY region ORDER BY total DESC");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_GE(rs.at(0, 1).AsFloat64(), rs.at(1, 1).AsFloat64());
  EXPECT_GE(rs.at(1, 1).AsFloat64(), rs.at(2, 1).AsFloat64());
}

TEST_F(EngineEdgeTest, LimitAppliesAfterGroupingAndOrdering) {
  ResultSet rs = Run(
      "SELECT region, count(*) AS n FROM sales "
      "GROUP BY region ORDER BY region LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "east");
  EXPECT_EQ(rs.at(1, 0).AsString(), "north");
}

TEST_F(EngineEdgeTest, ConsumingGroupedAggregate) {
  ResultSet rs = Run(
      "CONSUME SELECT region, sum(amount) AS total FROM sales "
      "WHERE region = 'east' GROUP BY region");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.stats.rows_consumed, 4u);
  EXPECT_EQ(table_.live_rows(), 8u);
  // Re-running yields an empty grouped result, not a stale one.
  ResultSet again = Run(
      "SELECT region, sum(amount) AS total FROM sales "
      "WHERE region = 'east' GROUP BY region");
  EXPECT_EQ(again.num_rows(), 0u);
}

TEST_F(EngineEdgeTest, MinMaxOnStrings) {
  ResultSet rs =
      Run("SELECT min(region) AS lo, max(region) AS hi FROM sales");
  EXPECT_EQ(rs.at(0, 0).AsString(), "east");
  EXPECT_EQ(rs.at(0, 1).AsString(), "west");
}

TEST_F(EngineEdgeTest, AggregateOverSystemColumns) {
  ResultSet rs = Run(
      "SELECT min(__ts) AS first, max(__ts) AS last, "
      "avg(__freshness) AS f FROM sales");
  EXPECT_EQ(rs.at(0, 0).AsTimestamp(), 0);
  EXPECT_EQ(rs.at(0, 1).AsTimestamp(), 11 * kMinute);
  EXPECT_DOUBLE_EQ(rs.at(0, 2).AsFloat64(), 1.0);
}

TEST_F(EngineEdgeTest, GroupByMultipleColumns) {
  Table t("t", Schema::Make({{"a", DataType::kInt64, false},
                             {"b", DataType::kInt64, false}})
                   .value());
  for (int i = 0; i < 8; ++i) {
    t.Append({Value::Int64(i % 2), Value::Int64(i % 4 / 2)}, 0).value();
  }
  QueryEngine engine;
  Query q = ParseQuery("SELECT a, b, count(*) AS n FROM t "
                       "GROUP BY a, b ORDER BY a")
                .value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  EXPECT_EQ(rs.num_rows(), 4u);
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    EXPECT_EQ(rs.at(r, 2).AsInt64(), 2);
  }
}

TEST_F(EngineEdgeTest, GroupKeysWithNulls) {
  Table t("t", Schema::Make({{"k", DataType::kInt64, true},
                             {"v", DataType::kInt64, false}})
                   .value());
  t.Append({Value::Null(), Value::Int64(1)}, 0).value();
  t.Append({Value::Null(), Value::Int64(2)}, 0).value();
  t.Append({Value::Int64(5), Value::Int64(3)}, 0).value();
  QueryEngine engine;
  Query q =
      ParseQuery("SELECT k, count(*) AS n FROM t GROUP BY k").value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  ASSERT_EQ(rs.num_rows(), 2u);
  // Null keys group together.
  int null_rows = 0;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    if (rs.at(r, 0).is_null()) {
      ++null_rows;
      EXPECT_EQ(rs.at(r, 1).AsInt64(), 2);
    }
  }
  EXPECT_EQ(null_rows, 1);
}

TEST_F(EngineEdgeTest, LimitZeroYieldsNoRows) {
  ResultSet rs = Run("SELECT * FROM sales LIMIT 0");
  EXPECT_EQ(rs.num_rows(), 0u);
  EXPECT_EQ(rs.stats.rows_matched, 12u);
}

TEST_F(EngineEdgeTest, WhereOnConstantFalse) {
  ResultSet rs = Run("SELECT * FROM sales WHERE 1 = 2");
  EXPECT_EQ(rs.num_rows(), 0u);
  EXPECT_EQ(rs.stats.rows_scanned, 12u);
}

TEST_F(EngineEdgeTest, EmptyTableAggregates) {
  Table empty("e",
              Schema::Make({{"v", DataType::kFloat64, false}}).value());
  QueryEngine engine;
  Query q = ParseQuery(
                "SELECT count(*) AS n, sum(v) AS s, min(v) AS lo FROM e")
                .value();
  ResultSet rs = engine.Execute(q, empty, 0).value();
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 0);
  EXPECT_TRUE(rs.at(0, 1).is_null());
  EXPECT_TRUE(rs.at(0, 2).is_null());
}

TEST_F(EngineEdgeTest, DistinctCollapsesDuplicates) {
  ResultSet rs = Run("SELECT DISTINCT region FROM sales ORDER BY region");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "east");
  EXPECT_EQ(rs.at(2, 0).AsString(), "west");
}

TEST_F(EngineEdgeTest, DistinctKeepsFirstOccurrenceOrder) {
  ResultSet rs = Run("SELECT DISTINCT region FROM sales");
  ASSERT_EQ(rs.num_rows(), 3u);
  // Insertion order was east, west, north.
  EXPECT_EQ(rs.at(0, 0).AsString(), "east");
  EXPECT_EQ(rs.at(1, 0).AsString(), "west");
  EXPECT_EQ(rs.at(2, 0).AsString(), "north");
}

TEST_F(EngineEdgeTest, DistinctOnMultipleColumns) {
  ResultSet rs = Run(
      "SELECT DISTINCT region, amount > 60 AS big FROM sales");
  EXPECT_EQ(rs.num_rows(), 6u);  // 3 regions x {true,false}
}

TEST_F(EngineEdgeTest, DistinctWithLimitAppliesAfterDedup) {
  ResultSet rs =
      Run("SELECT DISTINCT region FROM sales ORDER BY region LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.at(1, 0).AsString(), "north");
}

TEST_F(EngineEdgeTest, DistinctTreatsNullsAsOneGroup) {
  Table t("t", Schema::Make({{"v", DataType::kInt64, true}}).value());
  t.Append({Value::Null()}, 0).value();
  t.Append({Value::Null()}, 0).value();
  t.Append({Value::Int64(1)}, 0).value();
  QueryEngine engine;
  Query q = ParseQuery("SELECT DISTINCT v FROM t").value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  EXPECT_EQ(rs.num_rows(), 2u);
}

/// Float keys that Value::ToString's "%.6f" rendering conflates (1e-7,
/// 2e-7) or separates (-0.0, 0.0), plus NaN and NULL, in this order:
/// 1e-7, 2e-7, -0.0, NULL, 0.0, NaN, NULL, NaN.
Table FloatKeyTable() {
  Table t("t", Schema::Make({{"k", DataType::kFloat64, true}}).value());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Value& v :
       {Value::Float64(1e-7), Value::Float64(2e-7), Value::Float64(-0.0),
        Value::Null(), Value::Float64(0.0), Value::Float64(nan),
        Value::Null(), Value::Float64(nan)}) {
    t.Append({v}, 0).value();
  }
  return t;
}

TEST_F(EngineEdgeTest, GroupByFloatKeysUseValueEquality) {
  Table t = FloatKeyTable();
  QueryEngine engine;
  Query q =
      ParseQuery("SELECT k, count(*) AS n FROM t GROUP BY k").value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  // One group per value: 1e-7 and 2e-7 apart, -0.0 with 0.0, NaN with
  // NaN, NULL with NULL. Groups come out sorted by rendered key (NULL,
  // "-0.000000", "0.000000" twice, "nan"), ties in first-appearance
  // order; a group shows its first row's key.
  ASSERT_EQ(rs.num_rows(), 5u);
  EXPECT_TRUE(rs.at(0, 0).is_null());
  EXPECT_EQ(rs.at(0, 1).AsInt64(), 2);
  EXPECT_EQ(rs.at(1, 0).AsFloat64(), 0.0);
  EXPECT_TRUE(std::signbit(rs.at(1, 0).AsFloat64()));
  EXPECT_EQ(rs.at(1, 1).AsInt64(), 2);
  EXPECT_EQ(rs.at(2, 0).AsFloat64(), 1e-7);
  EXPECT_EQ(rs.at(2, 1).AsInt64(), 1);
  EXPECT_EQ(rs.at(3, 0).AsFloat64(), 2e-7);
  EXPECT_EQ(rs.at(3, 1).AsInt64(), 1);
  EXPECT_TRUE(std::isnan(rs.at(4, 0).AsFloat64()));
  EXPECT_EQ(rs.at(4, 1).AsInt64(), 2);
}

TEST_F(EngineEdgeTest, DistinctFloatKeysUseValueEquality) {
  Table t = FloatKeyTable();
  QueryEngine engine;
  Query q = ParseQuery("SELECT DISTINCT k FROM t").value();
  ResultSet rs = engine.Execute(q, t, 0).value();
  // First occurrences, in order: 1e-7, 2e-7, -0.0 (0.0 repeats it),
  // NULL, NaN.
  ASSERT_EQ(rs.num_rows(), 5u);
  EXPECT_EQ(rs.at(0, 0).AsFloat64(), 1e-7);
  EXPECT_EQ(rs.at(1, 0).AsFloat64(), 2e-7);
  EXPECT_TRUE(std::signbit(rs.at(2, 0).AsFloat64()));
  EXPECT_TRUE(rs.at(3, 0).is_null());
  EXPECT_TRUE(std::isnan(rs.at(4, 0).AsFloat64()));
}

TEST_F(EngineEdgeTest, DistinctRoundTripsThroughToString) {
  Query q = ParseQuery("SELECT DISTINCT region FROM sales").value();
  EXPECT_NE(q.ToString().find("DISTINCT"), std::string::npos);
  EXPECT_TRUE(ParseQuery(q.ToString()).ok());
}

}  // namespace
}  // namespace fungusdb
