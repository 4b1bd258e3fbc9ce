#include "query/engine.h"

#include <gtest/gtest.h>

#include "query/parser.h"

namespace fungusdb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : table_("readings",
               Schema::Make({{"sensor", DataType::kInt64, false},
                             {"temp", DataType::kFloat64, true},
                             {"status", DataType::kString, false}})
                   .value()) {
    // 10 rows: sensors 0/1 alternating, temps 10..19, one null temp.
    for (int i = 0; i < 10; ++i) {
      Value temp = i == 7 ? Value::Null() : Value::Float64(10.0 + i);
      table_
          .Append({Value::Int64(i % 2), temp,
                   Value::String(i % 3 == 0 ? "FAULT" : "OK")},
                  /*now=*/i * 100)
          .value();
    }
  }

  ResultSet Run(const std::string& sql) {
    Query q = ParseQuery(sql).value();
    return engine_.Execute(q, table_, /*now=*/10000).value();
  }

  Table table_;
  QueryEngine engine_;
};

TEST_F(EngineTest, SelectStarReturnsAllColumnsAndRows) {
  ResultSet rs = Run("SELECT * FROM readings");
  EXPECT_EQ(rs.num_columns(), 3u);
  EXPECT_EQ(rs.num_rows(), 10u);
  EXPECT_EQ(rs.column_names[0], "sensor");
  EXPECT_EQ(rs.stats.rows_scanned, 10u);
  EXPECT_EQ(rs.stats.rows_matched, 10u);
  EXPECT_EQ(rs.stats.rows_consumed, 0u);
}

TEST_F(EngineTest, WhereFilters) {
  ResultSet rs = Run("SELECT * FROM readings WHERE sensor = 0");
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(EngineTest, NullPredicateExcludesRow) {
  ResultSet rs = Run("SELECT * FROM readings WHERE temp > 0");
  EXPECT_EQ(rs.num_rows(), 9u);  // the null-temp row is excluded
}

TEST_F(EngineTest, ProjectionWithExpressionsAndAliases) {
  ResultSet rs =
      Run("SELECT sensor, temp * 2 AS t2 FROM readings WHERE temp = 10");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.column_names[1], "t2");
  EXPECT_DOUBLE_EQ(rs.at(0, 1).AsFloat64(), 20.0);
}

TEST_F(EngineTest, SystemColumnsInSelectList) {
  ResultSet rs =
      Run("SELECT __ts, __freshness FROM readings WHERE sensor = 1 "
          "ORDER BY __ts ASC LIMIT 1");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsTimestamp(), 100);
  EXPECT_DOUBLE_EQ(rs.at(0, 1).AsFloat64(), 1.0);
}

TEST_F(EngineTest, GlobalAggregates) {
  ResultSet rs = Run(
      "SELECT count(*) AS n, count(temp) AS nt, sum(temp) AS s, "
      "min(temp) AS lo, max(temp) AS hi, avg(sensor) AS a FROM readings");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 10);
  EXPECT_EQ(rs.at(0, 1).AsInt64(), 9);  // one null excluded
  // Sum of 10..19 except 17 = 145 - 17 = 128.
  EXPECT_DOUBLE_EQ(rs.at(0, 2).AsFloat64(), 128.0);
  EXPECT_DOUBLE_EQ(rs.at(0, 3).AsFloat64(), 10.0);
  EXPECT_DOUBLE_EQ(rs.at(0, 4).AsFloat64(), 19.0);
  EXPECT_DOUBLE_EQ(rs.at(0, 5).AsFloat64(), 0.5);
}

TEST_F(EngineTest, AggregateOverEmptyMatchYieldsOneRow) {
  ResultSet rs = Run("SELECT count(*) AS n FROM readings WHERE sensor = 99");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 0);
}

TEST_F(EngineTest, GroupBy) {
  ResultSet rs = Run(
      "SELECT status, count(*) AS n FROM readings GROUP BY status "
      "ORDER BY status ASC");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.at(0, 0).AsString(), "FAULT");
  EXPECT_EQ(rs.at(0, 1).AsInt64(), 4);  // rows 0,3,6,9
  EXPECT_EQ(rs.at(1, 0).AsString(), "OK");
  EXPECT_EQ(rs.at(1, 1).AsInt64(), 6);
}

TEST_F(EngineTest, GroupByRequiresGroupedSelectItems) {
  Query q = ParseQuery("SELECT temp, count(*) FROM readings GROUP BY sensor")
                .value();
  Result<ResultSet> r = engine_.Execute(q, table_, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, SelectStarWithAggregationRejected) {
  Query q = ParseQuery("SELECT * FROM readings GROUP BY sensor").value();
  EXPECT_FALSE(engine_.Execute(q, table_, 0).ok());
}

TEST_F(EngineTest, AggregateInWhereRejected) {
  Query q =
      ParseQuery("SELECT * FROM readings WHERE count(*) > 1").value();
  EXPECT_FALSE(engine_.Execute(q, table_, 0).ok());
}

TEST_F(EngineTest, NonBoolWhereRejected) {
  Query q = ParseQuery("SELECT * FROM readings WHERE sensor + 1").value();
  Result<ResultSet> r = engine_.Execute(q, table_, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch);
}

TEST_F(EngineTest, OrderByAscendingAndDescending) {
  ResultSet asc = Run(
      "SELECT temp FROM readings WHERE temp IS NOT NULL ORDER BY temp");
  EXPECT_DOUBLE_EQ(asc.at(0, 0).AsFloat64(), 10.0);
  ResultSet desc = Run(
      "SELECT temp FROM readings WHERE temp IS NOT NULL "
      "ORDER BY temp DESC");
  EXPECT_DOUBLE_EQ(desc.at(0, 0).AsFloat64(), 19.0);
}

TEST_F(EngineTest, OrderByNullsLast) {
  ResultSet rs = Run("SELECT temp FROM readings ORDER BY temp ASC");
  ASSERT_EQ(rs.num_rows(), 10u);
  EXPECT_TRUE(rs.at(9, 0).is_null());
}

TEST_F(EngineTest, OrderByUnknownColumnFails) {
  Query q = ParseQuery("SELECT temp FROM readings ORDER BY nope").value();
  const Status status = engine_.Execute(q, table_, 0).status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.error_code(), ErrorCode::kColumnNotFound);
}

TEST_F(EngineTest, UnknownColumnCarriesTheColumnCode) {
  for (const char* sql : {"SELECT bogus FROM readings",
                          "SELECT count(*) FROM readings WHERE bogus > 1",
                          "SELECT count(*) FROM readings GROUP BY bogus"}) {
    Query q = ParseQuery(sql).value();
    const Status status = engine_.Execute(q, table_, 0).status();
    EXPECT_EQ(status.error_code(), ErrorCode::kColumnNotFound) << sql;
  }
}

TEST_F(EngineTest, LimitTruncates) {
  ResultSet rs = Run("SELECT * FROM readings LIMIT 3");
  EXPECT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.stats.rows_matched, 10u);
}

TEST_F(EngineTest, DeadRowsInvisible) {
  ASSERT_TRUE(table_.Kill(0).ok());
  ASSERT_TRUE(table_.Kill(1).ok());
  ResultSet rs = Run("SELECT * FROM readings");
  EXPECT_EQ(rs.num_rows(), 8u);
  EXPECT_EQ(rs.stats.rows_scanned, 8u);
}

TEST_F(EngineTest, FreshnessPredicate) {
  ASSERT_TRUE(table_.SetFreshness(0, 0.2).ok());
  ResultSet rs = Run("SELECT * FROM readings WHERE __freshness < 0.5");
  EXPECT_EQ(rs.num_rows(), 1u);
}

TEST_F(EngineTest, ResultSetToStringRenders) {
  ResultSet rs = Run("SELECT sensor, temp FROM readings LIMIT 2");
  const std::string s = rs.ToString();
  EXPECT_NE(s.find("sensor"), std::string::npos);
  EXPECT_NE(s.find("(2 rows)"), std::string::npos);
}

TEST_F(EngineTest, FindColumn) {
  ResultSet rs = Run("SELECT sensor, temp FROM readings LIMIT 1");
  EXPECT_EQ(rs.FindColumn("temp"), 1);
  EXPECT_EQ(rs.FindColumn("ghost"), -1);
}

}  // namespace
}  // namespace fungusdb
