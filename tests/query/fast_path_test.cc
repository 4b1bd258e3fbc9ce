// Equivalence tests for the lowered filter: every predicate shape the
// filter lowers must return exactly the same rows as a semantically
// identical predicate forced through a computed conjunct (by adding an
// arithmetic identity, which the filter does not lower, so the
// conjunct's arithmetic is evaluated too).

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/engine.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

class FastPathTest : public ::testing::Test {
 protected:
  FastPathTest()
      : table_("t", Schema::Make({{"i", DataType::kInt64, false},
                                  {"f", DataType::kFloat64, true},
                                  {"s", DataType::kString, false}})
                        .value()) {
    Rng rng(404);
    for (int n = 0; n < 500; ++n) {
      Value f = rng.NextBernoulli(0.1)
                    ? Value::Null()
                    : Value::Float64(rng.NextDouble(-50.0, 50.0));
      table_
          .Append({Value::Int64(rng.NextInt(-100, 100)), f,
                   Value::String("x")},
                  /*now=*/n * 10)
          .value();
      if (rng.NextBernoulli(0.2)) {
        FUNGUSDB_CHECK_OK(table_.SetFreshness(
            static_cast<RowId>(n), rng.NextDouble(0.05, 0.9)));
      }
    }
    // Some dead rows too.
    for (RowId r = 100; r < 120; ++r) FUNGUSDB_CHECK_OK(table_.Kill(r));
  }

  std::vector<int64_t> Rows(const std::string& where) {
    Query q = ParseQuery("SELECT i FROM t WHERE " + where).value();
    ResultSet rs = engine_.Execute(q, table_, 0).value();
    std::vector<int64_t> out;
    for (size_t r = 0; r < rs.num_rows(); ++r) {
      out.push_back(rs.at(r, 0).AsInt64());
    }
    return out;
  }

  void ExpectEquivalent(const std::string& fast_where,
                        const std::string& generic_where) {
    EXPECT_EQ(Rows(fast_where), Rows(generic_where))
        << fast_where << " vs " << generic_where;
  }

  Table table_;
  QueryEngine engine_;
};

TEST_F(FastPathTest, IntColumnComparisons) {
  // `(i + 0)` defeats compilation, forcing the generic path.
  for (const char* op : {"=", "!=", "<", "<=", ">", ">="}) {
    ExpectEquivalent(std::string("i ") + op + " 13",
                     std::string("(i + 0) ") + op + " 13");
  }
}

TEST_F(FastPathTest, FloatColumnWithNulls) {
  ExpectEquivalent("f > 10.5", "(f + 0.0) > 10.5");
  ExpectEquivalent("f <= 0.0", "(f + 0.0) <= 0.0");
  // Nulls are excluded on both paths.
  const auto rows = Rows("f >= -1000");
  EXPECT_LT(rows.size(), 480u);  // some nulls existed
}

TEST_F(FastPathTest, SystemColumns) {
  ExpectEquivalent("__ts >= 2500", "(__ts + 0) >= 2500");
  ExpectEquivalent("__freshness < 0.5", "(__freshness + 0.0) < 0.5");
}

TEST_F(FastPathTest, CrossTypeLiteral) {
  // int column vs float literal and vice versa.
  ExpectEquivalent("i < 12.5", "(i + 0) < 12.5");
  ExpectEquivalent("f > 10", "(f + 0.0) > 10");
}

TEST_F(FastPathTest, BooleanCombinationsVectorize) {
  // AND / OR / NOT trees stay on the vectorized path and must agree
  // with the walker row for row.
  ExpectEquivalent("i > 0 AND f > 0", "(i + 0) > 0 AND (f + 0.0) > 0");
  ExpectEquivalent("i > 50 OR f < -40", "(i + 0) > 50 OR (f + 0.0) < -40");
  ExpectEquivalent("NOT (i > 0)", "NOT ((i + 0) > 0)");
  ExpectEquivalent("NOT NOT (i = 13)", "NOT NOT ((i + 0) = 13)");
}

TEST_F(FastPathTest, NonCompilableShapesStillWork) {
  // Lowered string equality, and a column-vs-column comparison with
  // arithmetic that becomes a computed conjunct, filtering the same scan.
  EXPECT_EQ(Rows("s = 'x'").size(), table_.live_rows());
  EXPECT_EQ(Rows("i < i + 1").size(), table_.live_rows());
  EXPECT_FALSE(Rows("i > 0 AND f > 0").empty());
}

TEST_F(FastPathTest, StatsCountScannedAndPrunedRows) {
  // `i` never leaves [-100, 100], so the zone map rules the whole
  // segment out: every live row is pruned, none scanned.
  Query q = ParseQuery("SELECT i FROM t WHERE i > 1000000").value();
  ResultSet rs = engine_.Execute(q, table_, 0).value();
  EXPECT_EQ(rs.num_rows(), 0u);
  EXPECT_EQ(rs.stats.rows_scanned + rs.stats.rows_pruned,
            table_.live_rows());
  EXPECT_EQ(rs.stats.rows_pruned, table_.live_rows());
  EXPECT_GT(rs.stats.segments_pruned, 0u);

  // An in-range predicate scans everything and prunes nothing (the
  // single segment's zone covers the probe value).
  Query q2 = ParseQuery("SELECT i FROM t WHERE i = 13").value();
  ResultSet rs2 = engine_.Execute(q2, table_, 0).value();
  EXPECT_EQ(rs2.stats.rows_scanned, table_.live_rows());
  EXPECT_EQ(rs2.stats.rows_pruned, 0u);
}

TEST_F(FastPathTest, ConsumingQueriesUseFastPathToo) {
  const uint64_t before = table_.live_rows();
  Query q = ParseQuery("CONSUME SELECT i FROM t WHERE i = 13").value();
  ResultSet rs = engine_.Execute(q, table_, 0).value();
  EXPECT_EQ(table_.live_rows() + rs.stats.rows_consumed, before);
  EXPECT_TRUE(Rows("i = 13").empty());
}

}  // namespace
}  // namespace fungusdb
