// Zone-map pruning in the query engine: segments whose zone maps cannot
// satisfy the WHERE conjuncts are skipped without touching a row, the
// skip is observable in ResultSet::Stats and the fungusdb.scan.*
// metrics, it is the same on both storage tiers, and — the soundness
// contract — the answer set is the one a row-by-row evaluation of the
// WHERE over every live row accepts.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "query/binder.h"
#include "query/engine.h"
#include "query/parser.h"
#include "reference_walker.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

/// 10 segments of 32 rows. `v` tracks the row number, so both `__ts`
/// (= row * 5) and `v` partition cleanly across segment zones.
class PruningTest : public ::testing::Test {
 protected:
  static TableOptions Geometry() {
    TableOptions o;
    o.rows_per_segment = 32;
    return o;
  }

  static Schema TableSchema() {
    return Schema::Make({{"v", DataType::kInt64, false},
                         {"tag", DataType::kString, false}})
        .value();
  }

  static void Fill(Table& table) {
    for (int n = 0; n < 320; ++n) {
      table.Append({Value::Int64(n), Value::String("r")}, /*now=*/n * 5)
          .value();
    }
    // Age the first three segments' freshness below 0.5, then recount
    // so the (eagerly widened, lazily tightened) freshness zones are
    // exact — the state a maintenance recount leaves behind.
    for (RowId r = 0; r < 96; ++r) {
      FUNGUSDB_CHECK_OK(table.SetFreshness(r, 0.25));
    }
    table.RecomputeZoneMaps();
  }

  PruningTest() : table_("t", TableSchema(), Geometry()) { Fill(table_); }

  ResultSet Run(QueryEngine& engine, const std::string& sql) {
    return Run(engine, table_, sql);
  }

  static ResultSet Run(QueryEngine& engine, Table& table,
                       const std::string& sql) {
    Query q = ParseQuery(sql).value();
    return engine.Execute(q, table, /*now=*/0).value();
  }

  /// `v` of every live row the WHERE of `sql` accepts, row by row.
  std::vector<int64_t> Reference(const std::string& sql) {
    Query q = ParseQuery(sql).value();
    const BoundExpr where = Bind(*q.where, table_.schema()).value();
    std::vector<int64_t> out;
    for (const RowId row : table_.LiveRows()) {
      if (reference::EvalPredicate(where, table_, row).value()) {
        out.push_back(table_.GetValue(row, 0).value().AsInt64());
      }
    }
    return out;
  }

  std::vector<int64_t> FirstColumn(const ResultSet& rs) {
    std::vector<int64_t> out;
    for (size_t r = 0; r < rs.num_rows(); ++r) {
      out.push_back(rs.at(r, 0).AsInt64());
    }
    return out;
  }

  /// Runs `sql`; the rows must be the reference's and the run must
  /// skip at least `min_segments_pruned` segments.
  void ExpectPrunedButEquivalent(const std::string& sql,
                                 uint64_t min_segments_pruned) {
    QueryEngine engine;
    ResultSet with = Run(engine, sql);
    EXPECT_EQ(FirstColumn(with), Reference(sql)) << sql;
    EXPECT_GE(with.stats.segments_pruned, min_segments_pruned) << sql;
    EXPECT_EQ(with.stats.rows_scanned + with.stats.rows_pruned,
              table_.live_rows())
        << sql;
  }

  Table table_;
};

TEST_F(PruningTest, TimeRangePredicatePrunesSegments) {
  // __ts in [500, 820): rows 100..163, segments 3..5 of 10 — at least
  // six segments out of ten cannot match.
  ExpectPrunedButEquivalent(
      "SELECT v FROM t WHERE __ts >= 500 AND __ts < 820", 6);
}

TEST_F(PruningTest, UserColumnRangePrunesSegments) {
  ExpectPrunedButEquivalent("SELECT v FROM t WHERE v >= 300", 9);
  ExpectPrunedButEquivalent("SELECT v FROM t WHERE v = 17", 9);
  // Strict bounds are decided exactly: segment 1 (v in [32, 63]) holds
  // no `v < 32` either, so all but segment 0 are skipped.
  ExpectPrunedButEquivalent("SELECT v FROM t WHERE v < 32 AND v > 5", 8);
}

TEST_F(PruningTest, FreshnessPredicatePrunesAgedSegments) {
  // Segments 0..2 hold only freshness-0.25 rows; 3..9 only 1.0.
  ExpectPrunedButEquivalent(
      "SELECT v FROM t WHERE __freshness > 0.5", 3);
  ExpectPrunedButEquivalent(
      "SELECT v FROM t WHERE __freshness < 0.5", 7);
  // Out-of-range threshold: nothing can match, everything is pruned.
  ExpectPrunedButEquivalent(
      "SELECT v FROM t WHERE __freshness < 0.0", 10);
}

TEST_F(PruningTest, NullComparisonIsAlwaysFalse) {
  // `v = null` can never be TRUE; every segment is skipped without
  // consulting a single zone bound.
  ExpectPrunedButEquivalent("SELECT v FROM t WHERE v = null", 10);
}

TEST_F(PruningTest, DisjunctionsDoNotPrune) {
  // Only the conjunctive spine contributes constraints; an OR at the
  // top makes per-segment ranges unusable and must scan everything
  // rather than prune unsoundly.
  QueryEngine engine;
  ResultSet rs = Run(engine, "SELECT v FROM t WHERE v < 10 OR v >= 310");
  EXPECT_EQ(rs.stats.segments_pruned, 0u);
  EXPECT_EQ(rs.num_rows(), 20u);
}

TEST_F(PruningTest, AbsentStringLiteralPrunesEverySegment) {
  // A literal absent from a segment's dictionary matches none of its
  // rows, so `tag = 'zzz'` skips all ten; a present one skips none.
  QueryEngine engine;
  ResultSet rs = Run(engine, "SELECT v FROM t WHERE tag = 'zzz'");
  EXPECT_EQ(rs.stats.segments_pruned, 10u);
  EXPECT_EQ(rs.num_rows(), 0u);
  rs = Run(engine, "SELECT v FROM t WHERE tag = 'r'");
  EXPECT_EQ(rs.stats.segments_pruned, 0u);
  EXPECT_EQ(rs.num_rows(), 320u);
}

TEST_F(PruningTest, FrozenTwinPrunesIdentically) {
  // The skip decision reads the zone map and the dictionary, which
  // freezing keeps: a frozen copy prunes the same segments.
  Table twin("t", TableSchema(), Geometry());
  Fill(twin);
  ASSERT_EQ(twin.FreezeColdSegments(0), 10u);
  QueryEngine engine;
  for (const char* sql : {
           "SELECT v FROM t WHERE __ts >= 500 AND __ts < 820",
           "SELECT v FROM t WHERE v >= 300",
           "SELECT v FROM t WHERE v < 32 AND v > 5",
           "SELECT v FROM t WHERE v != 17",
           "SELECT v FROM t WHERE __freshness > 0.5",
           "SELECT v FROM t WHERE __freshness < 0.0",
           "SELECT v FROM t WHERE v = null",
           "SELECT v FROM t WHERE tag = 'zzz'",
           "SELECT v FROM t WHERE tag = 'r' AND v % 2 = 0 AND v < 100",
       }) {
    const ResultSet plain = Run(engine, sql);
    const ResultSet frozen = Run(engine, twin, sql);
    EXPECT_EQ(FirstColumn(frozen), FirstColumn(plain)) << sql;
    EXPECT_EQ(frozen.stats.segments_pruned, plain.stats.segments_pruned)
        << sql;
    EXPECT_EQ(frozen.stats.rows_pruned, plain.stats.rows_pruned) << sql;
  }
}

TEST_F(PruningTest, PruningFeedsScanMetrics) {
  MetricsRegistry metrics;
  QueryEngineOptions opts;
  opts.metrics = &metrics;
  QueryEngine engine(opts);
  ResultSet rs = Run(engine, "SELECT v FROM t WHERE v >= 300");
  ASSERT_GT(rs.stats.segments_pruned, 0u);
  EXPECT_EQ(metrics.GetCounter("fungusdb.scan.segments_pruned"),
            static_cast<int64_t>(rs.stats.segments_pruned));
  EXPECT_EQ(metrics.GetCounter("fungusdb.scan.rows_pruned"),
            static_cast<int64_t>(rs.stats.rows_pruned));
}

TEST_F(PruningTest, MorselParallelScanPrunesIdentically) {
  ThreadPool pool(4);
  QueryEngineOptions par;
  par.pool = &pool;
  par.parallel_scan_min_segments = 2;
  QueryEngine parallel_engine(par);
  QueryEngine serial_engine;
  const std::string sql =
      "SELECT v FROM t WHERE __ts >= 500 AND __ts < 1200";
  ResultSet a = Run(parallel_engine, sql);
  ResultSet b = Run(serial_engine, sql);
  EXPECT_EQ(FirstColumn(a), FirstColumn(b));
  EXPECT_EQ(a.stats.segments_pruned, b.stats.segments_pruned);
  EXPECT_EQ(a.stats.rows_pruned, b.stats.rows_pruned);
}

TEST_F(PruningTest, DeadRowsAreNeitherScannedNorPruned) {
  for (RowId r = 96; r < 128; ++r) {
    FUNGUSDB_CHECK_OK(table_.Kill(r));  // segment 3 fully dead
  }
  QueryEngine engine;
  ResultSet rs = Run(engine, "SELECT v FROM t WHERE v >= 0");
  // LiveSegments drops the dead segment before pruning even looks.
  EXPECT_EQ(rs.stats.rows_scanned + rs.stats.rows_pruned,
            table_.live_rows());
}

}  // namespace
}  // namespace fungusdb
