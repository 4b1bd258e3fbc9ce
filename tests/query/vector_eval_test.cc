// Differential tests for the WHERE filter: for every predicate shape —
// lowered, walker conjuncts, mixes of both, and randomized trees — the
// selection vector VectorPredicate::Match produces must equal the
// offsets the row-at-a-time tree walker (EvalPredicate) accepts, across
// NULL cells, NaN cells and literals, int64<->double coercion, dead
// rows and empty segments, on plain and frozen segments; and the
// engine, serial and on pools of width 2 and 4, must return exactly
// those rows.

#include "query/vector_eval.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/binder.h"
#include "query/engine.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

/// 700 rows in 128-row segments (one partial), nullable int, float
/// (with NaN) and string columns, rewritten freshness, dead rows and
/// one fully dead segment. `freeze` freezes every full segment.
std::unique_ptr<Table> MakeTable(bool freeze) {
  TableOptions options;
  options.rows_per_segment = 128;
  auto table = std::make_unique<Table>(
      "t",
      Schema::Make({{"a", DataType::kInt64, true},
                    {"b", DataType::kFloat64, true},
                    {"w", DataType::kTimestamp, false},
                    {"s", DataType::kString, true}})
          .value(),
      options);
  Rng rng(1234);
  Rng strings(77);
  static const char* const kStrings[] = {"x", "X", "north", "south", ""};
  for (int n = 0; n < 700; ++n) {
    Value a = rng.NextBernoulli(0.15) ? Value::Null()
                                      : Value::Int64(rng.NextInt(-20, 20));
    Value b;
    if (rng.NextBernoulli(0.15)) {
      b = Value::Null();
    } else if (rng.NextBernoulli(0.05)) {
      b = Value::Float64(std::nan(""));
    } else {
      b = Value::Float64(rng.NextDouble(-5.0, 5.0));
    }
    Value s = strings.NextBernoulli(0.1)
                  ? Value::Null()
                  : Value::String(kStrings[strings.NextBounded(5)]);
    table->Append({a, b, Value::TimestampVal(n * 7), s}, /*now=*/n * 7)
        .value();
    if (rng.NextBernoulli(0.3)) {
      FUNGUSDB_CHECK_OK(table->SetFreshness(static_cast<RowId>(n),
                                            rng.NextDouble(0.05, 0.95)));
    }
  }
  Rng killer(99);
  for (RowId r = 0; r < 700; ++r) {
    if (killer.NextBernoulli(0.2)) FUNGUSDB_CHECK_OK(table->Kill(r));
  }
  // One fully dead segment: both paths must produce nothing for it.
  for (RowId r = 256; r < 384; ++r) {
    if (table->IsLive(r)) FUNGUSDB_CHECK_OK(table->Kill(r));
  }
  if (freeze) table->FreezeColdSegments(0);
  return table;
}

class VectorEvalTest : public ::testing::Test {
 protected:
  VectorEvalTest() : plain_(MakeTable(false)), frozen_(MakeTable(true)) {}

  ExprPtr Parse(const std::string& text) {
    return ParseExpression(text).value();
  }

  /// Checks, on both tiers, that Match agrees with the walker's accept
  /// set segment by segment, and that the engine returns those rows
  /// serially and pooled.
  void ExpectAgree(const ExprPtr& where, const std::string& what) {
    ASSERT_GT(frozen_->GetStorageStats().frozen_segments, 0u);
    for (Table* table : {plain_.get(), frozen_.get()}) {
      const std::string tier =
          table == plain_.get() ? " [plain]" : " [frozen]";
      const BoundExpr bound = Bind(*where, table->schema()).value();
      const VectorPredicate pred = VectorPredicate::Compile(bound);
      VectorPredicate::Scratch scratch;
      std::vector<Timestamp> want_ts;
      for (const auto& [seg_no, seg] : table->segment_index()) {
        std::vector<uint32_t> got;
        ASSERT_TRUE(pred.Match(*table, *seg, scratch, got).ok())
            << what << tier;
        std::vector<uint32_t> want;
        for (size_t off = 0; off < seg->num_rows(); ++off) {
          if (!seg->IsLive(off)) continue;
          const RowId row = seg->first_row() + off;
          if (EvalPredicate(bound, *table, row).value()) {
            want.push_back(static_cast<uint32_t>(off));
            want_ts.push_back(table->InsertTime(row).value());
          }
        }
        EXPECT_EQ(got, want) << what << tier << " on segment " << seg_no;
      }
      Query q;
      q.table_name = "t";
      q.items.push_back({Expr::Column("__ts"), "ts"});
      q.where = where;
      for (ThreadPool* pool : {&pool1_, &pool2_, &pool4_}) {
        QueryEngineOptions options;
        options.pool = pool;
        options.parallel_scan_min_segments = 2;
        QueryEngine engine(options);
        const ResultSet rs = engine.Execute(q, *table, 0).value();
        std::vector<Timestamp> got_ts;
        for (size_t r = 0; r < rs.num_rows(); ++r) {
          got_ts.push_back(rs.at(r, 0).AsTimestamp());
        }
        EXPECT_EQ(got_ts, want_ts)
            << what << tier << " width " << pool->num_threads();
      }
    }
  }

  void ExpectAgree(const std::string& where) {
    ExpectAgree(Parse(where), where);
  }

  std::unique_ptr<Table> plain_;
  std::unique_ptr<Table> frozen_;
  ThreadPool pool1_{1};
  ThreadPool pool2_{2};
  ThreadPool pool4_{4};
};

TEST_F(VectorEvalTest, ComparisonsAllOpsAllColumns) {
  for (const char* col : {"a", "b", "__ts", "__freshness"}) {
    for (const char* op : {"=", "!=", "<", "<=", ">", ">="}) {
      const std::string lit =
          std::string(col) == "__ts" ? "2450" : "0.5";
      ExpectAgree(std::string(col) + " " + op + " " + lit);
    }
  }
}

TEST_F(VectorEvalTest, Int64DoubleCoercion) {
  // Int column against fractional literal and float column against an
  // integer literal: both compare in double space, like the walker.
  ExpectAgree("a < 12.5");
  ExpectAgree("a >= -0.5");
  ExpectAgree("b > 2");
  ExpectAgree("b = 0");
}

TEST_F(VectorEvalTest, IsNullAndIsNotNull) {
  ExpectAgree("a IS NULL");
  ExpectAgree("a IS NOT NULL");
  ExpectAgree("b IS NULL AND a > 0");
  ExpectAgree("b IS NOT NULL OR a IS NULL");
}

TEST_F(VectorEvalTest, NullLiteralComparisonsAreNeverTrue) {
  // A NULL comparand makes every comparison UNKNOWN; no row matches,
  // and NOT(UNKNOWN) stays UNKNOWN, so the negation matches none too.
  ExprPtr eq = Expr::Binary(BinaryOp::kEq, Expr::Column("a"),
                            Expr::Literal(Value::Null()));
  ExpectAgree(eq, "a = NULL");
  ExpectAgree(Expr::Unary(UnaryOp::kNot, eq), "NOT (a = NULL)");
}

TEST_F(VectorEvalTest, NaNLiteralMatchesValueCompareTrichotomy) {
  // Under Value::Compare a NaN is neither < nor >, so cmp == 0: NaN
  // "equals" everything. =, <=, >= accept every non-null cell; !=, <, >
  // accept none. The kernel must agree with the walker on all six.
  const ExprPtr nan = Expr::Literal(Value::Float64(std::nan("")));
  for (const BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                            BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    for (const char* col : {"a", "b"}) {
      const ExprPtr where = Expr::Binary(op, Expr::Column(col), nan);
      ExpectAgree(where, where->ToString());
    }
  }
}

TEST_F(VectorEvalTest, BooleanAndConstantShapes) {
  ExpectAgree("true");
  ExpectAgree("false");
  ExpectAgree("a > 0 AND true");
  ExpectAgree("a > 0 OR false");
  ExpectAgree("NOT (a > 0 AND b < 0)");
  ExpectAgree("NOT NOT (a = 13)");
  ExpectAgree("w >= 2100 AND w < 4200");
}

TEST_F(VectorEvalTest, StringEqualityAndDictionaryMisses) {
  ExpectAgree("s = 'x'");
  ExpectAgree("s != 'north'");
  ExpectAgree("'south' = s");
  // Absent from every dictionary: no row is TRUE; its negation keeps
  // every non-null cell.
  ExpectAgree("s = 'absent'");
  ExpectAgree("s != 'absent'");
  ExpectAgree("NOT (s = 'absent') AND a > 0");
}

TEST_F(VectorEvalTest, RandomizedPredicateTrees) {
  Rng rng(20260807);
  const char* kCols[] = {"a", "b", "w", "__ts", "__freshness"};
  const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  // Random comparison with a literal drawn near the column's range so
  // selectivities vary instead of collapsing to all/nothing.
  auto leaf = [&]() -> std::string {
    const std::string col = kCols[rng.NextBounded(5)];
    const std::string op = kOps[rng.NextBounded(6)];
    std::string lit;
    if (col == "w" || col == "__ts") {
      lit = std::to_string(rng.NextInt(0, 4900));
    } else if (col == "__freshness") {
      lit = std::to_string(rng.NextDouble(0.0, 1.0));
    } else if (rng.NextBernoulli(0.5)) {
      lit = std::to_string(rng.NextInt(-22, 22));
    } else {
      lit = std::to_string(rng.NextDouble(-6.0, 6.0));
    }
    if (rng.NextBernoulli(0.15)) return col + " IS NULL";
    if (rng.NextBernoulli(0.15)) return col + " IS NOT NULL";
    return col + " " + op + " " + lit;
  };
  std::function<std::string(int)> tree = [&](int depth) -> std::string {
    if (depth == 0 || rng.NextBernoulli(0.4)) return leaf();
    if (rng.NextBernoulli(0.2)) {
      return "NOT (" + tree(depth - 1) + ")";
    }
    const char* conn = rng.NextBernoulli(0.5) ? " AND " : " OR ";
    return "(" + tree(depth - 1) + conn + tree(depth - 1) + ")";
  };
  for (int i = 0; i < 200; ++i) {
    const std::string where = tree(3);
    SCOPED_TRACE(where);
    ExpectAgree(where);
  }
}

TEST_F(VectorEvalTest, EmptySegmentMatchesNothing) {
  Schema schema = Schema::Make({{"x", DataType::kInt64, false}}).value();
  Segment seg(schema, /*first_row=*/0, /*capacity=*/16,
              /*track_access=*/false);
  Table probe("p", schema);
  ExprPtr expr = ParseExpression("x > 0").value();
  BoundExpr bound = Bind(*expr, schema).value();
  const VectorPredicate pred = VectorPredicate::Compile(bound);
  VectorPredicate::Scratch scratch;
  std::vector<uint32_t> out;
  ASSERT_TRUE(pred.Match(probe, seg, scratch, out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(VectorPredicate().Match(probe, seg, scratch, out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(VectorEvalTest, WalkerConjunctsMatchTheReference) {
  // Conjuncts the kernel does not lower (arithmetic, scalar functions,
  // string `<`) filter the rows the lowered ones kept, through the
  // walker; alone, mixed with lowered conjuncts, and inside OR / NOT.
  ExpectAgree("a + 1 > 2");
  ExpectAgree("a > b + 0.0");
  ExpectAgree("abs(a) > 2");
  ExpectAgree("s < 'n'");
  ExpectAgree("a > 0 AND lower(s) = 'x'");
  ExpectAgree("lower(s) = 'x' AND a > 0 AND b < 1");
  ExpectAgree("abs(a) > 2 AND s >= 'north' AND __ts < 3000");
  ExpectAgree("(a + 1 > 2 OR b < 0) AND NOT (s = 'x')");
  ExpectAgree("length(s) = 0 AND a > 100");  // every segment pruned
  // Column against column lowers.
  ExpectAgree("a > b");
}

TEST_F(VectorEvalTest, WalkerErrorsFailOnlyOnRowsTheyEvaluate) {
  QueryEngine engine;
  Query q;
  q.table_name = "t";
  q.items.push_back({Expr::Column("a"), "a"});
  for (Table* table : {plain_.get(), frozen_.get()}) {
    // Live rows with a = 0 exist, so the division fails the statement.
    q.where = Parse("10 / a > 1");
    EXPECT_FALSE(engine.Execute(q, *table, 0).ok());
    // The lowered `a <> 0` drops those rows before the walker conjunct
    // sees them: the statement answers, wherever the conjunct is
    // written.
    for (const char* where : {"10 / a > 1 AND a <> 0",
                              "a <> 0 AND 10 / a > 1"}) {
      q.where = Parse(where);
      const Result<ResultSet> rs = engine.Execute(q, *table, 0);
      ASSERT_TRUE(rs.ok()) << where << ": " << rs.status().ToString();
      ASSERT_GT(rs->num_rows(), 0u) << where;
      for (size_t r = 0; r < rs->num_rows(); ++r) {
        const int64_t a = rs->at(r, 0).AsInt64();
        EXPECT_TRUE(a > 0 && a < 10) << where << ": a = " << a;
      }
    }
    // Walker conjuncts run in SQL order: the second one never sees a
    // row the first rejected.
    q.where = Parse("abs(a) > 0 AND 10 / a > 1");
    EXPECT_TRUE(engine.Execute(q, *table, 0).ok());
    q.where = Parse("10 / a > 1 AND abs(a) > 0");
    EXPECT_FALSE(engine.Execute(q, *table, 0).ok());
  }
}

}  // namespace
}  // namespace fungusdb
