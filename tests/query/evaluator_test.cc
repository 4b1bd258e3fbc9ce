// Expression semantics through the engine: each expression runs as a
// select item (`SELECT <expr> FROM t`, Operand's cells) or as a WHERE
// predicate (VectorPredicate), over one chosen row of a two-row table.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "query/aggregate.h"
#include "query/engine.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : table_("t", Schema::Make({{"id", DataType::kInt64, false},
                                  {"temp", DataType::kFloat64, true},
                                  {"name", DataType::kString, false},
                                  {"ok", DataType::kBool, false}})
                        .value()) {
    row_ = table_
               .Append({Value::Int64(10), Value::Float64(21.5),
                        Value::String("alpha"), Value::Bool(true)},
                       /*now=*/5000)
               .value();
    null_row_ = table_
                    .Append({Value::Int64(20), Value::Null(),
                             Value::String("beta"), Value::Bool(false)},
                            /*now=*/6000)
                    .value();
  }

  /// `SELECT <text> FROM t` over `row` alone.
  Result<Value> TryEval(const std::string& text, RowId row) {
    FUNGUSDB_ASSIGN_OR_RETURN(
        Query q, ParseQuery("SELECT " + text + " AS v FROM t WHERE __ts = " +
                            std::to_string(table_.InsertTime(row).value())));
    FUNGUSDB_ASSIGN_OR_RETURN(ResultSet rs, engine_.Execute(q, table_, 0));
    EXPECT_EQ(rs.num_rows(), 1u) << text;
    return rs.at(0, 0);
  }

  Value Eval(const std::string& text, RowId row) {
    return TryEval(text, row).value();
  }

  /// Whether `row` passes `WHERE <text>`.
  bool Pred(const std::string& text, RowId row) {
    Query q = ParseQuery("SELECT id FROM t WHERE __ts = " +
                         std::to_string(table_.InsertTime(row).value()) +
                         " AND (" + text + ")")
                  .value();
    return engine_.Execute(q, table_, 0).value().num_rows() == 1;
  }

  Table table_;
  QueryEngine engine_;
  RowId row_;
  RowId null_row_;
};

TEST_F(EvaluatorTest, ColumnAccess) {
  EXPECT_EQ(Eval("id", row_).AsInt64(), 10);
  EXPECT_DOUBLE_EQ(Eval("temp", row_).AsFloat64(), 21.5);
  EXPECT_EQ(Eval("name", row_).AsString(), "alpha");
  EXPECT_TRUE(Eval("ok", row_).AsBool());
}

TEST_F(EvaluatorTest, SystemColumns) {
  EXPECT_EQ(Eval("__ts", row_).AsTimestamp(), 5000);
  EXPECT_DOUBLE_EQ(Eval("__freshness", row_).AsFloat64(), 1.0);
}

TEST_F(EvaluatorTest, Comparisons) {
  EXPECT_TRUE(Eval("id = 10", row_).AsBool());
  EXPECT_FALSE(Eval("id != 10", row_).AsBool());
  EXPECT_TRUE(Eval("temp > 21", row_).AsBool());
  EXPECT_TRUE(Eval("temp <= 21.5", row_).AsBool());
  EXPECT_TRUE(Eval("name = 'alpha'", row_).AsBool());
  EXPECT_TRUE(Eval("name < 'beta'", row_).AsBool());
}

TEST_F(EvaluatorTest, Arithmetic) {
  EXPECT_EQ(Eval("id + 5", row_).AsInt64(), 15);
  EXPECT_EQ(Eval("id - 15", row_).AsInt64(), -5);
  EXPECT_EQ(Eval("id * 3", row_).AsInt64(), 30);
  EXPECT_DOUBLE_EQ(Eval("id / 4", row_).AsFloat64(), 2.5);
  EXPECT_EQ(Eval("id % 3", row_).AsInt64(), 1);
  EXPECT_DOUBLE_EQ(Eval("temp + 0.5", row_).AsFloat64(), 22.0);
  EXPECT_EQ(Eval("-id", row_).AsInt64(), -10);
}

TEST_F(EvaluatorTest, DivisionByZeroIsError) {
  Result<Value> r = TryEval("id / 0", row_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(TryEval("id % 0", row_).ok());
}

TEST_F(EvaluatorTest, NullPropagationInComparisons) {
  EXPECT_TRUE(Eval("temp > 5", null_row_).is_null());
  EXPECT_TRUE(Eval("temp = NULL", null_row_).is_null());
  EXPECT_TRUE(Eval("temp + 1", null_row_).is_null());
}

TEST_F(EvaluatorTest, ThreeValuedLogic) {
  // null AND false = false; null AND true = null.
  EXPECT_FALSE(Eval("temp > 5 AND id = 999", null_row_).AsBool());
  EXPECT_TRUE(Eval("temp > 5 AND id = 20", null_row_).is_null());
  // null OR true = true; null OR false = null.
  EXPECT_TRUE(Eval("temp > 5 OR id = 20", null_row_).AsBool());
  EXPECT_TRUE(Eval("temp > 5 OR id = 999", null_row_).is_null());
  // NOT null = null.
  EXPECT_TRUE(Eval("NOT (temp > 5)", null_row_).is_null());
}

TEST_F(EvaluatorTest, IsNullOperators) {
  EXPECT_TRUE(Eval("temp IS NULL", null_row_).AsBool());
  EXPECT_FALSE(Eval("temp IS NULL", row_).AsBool());
  EXPECT_TRUE(Eval("temp IS NOT NULL", row_).AsBool());
}

TEST_F(EvaluatorTest, PredicateRejectsNullAsFalse) {
  // WHERE acceptance: null predicates exclude the row.
  EXPECT_FALSE(Pred("temp > 5", null_row_));
  EXPECT_TRUE(Pred("temp > 5", row_));
}

TEST_F(EvaluatorTest, ShortCircuitSkipsErrorArm) {
  // The right arm would divide by zero, but the left arm decides.
  EXPECT_FALSE(Pred("id = 999 AND id / 0 > 1", row_));
  EXPECT_TRUE(Pred("id = 10 OR id / 0 > 1", row_));
  EXPECT_FALSE(Eval("id = 999 AND id / 0 > 1", row_).AsBool());
  EXPECT_TRUE(Eval("id = 10 OR id / 0 > 1", row_).AsBool());
  // A NULL left arm decides nothing: the right arm runs.
  EXPECT_FALSE(TryEval("temp > 5 AND id / 0 > 1", null_row_).ok());
}

TEST_F(EvaluatorTest, BetweenWorksEndToEnd) {
  EXPECT_TRUE(Pred("temp BETWEEN 21 AND 22", row_));
  EXPECT_FALSE(Pred("temp BETWEEN 22 AND 30", row_));
  // BETWEEN is inclusive on both ends.
  EXPECT_TRUE(Pred("id BETWEEN 10 AND 10", row_));
}

TEST_F(EvaluatorTest, TimestampArithmetic) {
  EXPECT_EQ(Eval("__ts + 100", row_).AsInt64(), 5100);
  EXPECT_TRUE(Pred("__ts >= 5000", row_));
  EXPECT_FALSE(Pred("__ts >= 5001", row_));
}

TEST_F(EvaluatorTest, AggregateNodeIsScalarError) {
  // The engine folds aggregates itself; one that reached the evaluator
  // would be an internal error.
  BoundExpr bound =
      Bind(*Expr::Aggregate(AggFn::kCount, nullptr), table_.schema())
          .value();
  Operand operand(bound);
  const Segment* seg = table_.LiveSegments().at(0);
  const uint32_t sel[] = {0};
  const Status status =
      operand.Load(SelectedBatch{seg, 0, seg->num_rows(), sel, 1});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// int64 arithmetic is defined for every input: it wraps in two's
// complement, `INT64_MIN % -1` is 0, and negation is exact.
class IntegerArithmeticTest : public ::testing::Test {
 protected:
  IntegerArithmeticTest()
      : table_("t", Schema::Make({{"x", DataType::kInt64, false}}).value()) {
    for (const int64_t x : {kMin, kMax, kBeyondDouble}) {
      table_.Append({Value::Int64(x)}, 0).value();
    }
  }

  /// The select item's int64 cell on each row, in row order.
  std::vector<int64_t> Column(const std::string& item) {
    Query q = ParseQuery("SELECT " + item + " FROM t").value();
    const ResultSet rs = QueryEngine().Execute(q, table_, 0).value();
    std::vector<int64_t> out;
    for (size_t r = 0; r < rs.num_rows(); ++r) {
      out.push_back(rs.at(r, 0).AsInt64());
    }
    return out;
  }

  static constexpr int64_t kMin = INT64_MIN;
  static constexpr int64_t kMax = INT64_MAX;
  // 2^53 + 1: the first int64 a double cannot hold.
  static constexpr int64_t kBeyondDouble = 9007199254740993;
  Table table_;
};

TEST_F(IntegerArithmeticTest, ModuloByMinusOneIsZero) {
  EXPECT_EQ(Column("x % -1"), (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(Column("x % (0 - 1)"), (std::vector<int64_t>{0, 0, 0}));
}

TEST_F(IntegerArithmeticTest, OverflowWraps) {
  EXPECT_EQ(Column("x + 1"),
            (std::vector<int64_t>{kMin + 1, kMin, kBeyondDouble + 1}));
  EXPECT_EQ(Column("x - 1"),
            (std::vector<int64_t>{kMax, kMax - 1, kBeyondDouble - 1}));
  EXPECT_EQ(Column("x * 2"),
            (std::vector<int64_t>{0, -2, 2 * kBeyondDouble}));
  EXPECT_EQ(Column("-x"), (std::vector<int64_t>{kMin, -kMax, -kBeyondDouble}));
  EXPECT_EQ(Column("abs(x)"),
            (std::vector<int64_t>{kMin, kMax, kBeyondDouble}));
}

TEST_F(IntegerArithmeticTest, NegationIsExact) {
  // Through double, both would answer -9007199254740992.
  EXPECT_EQ(Column("-x").back(), -kBeyondDouble);
  EXPECT_EQ(Column("-9007199254740993").back(), -kBeyondDouble);
  EXPECT_EQ(Column("-(-9007199254740993)").back(), kBeyondDouble);
}

}  // namespace
}  // namespace fungusdb
