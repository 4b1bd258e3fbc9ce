// Differential tests for the WHERE filter and the expression evaluator.
// For every predicate shape — lowered, computed conjuncts, mixes of
// both, and randomized trees — the selection vector
// VectorPredicate::Match produces must equal the offsets the row-at-a-
// time reference walker (reference_walker.h) accepts, across NULL cells,
// NaN cells and literals, int64<->double coercion, dead rows and empty
// segments, on plain and frozen segments; and the engine, serial and on
// pools of width 2 and 4, must return exactly those rows. Random typed
// expression trees then run as SELECT items, WHERE predicates and
// GROUP BY keys, and must answer (or fail) exactly as the reference.

#include "query/vector_eval.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/binder.h"
#include "query/engine.h"
#include "query/parser.h"
#include "reference_walker.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

/// 700 rows in 128-row segments (one partial), nullable int, float
/// (with NaN), string, int64-extreme and bool columns, rewritten
/// freshness, dead rows and one fully dead segment. `freeze` freezes
/// every full segment.
std::unique_ptr<Table> MakeTable(bool freeze) {
  TableOptions options;
  options.rows_per_segment = 128;
  auto table = std::make_unique<Table>(
      "t",
      Schema::Make({{"a", DataType::kInt64, true},
                    {"b", DataType::kFloat64, true},
                    {"w", DataType::kTimestamp, false},
                    {"s", DataType::kString, true},
                    {"e", DataType::kInt64, true},
                    {"k", DataType::kBool, true}})
          .value(),
      options);
  Rng rng(1234);
  Rng strings(77);
  Rng extremes(4321);
  static const char* const kStrings[] = {"x", "X", "north", "south", ""};
  static const int64_t kExtremes[] = {INT64_MIN,        INT64_MIN + 1, -1,
                                      0,                1,             INT64_MAX,
                                      9007199254740993};
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
    Value e = Value::Null();
    if (!extremes.NextBernoulli(0.1)) {
      e = Value::Int64(extremes.NextBernoulli(0.5)
                           ? kExtremes[extremes.NextBounded(7)]
                           : extremes.NextInt(-1000000, 1000000));
    }
    const Value k = extremes.NextBernoulli(0.1)
                        ? Value::Null()
                        : Value::Bool(extremes.NextBernoulli(0.5));
    table->Append({a, b, Value::TimestampVal(n * 7), s, e, k},
                  /*now=*/n * 7)
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

/// Random SQL expressions over MakeTable's columns, each typed as the
/// binder types it, with the shapes the evaluator must get right:
/// wrapping and dividing int64 arithmetic, functions, string order,
/// NULL literals, NaN cells, int64 extremes, and error arms (division
/// and modulo by zero, time_bucket widths <= 0) under AND / OR.
class ExprGen {
 public:
  enum class Type { kInt, kFloat, kTs, kBool, kString };

  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  Type AnyType() { return static_cast<Type>(rng_.NextBounded(5)); }

  std::string Gen(Type type, int depth) {
    if (rng_.NextBernoulli(0.04)) return "NULL";
    const bool leaf = depth == 0 || rng_.NextBernoulli(0.3);
    switch (type) {
      case Type::kInt:
        return leaf ? IntLeaf() : Int(depth - 1);
      case Type::kFloat:
        return leaf ? Pick({"b", "__freshness", "0.0", "-0.0", "1.5",
                            "-2.25", "1e300"})
                    : Float(depth - 1);
      case Type::kTs:
        return leaf ? Pick({"w", "__ts"}) : Ts(depth - 1);
      case Type::kBool:
        return leaf ? BoolLeaf(depth) : Bool(depth - 1);
      case Type::kString:
        if (leaf) return Pick({"s", "'x'", "'North'", "''", "'south'"});
        return Pick({"lower(", "upper("}) + Gen(Type::kString, depth - 1) +
               ")";
    }
    return "NULL";
  }

 private:
  std::string Pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_.NextBounded(options.size()));
  }

  std::string Numeric(int depth) {
    return Gen(static_cast<Type>(rng_.NextBounded(3)), depth);
  }

  /// An int64 or timestamp operand: what `%` and time_bucket take.
  std::string Integral(int depth) {
    return Gen(rng_.NextBernoulli(0.7) ? Type::kInt : Type::kTs, depth);
  }

  std::string IntLeaf() {
    return Pick({"a", "e", "e", "0", "1", "-1", "7", "9223372036854775807",
                 "(-9223372036854775807 - 1)", "-9007199254740993"});
  }

  std::string Int(int depth) {
    switch (rng_.NextBounded(7)) {
      case 0:
        return "(" + Integral(depth) + Pick({" + ", " - ", " * "}) +
               Integral(depth) + ")";
      case 1:
      case 6:  // modulo, often of INT64_MIN and by -1 or 0
        return "(" +
               (rng_.NextBernoulli(0.3)
                    ? Pick({"e", "(-9223372036854775807 - 1)"})
                    : Integral(depth)) +
               " % " +
               (rng_.NextBernoulli(0.5) ? Pick({"-1", "0", "e"})
                                        : Integral(depth)) +
               ")";
      case 2:
        return "-(" + Integral(depth) + ")";
      case 3:
        return "abs(" + Gen(Type::kInt, depth) + ")";
      case 4:
        return "length(" + Gen(Type::kString, depth) + ")";
      default:
        return "(" + Gen(Type::kTs, depth) + " - " + Gen(Type::kTs, depth) +
               ")";
    }
  }

  std::string Float(int depth) {
    switch (rng_.NextBounded(5)) {
      case 0:
      case 1:
        return "(" + Gen(Type::kFloat, depth) +
               Pick({" + ", " - ", " * ", " / "}) + Numeric(depth) + ")";
      case 2:
        return "(" + Numeric(depth) + " / " + Numeric(depth) + ")";
      case 3:
        return Pick({"-(", "abs("}) + Gen(Type::kFloat, depth) + ")";
      default:
        return Pick({"floor(", "ceil(", "round("}) + Numeric(depth) + ")";
    }
  }

  std::string Ts(int depth) {
    const std::string width =
        rng_.NextBernoulli(0.6) ? Pick({"7", "100", "1000"})
                                : Integral(depth);
    return "time_bucket(" + Integral(depth) + ", " + width + ")";
  }

  std::string BoolLeaf(int depth) {
    switch (rng_.NextBounded(4)) {
      case 0:
        return Pick({"k", "true", "false"});
      case 1:
        return "(" + Gen(AnyType(), depth) +
               Pick({" IS NULL", " IS NOT NULL"}) + ")";
      default:
        return Compare(depth);
    }
  }

  std::string Compare(int depth) {
    const std::string op =
        Pick({" = ", " != ", " < ", " <= ", " > ", " >= "});
    switch (rng_.NextBounded(4)) {
      case 0:
        return "(" + Gen(Type::kString, depth) + op +
               Gen(Type::kString, depth) + ")";
      case 1:
        return "(" + Gen(Type::kBool, depth) + op + Gen(Type::kBool, depth) +
               ")";
      default:
        return "(" + Numeric(depth) + op + Numeric(depth) + ")";
    }
  }

  std::string Bool(int depth) {
    switch (rng_.NextBounded(5)) {
      case 0:
      case 1:
        return "(" + Gen(Type::kBool, depth) +
               Pick({" AND ", " OR "}) + Gen(Type::kBool, depth) + ")";
      case 2:
        return "(NOT " + Gen(Type::kBool, depth) + ")";
      default:
        return Compare(depth);
    }
  }

  Rng rng_;
};

/// The same cell: both NULL, or equal values of one type, with float64
/// compared bit for bit (any NaN equal to any NaN).
bool SameCell(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat64) {
    return std::bit_cast<uint64_t>(a.AsFloat64()) ==
               std::bit_cast<uint64_t>(b.AsFloat64()) ||
           (std::isnan(a.AsFloat64()) && std::isnan(b.AsFloat64()));
  }
  return a.Equals(b);
}

/// The reference's cell of `expr` on each live row, in row order, or
/// nullopt when some row errors.
std::optional<std::vector<Value>> ReferenceCells(const std::string& expr,
                                                 const Table& table) {
  const BoundExpr bound =
      Bind(*ParseExpression(expr).value(), table.schema()).value();
  std::vector<Value> cells;
  for (const RowId row : table.LiveRows()) {
    Result<Value> v = reference::EvalScalar(bound, table, row);
    if (!v.ok()) return std::nullopt;
    cells.push_back(*std::move(v));
  }
  return cells;
}

class VectorEvalTest : public ::testing::Test {
 protected:
  VectorEvalTest() : plain_(MakeTable(false)), frozen_(MakeTable(true)) {}

  ExprPtr Parse(const std::string& text) {
    return ParseExpression(text).value();
  }

  /// Checks, on both tiers, that Match agrees with the reference's
  /// accept set segment by segment, and that the engine returns those rows
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
      for (const auto& [seg_no, seg] : table->segments()) {
        std::vector<uint32_t> got;
        ASSERT_TRUE(pred.Match(*seg, scratch, got).ok())
            << what << tier;
        std::vector<uint32_t> want;
        for (size_t off = 0; off < seg->num_rows(); ++off) {
          if (!seg->IsLive(off)) continue;
          const RowId row = seg->first_row() + off;
          if (reference::EvalPredicate(bound, *table, row).value()) {
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

  // Typed expression trees, as WHERE predicates, SELECT items and
  // GROUP BY keys, on both tiers and at pool widths 1 and 2. A statement
  // fails exactly when the reference errors on a row the engine must
  // evaluate; a WHERE may skip a computed conjunct's error on rows a
  // lowered conjunct rejects, but never accepts a row the reference
  // does not hold TRUE.
  ExprGen gen(20261021);
  size_t answered[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    const std::string where = gen.Gen(ExprGen::Type::kBool, 3);
    const std::string item = gen.Gen(gen.AnyType(), 3);
    const std::string key = gen.Gen(gen.AnyType(), 2);
    const std::string arg = gen.Gen(gen.AnyType(), 2);
    SCOPED_TRACE("WHERE " + where + "; SELECT " + item + "; GROUP BY " +
                 key + " with count(" + arg + ")");
    for (Table* table : {plain_.get(), frozen_.get()}) {
      // The reference: per live row, in row order.
      const BoundExpr bound_where =
          Bind(*Parse(where), table->schema()).value();
      std::vector<Timestamp> where_ts;
      bool where_errors = false;
      for (const RowId row : table->LiveRows()) {
        const Result<bool> pass =
            reference::EvalPredicate(bound_where, *table, row);
        where_errors |= !pass.ok();
        if (pass.ok() && *pass) {
          where_ts.push_back(table->InsertTime(row).value());
        }
      }
      const std::optional<std::vector<Value>> item_cells =
          ReferenceCells(item, *table);
      const std::optional<std::vector<Value>> key_cells =
          ReferenceCells(key, *table);
      const std::optional<std::vector<Value>> arg_cells =
          ReferenceCells(arg, *table);
      for (ThreadPool* pool : {&pool1_, &pool2_}) {
        QueryEngineOptions options;
        options.pool = pool;
        options.parallel_scan_min_segments = 2;
        QueryEngine engine(options);
        const std::string at = std::string(table == plain_.get()
                                               ? " [plain"
                                               : " [frozen") +
                               ", width " +
                               std::to_string(pool->num_threads()) + "]";

        const Result<ResultSet> filtered = engine.Execute(
            ParseQuery("SELECT __ts AS ts FROM t WHERE " + where).value(),
            *table, 0);
        if (filtered.ok()) {
          ++answered[0];
          std::vector<Timestamp> got;
          for (size_t r = 0; r < filtered->num_rows(); ++r) {
            got.push_back(filtered->at(r, 0).AsTimestamp());
          }
          EXPECT_EQ(got, where_ts) << "WHERE" << at;
        } else {
          EXPECT_TRUE(where_errors)
              << "WHERE" << at << ": " << filtered.status().ToString();
        }

        const Result<ResultSet> projected = engine.Execute(
            ParseQuery("SELECT " + item + " AS v FROM t").value(), *table, 0);
        ASSERT_EQ(projected.ok(), item_cells.has_value())
            << "SELECT" << at << ": " << projected.status().ToString();
        if (projected.ok()) {
          ++answered[1];
          ASSERT_EQ(projected->num_rows(), item_cells->size()) << at;
          for (size_t r = 0; r < item_cells->size(); ++r) {
            EXPECT_TRUE(SameCell(projected->at(r, 0), (*item_cells)[r]))
                << "SELECT" << at << " row " << r << ": "
                << projected->at(r, 0).ToString() << " vs "
                << (*item_cells)[r].ToString();
          }
        }

        const Result<ResultSet> grouped = engine.Execute(
            ParseQuery("SELECT " + key + " AS g, count(*) AS n, count(" +
                       arg + ") AS c FROM t GROUP BY g")
                .value(),
            *table, 0);
        ASSERT_EQ(grouped.ok(), key_cells.has_value() && arg_cells.has_value())
            << "GROUP BY" << at << ": " << grouped.status().ToString();
        if (!grouped.ok()) continue;
        ++answered[2];
        // Reference groups under SameValue, in first-appearance order,
        // keyed by their first row's cell.
        struct Group {
          Value key;
          int64_t n = 0;
          int64_t c = 0;
        };
        std::vector<Group> groups;
        for (size_t r = 0; r < key_cells->size(); ++r) {
          Group* group = nullptr;
          for (Group& g : groups) {
            if (SameValue(g.key, (*key_cells)[r])) group = &g;
          }
          if (group == nullptr) group = &groups.emplace_back(
                                    Group{(*key_cells)[r]});
          ++group->n;
          group->c += (*arg_cells)[r].is_null() ? 0 : 1;
        }
        ASSERT_EQ(grouped->num_rows(), groups.size()) << "GROUP BY" << at;
        for (size_t r = 0; r < grouped->num_rows(); ++r) {
          const Value& got = grouped->at(r, 0);
          const auto want =
              std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
                return SameValue(g.key, got);
              });
          ASSERT_NE(want, groups.end()) << "GROUP BY" << at << ": "
                                        << got.ToString();
          EXPECT_TRUE(SameCell(got, want->key)) << "GROUP BY" << at;
          EXPECT_EQ(grouped->at(r, 1).AsInt64(), want->n) << at;
          EXPECT_EQ(grouped->at(r, 2).AsInt64(), want->c) << at;
        }
      }
    }
  }
  // The draw is not vacuous: most statements answer rather than fail.
  for (const size_t n : answered) EXPECT_GT(n, 300u);
}

TEST_F(VectorEvalTest, EmptySegmentMatchesNothing) {
  Schema schema = Schema::Make({{"x", DataType::kInt64, false}}).value();
  Segment seg(schema, /*first_row=*/0, /*capacity=*/16,
              /*track_access=*/false);
  ExprPtr expr = ParseExpression("x > 0").value();
  BoundExpr bound = Bind(*expr, schema).value();
  const VectorPredicate pred = VectorPredicate::Compile(bound);
  VectorPredicate::Scratch scratch;
  std::vector<uint32_t> out;
  ASSERT_TRUE(pred.Match(seg, scratch, out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(VectorPredicate().Match(seg, scratch, out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(VectorEvalTest, WalkerConjunctsMatchTheReference) {
  // Conjuncts the kernel does not lower (arithmetic, scalar functions,
  // string `<`) filter the rows the lowered ones kept, as computed
  // conjuncts; alone, mixed with lowered conjuncts, and inside OR / NOT.
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
    // The lowered `a <> 0` drops those rows before the computed
    // conjunct sees them: the statement answers, wherever the conjunct
    // is written.
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
    // Computed conjuncts run in SQL order: the second one never sees a
    // row the first rejected.
    q.where = Parse("abs(a) > 0 AND 10 / a > 1");
    EXPECT_TRUE(engine.Execute(q, *table, 0).ok());
    q.where = Parse("10 / a > 1 AND abs(a) > 0");
    EXPECT_FALSE(engine.Execute(q, *table, 0).ok());
  }
}

}  // namespace
}  // namespace fungusdb
