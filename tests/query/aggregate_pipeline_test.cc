// Randomized differential test of the engine's batch pipeline (selection
// vectors -> typed column batches -> aggregate / GROUP BY / projection)
// against a deliberately simple reference: a row-at-a-time tail kept
// here as a test-only oracle. The reference evaluates every cell through
// the row-at-a-time walker (reference_walker.h), folds aggregates row by row through a
// Value-based accumulator whose float sums add up per segment and then
// in segment order (the summation rule of DESIGN.md §11), and keys
// groups and DISTINCT rows by typed value equality in first-appearance
// order, emitting groups sorted by their rendered key.
//
// Tables mix every column type (nullable), NaN, +-0.0 and |int64| > 2^53,
// plain segments, frozen segments and segments with pending lazy decay.
// Every query runs on a serial engine and on a pooled (morsel-parallel)
// engine; results must match the reference bit for bit, and consuming
// queries must kill exactly the reference's matched set.
//
// Carries the `fsck` ctest label so the TSan job runs it too.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/binder.h"
#include "query/engine.h"
#include "reference_walker.h"
#include "storage/table.h"

namespace fungusdb {
namespace {

// ---------------------------------------------------------------------
// Reference tail.

/// The per-row aggregate accumulator: every observation goes through
/// Value::Compare for MIN/MAX and Value::ToDouble for the sums. Float
/// sums start afresh in each segment and add to the totals when the
/// next segment's first row arrives, or at Finalize.
struct RefAccumulator {
  uint64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0.0;
  double weighted_count = 0.0;
  double weighted_sum = 0.0;
  std::optional<Value> min;
  std::optional<Value> max;
  // The segment being summed, and its sums.
  std::optional<size_t> segment;
  double seg_sum_d = 0.0;
  double seg_weighted_count = 0.0;
  double seg_weighted_sum = 0.0;

  Status Observe(const Value& v, double freshness, size_t seg) {
    if (v.is_null()) return Status::OK();
    if (segment != seg) {
      sum_d += seg_sum_d;
      weighted_count += seg_weighted_count;
      weighted_sum += seg_weighted_sum;
      seg_sum_d = seg_weighted_count = seg_weighted_sum = 0.0;
      segment = seg;
    }
    ++count;
    seg_weighted_count += freshness;
    if (IsNumeric(v.type())) {
      FUNGUSDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
      seg_sum_d += d;
      seg_weighted_sum += freshness * d;
      if (v.type() == DataType::kInt64) sum_i += v.AsInt64();
    }
    if (!min.has_value()) {
      min = v;
      max = v;
    } else {
      FUNGUSDB_ASSIGN_OR_RETURN(int cmp_min, v.Compare(*min));
      if (cmp_min < 0) min = v;
      FUNGUSDB_ASSIGN_OR_RETURN(int cmp_max, v.Compare(*max));
      if (cmp_max > 0) max = v;
    }
    return Status::OK();
  }

  Value Finalize(AggFn fn, std::optional<DataType> result_type) const {
    const double total_d = sum_d + seg_sum_d;
    const double total_wc = weighted_count + seg_weighted_count;
    const double total_ws = weighted_sum + seg_weighted_sum;
    switch (fn) {
      case AggFn::kCount:
        return Value::Int64(static_cast<int64_t>(count));
      case AggFn::kSum:
        if (count == 0) return Value::Null();
        if (result_type == DataType::kInt64) return Value::Int64(sum_i);
        return Value::Float64(total_d);
      case AggFn::kAvg:
        if (count == 0) return Value::Null();
        return Value::Float64(total_d / static_cast<double>(count));
      case AggFn::kMin:
        return min.value_or(Value::Null());
      case AggFn::kMax:
        return max.value_or(Value::Null());
      case AggFn::kFCount:
        return Value::Float64(total_wc);
      case AggFn::kFSum:
        if (count == 0) return Value::Null();
        return Value::Float64(total_ws);
      case AggFn::kFAvg:
        if (count == 0 || total_wc == 0.0) return Value::Null();
        return Value::Float64(total_ws / total_wc);
    }
    return Value::Null();
  }
};

/// Key equality: NULL = NULL, same type, float64 `a == b` or both NaN.
bool RefSameKey(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat64) {
    const double x = a.AsFloat64();
    const double y = b.AsFloat64();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a.Equals(b);
}

bool RefSameRow(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RefSameKey(a[i], b[i])) return false;
  }
  return true;
}

/// The rendered group key groups are emitted in order of.
std::string RenderKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    key += v.is_null() ? "\x01" : v.ToString();
    key += '\x1F';
  }
  return key;
}

std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind() == Expr::Kind::kColumnRef) {
    return item.expr->column_name();
  }
  return item.expr->ToString();
}

Status RefSortRows(ResultSet& result, const OrderBy& order) {
  const int col = result.FindColumn(order.column);
  if (col < 0) return Status::NotFound("ORDER BY column not selected");
  Status sort_status;
  std::stable_sort(
      result.rows.begin(), result.rows.end(),
      [&](const std::vector<Value>& a, const std::vector<Value>& b) {
        const Value& va = a[static_cast<size_t>(col)];
        const Value& vb = b[static_cast<size_t>(col)];
        if (va.is_null() || vb.is_null()) return !va.is_null();
        Result<int> cmp = va.Compare(vb);
        if (!cmp.ok()) {
          if (sort_status.ok()) sort_status = cmp.status();
          return false;
        }
        return order.descending ? *cmp > 0 : *cmp < 0;
      });
  return sort_status;
}

/// Executes `query` row at a time; `matched` receives σ_P(R) in row
/// order. Never mutates the table (a consuming query's kill set is
/// `matched`).
Result<ResultSet> ReferenceExecute(const Query& query, const Table& table,
                                   std::vector<RowId>* matched) {
  const Schema& schema = table.schema();
  bool has_aggregate = !query.group_by.empty();
  for (const SelectItem& item : query.items) {
    if (item.expr->ContainsAggregate()) has_aggregate = true;
  }
  std::optional<BoundExpr> where;
  if (query.where != nullptr) {
    FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*query.where, schema));
    where = std::move(bound);
  }
  struct Item {
    std::string name;
    BoundExpr expr;
  };
  std::vector<Item> items;
  for (const SelectItem& item : query.items) {
    FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*item.expr, schema));
    items.push_back({ItemName(item), std::move(bound)});
  }
  auto covers = [](const Item& item, const std::string& entry) {
    if (item.expr.is_aggregate()) return false;
    if (item.name == entry) return true;
    return item.expr.kind == Expr::Kind::kColumnRef &&
           item.expr.col_name == entry;
  };
  std::vector<BoundExpr> group_exprs;
  for (const std::string& entry : query.group_by) {
    const Item* aliased = nullptr;
    for (const Item& item : items) {
      if (!item.expr.is_aggregate() && item.name == entry) {
        aliased = &item;
        break;
      }
    }
    if (aliased != nullptr) {
      group_exprs.push_back(aliased->expr);
    } else {
      FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr bound,
                                Bind(*Expr::Column(entry), schema));
      group_exprs.push_back(std::move(bound));
    }
  }

  ResultSet result;
  for (const RowId row : table.LiveRows()) {
    ++result.stats.rows_scanned;
    bool pass = true;
    if (where.has_value()) {
      FUNGUSDB_ASSIGN_OR_RETURN(pass,
                                reference::EvalPredicate(*where, table, row));
    }
    if (pass) matched->push_back(row);
  }
  result.stats.rows_matched = matched->size();

  if (!has_aggregate) {
    if (query.items.empty()) {
      for (const Field& f : schema.fields()) {
        result.column_names.push_back(f.name);
      }
    } else {
      for (const Item& item : items) result.column_names.push_back(item.name);
    }
    for (const RowId row : *matched) {
      std::vector<Value> out;
      if (query.items.empty()) {
        for (size_t c = 0; c < schema.num_fields(); ++c) {
          FUNGUSDB_ASSIGN_OR_RETURN(Value v, table.GetValue(row, c));
          out.push_back(std::move(v));
        }
      } else {
        for (const Item& item : items) {
          FUNGUSDB_ASSIGN_OR_RETURN(
              Value v, reference::EvalScalar(item.expr, table, row));
          out.push_back(std::move(v));
        }
      }
      result.rows.push_back(std::move(out));
    }
  } else {
    for (const Item& item : items) result.column_names.push_back(item.name);
    struct Group {
      std::vector<Value> key;
      std::vector<RefAccumulator> accumulators;
    };
    std::vector<Group> groups;  // first-appearance order
    size_t next = 0;            // into *matched, which is in row order
    size_t seg_pos = 0;
    for (const auto& [seg_no, seg] : table.segments()) {
      const RowId end = seg->first_row() + seg->num_rows();
      for (; next < matched->size() && (*matched)[next] < end; ++next) {
        const RowId row = (*matched)[next];
        std::vector<Value> key;
        for (const BoundExpr& g : group_exprs) {
          FUNGUSDB_ASSIGN_OR_RETURN(Value v,
                                    reference::EvalScalar(g, table, row));
          key.push_back(std::move(v));
        }
        Group* group = nullptr;
        for (Group& candidate : groups) {
          if (RefSameRow(candidate.key, key)) group = &candidate;
        }
        if (group == nullptr) {
          groups.push_back({key, std::vector<RefAccumulator>(items.size())});
          group = &groups.back();
        }
        const double freshness = table.Freshness(row);
        for (size_t i = 0; i < items.size(); ++i) {
          const BoundExpr& e = items[i].expr;
          if (!e.is_aggregate()) continue;
          if (e.agg_is_star()) {
            FUNGUSDB_RETURN_IF_ERROR(group->accumulators[i].Observe(
                Value::Int64(1), freshness, seg_pos));
          } else {
            FUNGUSDB_ASSIGN_OR_RETURN(
                Value v, reference::EvalScalar(e.children[0], table, row));
            FUNGUSDB_RETURN_IF_ERROR(
                group->accumulators[i].Observe(v, freshness, seg_pos));
          }
        }
      }
      ++seg_pos;
    }
    if (groups.empty() && query.group_by.empty()) {
      groups.push_back({{}, std::vector<RefAccumulator>(items.size())});
    }
    std::stable_sort(groups.begin(), groups.end(),
                     [](const Group& a, const Group& b) {
                       return RenderKey(a.key) < RenderKey(b.key);
                     });
    for (const Group& group : groups) {
      std::vector<Value> out;
      for (const Item& item : items) {
        if (item.expr.is_aggregate()) {
          out.push_back(group.accumulators[&item - items.data()].Finalize(
              item.expr.agg_fn, item.expr.result_type));
        } else {
          size_t pos = 0;
          for (size_t g = 0; g < query.group_by.size(); ++g) {
            if (covers(item, query.group_by[g])) pos = g;
          }
          out.push_back(group.key[pos]);
        }
      }
      result.rows.push_back(std::move(out));
    }
  }

  if (query.distinct) {
    std::vector<std::vector<Value>> unique_rows;
    for (std::vector<Value>& row : result.rows) {
      bool seen = false;
      for (const std::vector<Value>& kept : unique_rows) {
        if (RefSameRow(kept, row)) seen = true;
      }
      if (!seen) unique_rows.push_back(std::move(row));
    }
    result.rows = std::move(unique_rows);
  }
  if (query.order_by.has_value()) {
    FUNGUSDB_RETURN_IF_ERROR(RefSortRows(result, *query.order_by));
  }
  if (query.limit.has_value() && result.rows.size() > *query.limit) {
    result.rows.resize(*query.limit);
  }
  return result;
}

// ---------------------------------------------------------------------
// Bit-level comparison.

bool Identical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat64) {
    return std::bit_cast<uint64_t>(a.AsFloat64()) ==
           std::bit_cast<uint64_t>(b.AsFloat64());
  }
  return a.Equals(b);
}

void ExpectIdentical(const ResultSet& want, const ResultSet& got,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(want.column_names, got.column_names);
  EXPECT_EQ(want.stats.rows_matched, got.stats.rows_matched);
  EXPECT_EQ(want.stats.rows_scanned,
            got.stats.rows_scanned + got.stats.rows_pruned);
  ASSERT_EQ(want.rows.size(), got.rows.size());
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(want.rows[r].size(), got.rows[r].size());
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(Identical(want.rows[r][c], got.rows[r][c]))
          << "row " << r << " col " << c << ": want "
          << want.rows[r][c].ToString() << ", got "
          << got.rows[r][c].ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Tables.

Schema MixedSchema() {
  return Schema::Make({{"i", DataType::kInt64, true},
                       {"f", DataType::kFloat64, true},
                       {"t", DataType::kTimestamp, true},
                       {"s", DataType::kString, true},
                       {"b", DataType::kBool, true}})
      .value();
}

constexpr int64_t kBig = (int64_t{1} << 53) + 1;  // not a double

Value RandomCell(Rng& rng, DataType type) {
  if (rng.NextBernoulli(0.12)) return Value::Null();
  switch (type) {
    case DataType::kInt64: {
      // Magnitudes past 2^53, where distinct int64 values share a
      // double image (2^53 and 2^53 + 1 tie under MIN/MAX); rare and
      // at most 2^54 so every exact sum stays inside int64.
      if (rng.NextBernoulli(0.05)) {
        static const int64_t kHuge[] = {
            kBig - 1,
            kBig,
            -kBig,
            kBig + 2,
            (int64_t{1} << 54) + 1,
        };
        return Value::Int64(kHuge[rng.NextBounded(5)]);
      }
      return Value::Int64(rng.NextInt(-6, 9));
    }
    case DataType::kFloat64: {
      static const double kFloats[] = {
          0.0,
          -0.0,
          std::nan(""),
          1e-7,
          2e-7,
          1.5,
          -2.25,
          3.0,
          0.1,
          1e300,
          -std::numeric_limits<double>::infinity(),
      };
      if (rng.NextBernoulli(0.5)) {
        return Value::Float64(kFloats[rng.NextBounded(11)]);
      }
      return Value::Float64(rng.NextDouble(-10.0, 10.0));
    }
    case DataType::kTimestamp: {
      static const Timestamp kTimes[] = {0, -7, 1000, 5000, kBig, kBig + 2};
      return Value::TimestampVal(kTimes[rng.NextBounded(6)]);
    }
    case DataType::kString: {
      static const char* const kStrings[] = {"", "a", "b", "it's", "north",
                                             "South"};
      return Value::String(kStrings[rng.NextBounded(6)]);
    }
    case DataType::kBool:
      return Value::Bool(rng.NextBernoulli(0.5));
  }
  return Value::Null();
}

/// A seeded table over every tier state: rows with rewritten freshness
/// and dead rows, then frozen segments (some with non-uniform freshness)
/// unless `freeze` is false, then uniform decay folded lazily onto plain
/// and frozen segments.
std::unique_ptr<Table> MakeTable(uint64_t seed, size_t rows_per_segment,
                                 size_t rows, bool freeze = true) {
  Rng rng(seed);
  TableOptions options;
  options.rows_per_segment = rows_per_segment;
  auto table = std::make_unique<Table>("r", MixedSchema(), options);
  const Schema& schema = table->schema();
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (const Field& f : schema.fields()) {
      row.push_back(RandomCell(rng, f.type));
    }
    FUNGUSDB_CHECK_OK(
        table->Append(row, static_cast<Timestamp>(r) * 10).status());
  }
  for (size_t r = 0; r < rows; ++r) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 8) {
      FUNGUSDB_CHECK_OK(table->Kill(r));
    } else if (roll < 20) {
      FUNGUSDB_CHECK_OK(table->SetFreshness(r, rng.NextDouble(0.3, 1.0)));
    }
  }
  if (freeze) table->FreezeColdSegments(0, table->num_segments() / 2);
  std::vector<uint64_t> seg_nos;
  for (const auto& [seg_no, seg] : table->segments()) {
    seg_nos.push_back(seg_no);
  }
  for (const uint64_t seg_no : seg_nos) {
    const int folds = static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < folds; ++k) {
      table->TryFoldUniformDecay(seg_no, 0.01 * (k + 1) + 0.003);
    }
  }
  return table;
}

// ---------------------------------------------------------------------
// Queries.

/// A random scalar operand: a column (user or system) or an expression
/// the vector kernel does not cover, with its type class.
struct Operand {
  ExprPtr expr;
  bool numeric = false;
};

constexpr AggFn kAggFns[] = {
    AggFn::kCount,
    AggFn::kSum,
    AggFn::kMin,
    AggFn::kMax,
    AggFn::kAvg,
    AggFn::kFCount,
    AggFn::kFSum,
    AggFn::kFAvg,
};

/// Every operand the generator draws from.
const std::vector<Operand>& Operands() {
  static const std::vector<Operand>* const kOperands =
      new std::vector<Operand>{
          {Col("i"), true},
          {Col("f"), true},
          {Col("t"), true},
          {Col("s"), false},
          {Col("b"), false},
          {Col("__ts"), true},
          {Col("__freshness"), true},
          {Expr::Function(ScalarFn::kAbs, {Col("i")}), true},
          {Expr::Binary(BinaryOp::kMod, Col("i"), Lit(int64_t{3})), true},
          {Expr::Function(ScalarFn::kFloor, {Col("f")}), true},
          {Mul(Col("f"), Lit(2.0)), true},
          {Expr::Function(ScalarFn::kLength, {Col("s")}), true},
          {Expr::Function(ScalarFn::kLower, {Col("s")}), false},
          {Expr::Function(ScalarFn::kTimeBucket,
                          {Col("__ts"), Lit(int64_t{700})}),
           true},
          {Gt(Col("i"), Lit(int64_t{2})), false},
      };
  return *kOperands;
}

Operand RandomOperand(Rng& rng) {
  return Operands()[rng.NextBounded(Operands().size())];
}

Operand RandomNumericOperand(Rng& rng) {
  while (true) {
    Operand op = RandomOperand(rng);
    if (op.numeric) return op;
  }
}

ExprPtr RandomLeaf(Rng& rng) {
  static const double kCuts[] = {-1.0, 0.0, 2.0, 1e-7, std::nan("")};
  switch (rng.NextBounded(13)) {
    case 0:
      return Gt(Col("i"), Lit(rng.NextInt(-3, 5)));
    case 1:
      return Le(Col("f"), Lit(kCuts[rng.NextBounded(5)]));
    case 2:
      return Eq(Col("s"), Lit("a"));
    case 3:
      return Ne(Col("s"), Lit("north"));
    case 4:
      return IsNull(Col("i"));
    case 5:
      return IsNotNull(Col("f"));
    case 6:
      return Gt(Col("__freshness"), Lit(0.6));
    case 7:
      return Lt(Col("__ts"), Lit(int64_t{9000}));
    case 8:
      return Ge(Lit(int64_t{1000}), Col("t"));
    case 9:
      return Eq(Col("i"), Col("f"));
    case 10:  // not lowered: its conjunct filters through the walker
      return Eq(Expr::Binary(BinaryOp::kMod, Col("i"), Lit(int64_t{2})),
                Lit(int64_t{0}));
    case 11:
      return Gt(Add(Col("f"), Lit(0.0)), Lit(0.5));
    default:
      return Eq(Col("i"), LitNull());
  }
}

ExprPtr RandomWhere(Rng& rng, int depth = 0) {
  const uint64_t roll = rng.NextBounded(10);
  if (depth >= 2 || roll < 5) return RandomLeaf(rng);
  if (roll < 7) {
    return And(RandomWhere(rng, depth + 1), RandomWhere(rng, depth + 1));
  }
  if (roll < 9) {
    return Or(RandomWhere(rng, depth + 1), RandomWhere(rng, depth + 1));
  }
  return Not(RandomWhere(rng, depth + 1));
}

Query RandomQuery(Rng& rng) {
  Query q;
  q.table_name = "r";
  if (rng.NextBernoulli(0.8)) q.where = RandomWhere(rng);
  const uint64_t shape = rng.NextBounded(10);
  if (shape < 6) {
    // Aggregation over 0-2 GROUP BY keys of any type.
    const int keys = static_cast<int>(rng.NextBounded(3));
    for (int k = 0; k < keys; ++k) {
      const std::string alias = "k" + std::to_string(k);
      if (rng.NextBernoulli(0.5)) {
        static const char* const kCols[] = {"i", "f", "t", "s", "b", "__ts"};
        const std::string col = kCols[rng.NextBounded(6)];
        if (std::find(q.group_by.begin(), q.group_by.end(), col) !=
            q.group_by.end()) {
          continue;
        }
        q.group_by.push_back(col);
        if (rng.NextBernoulli(0.7)) q.items.push_back({Col(col), alias});
      } else {
        q.items.push_back({RandomOperand(rng).expr, alias});
        q.group_by.push_back(alias);
      }
    }
    const int calls = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < calls; ++c) {
      const AggFn fn = kAggFns[rng.NextBounded(8)];
      ExprPtr arg;
      switch (fn) {
        case AggFn::kCount:
        case AggFn::kFCount:
          if (rng.NextBernoulli(0.4)) break;  // COUNT(*) / FCOUNT(*)
          arg = RandomOperand(rng).expr;
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          arg = RandomOperand(rng).expr;
          break;
        default:
          arg = RandomNumericOperand(rng).expr;
          break;
      }
      q.items.push_back({Expr::Aggregate(fn, arg), "a" + std::to_string(c)});
    }
  } else if (shape < 8) {
    // Projection of expressions and system columns.
    const int cols = 1 + static_cast<int>(rng.NextBounded(4));
    for (int c = 0; c < cols; ++c) {
      q.items.push_back({RandomOperand(rng).expr, "p" + std::to_string(c)});
    }
  }  // else SELECT *
  q.distinct = rng.NextBernoulli(0.25) && !q.items.empty();
  if (!q.items.empty() && rng.NextBernoulli(0.4)) {
    const SelectItem& item = q.items[rng.NextBounded(q.items.size())];
    q.order_by = OrderBy{item.alias, rng.NextBernoulli(0.5)};
  }
  if (rng.NextBernoulli(0.3)) q.limit = rng.NextBounded(20);
  q.consuming = rng.NextBernoulli(0.15);
  return q;
}

QueryEngineOptions PooledOptions(ThreadPool* pool) {
  QueryEngineOptions options;
  options.pool = pool;
  options.parallel_scan_min_segments = 2;
  return options;
}

struct TableShape {
  size_t rows_per_segment;
  size_t rows;
};

/// Runs a non-consuming query on a serial and a pooled engine and
/// checks both against the reference.
void CheckObserving(const Query& q, Table& table, ThreadPool& pool,
                    const std::string& label) {
  std::vector<RowId> matched;
  const Result<ResultSet> want = ReferenceExecute(q, table, &matched);
  QueryEngine serial;
  QueryEngine pooled(PooledOptions(&pool));
  const Result<ResultSet> got_serial = serial.Execute(q, table, 0);
  const Result<ResultSet> got_pooled = pooled.Execute(q, table, 0);
  ASSERT_EQ(want.ok(), got_serial.ok())
      << label << ": " << got_serial.status().ToString();
  ASSERT_EQ(want.ok(), got_pooled.ok()) << label;
  if (!want.ok()) return;
  ExpectIdentical(*want, *got_serial, label + " [serial]");
  ExpectIdentical(*want, *got_pooled, label + " [pooled]");
}

void RunDifferential(uint64_t seed, TableShape shape, int queries) {
  ThreadPool pool(4);
  std::unique_ptr<Table> table =
      MakeTable(seed, shape.rows_per_segment, shape.rows);
  Rng rng(seed * 7919 + 1);
  for (int n = 0; n < queries; ++n) {
    const Query q = RandomQuery(rng);
    const std::string label = "seed " + std::to_string(seed) + " query " +
                              std::to_string(n) + ": " + q.ToString();
    if (!q.consuming) {
      CheckObserving(q, *table, pool, label);
      if (::testing::Test::HasFatalFailure()) return;
      continue;
    }
    std::vector<RowId> matched;
    const Result<ResultSet> want = ReferenceExecute(q, *table, &matched);

    // Consuming: run serial on `table` and pooled on an identical copy,
    // each on a fresh build so both see the same extent.
    std::vector<RowId> expected_live;
    for (const RowId row : table->LiveRows()) {
      if (!std::binary_search(matched.begin(), matched.end(), row)) {
        expected_live.push_back(row);
      }
    }
    std::unique_ptr<Table> twin =
        MakeTable(seed, shape.rows_per_segment, shape.rows);
    // Replay this table's earlier consumes onto the twin.
    for (const RowId row : twin->LiveRows()) {
      if (!table->IsLive(row)) FUNGUSDB_CHECK_OK(twin->Kill(row));
    }
    std::vector<RowId> observed_serial;
    std::vector<RowId> observed_pooled;
    QueryEngine serial;
    serial.AddConsumeObserver(
        [&](Table&, const std::vector<RowId>& rows, Timestamp) {
          observed_serial = rows;
        });
    QueryEngine pooled(PooledOptions(&pool));
    pooled.AddConsumeObserver(
        [&](Table&, const std::vector<RowId>& rows, Timestamp) {
          observed_pooled = rows;
        });
    const Result<ResultSet> got_serial = serial.Execute(q, *table, 0);
    const Result<ResultSet> got_pooled = pooled.Execute(q, *twin, 0);
    ASSERT_EQ(want.ok(), got_serial.ok()) << label;
    ASSERT_EQ(want.ok(), got_pooled.ok()) << label;
    if (!want.ok()) continue;
    ExpectIdentical(*want, *got_serial, label + " [serial]");
    ExpectIdentical(*want, *got_pooled, label + " [pooled]");
    EXPECT_EQ(got_serial->stats.rows_consumed, matched.size()) << label;
    EXPECT_EQ(got_pooled->stats.rows_consumed, matched.size()) << label;
    if (!matched.empty()) {
      EXPECT_EQ(observed_serial, matched) << label;
      EXPECT_EQ(observed_pooled, matched) << label;
    }
    EXPECT_EQ(table->LiveRows(), expected_live) << label;
    EXPECT_EQ(twin->LiveRows(), expected_live) << label;
  }
}

TEST(AggregatePipelineTest, SmallSegmentsMatchReference) {
  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    RunDifferential(seed, {16, 600}, 120);
  }
}

TEST(AggregatePipelineTest, EveryAggregateOverEveryOperand) {
  // Exhaustive over aggregate x operand (where the binder accepts the
  // pair), global and grouped by a bool and by a float64 key.
  ThreadPool pool(4);
  std::unique_ptr<Table> table = MakeTable(5, 16, 600);
  for (const AggFn fn : kAggFns) {
    const bool numeric_only = fn != AggFn::kCount && fn != AggFn::kFCount &&
                              fn != AggFn::kMin && fn != AggFn::kMax;
    for (const Operand& op : Operands()) {
      if (numeric_only && !op.numeric) continue;
      for (const std::string key : {"", "b", "f"}) {
        Query q;
        q.table_name = "r";
        if (!key.empty()) {
          q.items.push_back({Col(key), "k0"});
          q.group_by.push_back(key);
        }
        q.items.push_back({Expr::Aggregate(fn, op.expr), "a0"});
        q.items.push_back({Expr::Aggregate(AggFn::kCount, nullptr), "n"});
        CheckObserving(q, *table, pool, q.ToString());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(AggregatePipelineTest, MultiBatchSegmentsMatchReference) {
  // Segments wider than one 1024-row batch, with a short tail batch.
  RunDifferential(11, {2500, 5300}, 60);
}

/// Engine against engine: the same answer, bit for bit, and the same
/// scan statistics.
void ExpectSameAnswer(const ResultSet& want, const ResultSet& got,
                      const std::string& label) {
  EXPECT_EQ(want.stats.rows_scanned, got.stats.rows_scanned) << label;
  EXPECT_EQ(want.stats.rows_pruned, got.stats.rows_pruned) << label;
  ResultSet as_reference = want;
  as_reference.stats.rows_scanned += want.stats.rows_pruned;
  ExpectIdentical(as_reference, got, label);
}

/// An aggregate query over `r`: GROUP BY `keys` (each also selected),
/// then one select item per call.
Query AggQuery(const std::vector<std::string>& keys,
               std::vector<std::pair<AggFn, ExprPtr>> calls,
               ExprPtr where = nullptr) {
  Query q;
  q.table_name = "r";
  q.where = std::move(where);
  for (const std::string& key : keys) {
    q.items.push_back({Col(key), key});
    q.group_by.push_back(key);
  }
  for (size_t c = 0; c < calls.size(); ++c) {
    q.items.push_back({Expr::Aggregate(calls[c].first, calls[c].second),
                       "a" + std::to_string(c)});
  }
  return q;
}

TEST(AggregatePipelineTest, SerialAndPooledAgreeAtEveryWidth) {
  // Float sums over values whose rounding depends on the order they are
  // added in (0.1, 1e-7, 1e300, -inf, NaN), int64 extremes past 2^53
  // that tie in double space, -0.0/0.0 and NaN group keys, multi-key
  // groups, string keys and string filters (codes on both tiers) and
  // every F-aggregate. Each width runs the queries from two threads at
  // once on one shared pool, over a half-frozen table and an all-plain
  // one.
  std::vector<Query> queries = {
      AggQuery({}, {{AggFn::kSum, Col("f")},
                    {AggFn::kAvg, Col("f")},
                    {AggFn::kFSum, Col("f")},
                    {AggFn::kFAvg, Col("i")},
                    {AggFn::kFCount, nullptr}}),
      AggQuery({"b"}, {{AggFn::kSum, Col("f")},
                       {AggFn::kAvg, Col("i")},
                       {AggFn::kMin, Col("i")},
                       {AggFn::kMax, Col("i")},
                       {AggFn::kMin, Col("t")},
                       {AggFn::kMax, Col("f")}}),
      AggQuery({"s", "b"}, {{AggFn::kCount, nullptr},
                            {AggFn::kSum, Col("f")},
                            {AggFn::kFSum, Col("i")},
                            {AggFn::kMin, Col("s")},
                            {AggFn::kMax, Col("s")}}),
      AggQuery({"f"}, {{AggFn::kCount, Col("i")}, {AggFn::kAvg, Col("t")}}),
      AggQuery({"i", "t"}, {{AggFn::kSum, Col("i")},
                            {AggFn::kFAvg, Col("f")},
                            {AggFn::kMax, Col("b")}}),
      AggQuery({"s"}, {{AggFn::kSum, Mul(Col("f"), Lit(2.0))},
                       {AggFn::kMin, Col("__freshness")}},
               Gt(Col("__freshness"), Lit(0.5))),
      AggQuery({"s"}, {{AggFn::kCount, nullptr},
                       {AggFn::kSum, Col("f")},
                       {AggFn::kCount, Col("s")}}),
      AggQuery({"s"}, {{AggFn::kMax, Col("s")}, {AggFn::kAvg, Col("i")}},
               Ne(Col("s"), Lit("north"))),
      AggQuery({"i", "s"}, {{AggFn::kFCount, nullptr},
                            {AggFn::kMin, Col("s")}},
               Eq(Col("s"), Lit(""))),
      AggQuery({"s", "i"}, {{AggFn::kCount, nullptr}},
               Eq(Col("s"), Lit("absent"))),
  };
  Rng rng(4242);
  while (queries.size() < 64) {
    Query q = RandomQuery(rng);
    if (!q.consuming) queries.push_back(std::move(q));
  }
  for (const bool freeze : {true, false}) {
    std::unique_ptr<Table> table = MakeTable(23, 16, 900, freeze);
    QueryEngine serial;
    std::vector<Result<ResultSet>> want;
    for (const Query& q : queries) {
      want.push_back(serial.Execute(q, *table, 0));
    }

    for (const size_t width : {1u, 2u, 4u}) {
      ThreadPool pool(width);
      auto run = [&](int coordinator) {
        QueryEngine pooled(PooledOptions(&pool));
        for (size_t n = 0; n < queries.size(); ++n) {
          const std::string label =
              std::string(freeze ? "half-frozen" : "plain") + " width " +
              std::to_string(width) + " coordinator " +
              std::to_string(coordinator) + ": " + queries[n].ToString();
          const Result<ResultSet> got =
              pooled.Execute(queries[n], *table, 0);
          ASSERT_EQ(want[n].ok(), got.ok()) << label;
          if (got.ok()) ExpectSameAnswer(*want[n], *got, label);
        }
      };
      std::thread other(run, 1);
      run(0);
      other.join();
    }
  }
}

}  // namespace
}  // namespace fungusdb
