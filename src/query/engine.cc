#include "query/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

#include "common/trace.h"
#include "query/aggregate.h"
#include "query/binder.h"
#include "query/evaluator.h"
#include "query/vector_eval.h"

namespace fungusdb {
namespace {

// --- Zone-map pruning planner. ---
//
// A conjunct `numeric_column <cmp> numeric_literal` restricts the rows
// that can match to a closed double-space interval. A segment whose
// zone-map bounds fall entirely outside some conjunct's interval holds
// no matching row and is skipped whole. Strict comparisons are widened
// to closed intervals, which keeps the check conservative (a boundary
// segment is scanned, never wrongly skipped). Everything here works in
// the same double space as Value::Compare, so int64/timestamp bounds
// convert monotonically and no rounding can make pruning unsound.

/// One conjunctive range constraint over a scan target.
struct RangeConstraint {
  ColumnSource source = ColumnSource::kUser;
  size_t col = 0;          // user column index when source == kUser
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  /// Whether a NaN cell satisfies the comparison. Under Value::Compare
  /// NaN is neither < nor > anything, so cmp == 0: =, <=, >= accept a
  /// NaN cell while !=, <, > reject it.
  bool nan_matches = false;
};

/// Constraints extracted from the top-level AND spine of the WHERE
/// tree. `always_false` marks a conjunct no row can ever satisfy
/// (comparison against NULL, or a NaN literal under !=, <, >).
struct PruningPlan {
  std::vector<RangeConstraint> constraints;
  bool always_false = false;
};

void CollectConjuncts(const BoundExpr& expr, PruningPlan& plan) {
  if (expr.kind == Expr::Kind::kBinary &&
      expr.binary_op == BinaryOp::kAnd) {
    CollectConjuncts(expr.children[0], plan);
    CollectConjuncts(expr.children[1], plan);
    return;
  }
  if (expr.kind != Expr::Kind::kBinary) return;
  BinaryOp op = expr.binary_op;
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return;
  }
  const BoundExpr* colref = &expr.children[0];
  const BoundExpr* literal = &expr.children[1];
  if (colref->kind == Expr::Kind::kLiteral &&
      literal->kind == Expr::Kind::kColumnRef) {
    std::swap(colref, literal);
    switch (op) {  // 5 < col  ==  col > 5
      case BinaryOp::kLt:
        op = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        op = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        op = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        op = BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  if (colref->kind != Expr::Kind::kColumnRef ||
      literal->kind != Expr::Kind::kLiteral) {
    return;
  }
  if (colref->col_source == ColumnSource::kUser &&
      (!colref->result_type.has_value() ||
       !IsNumeric(*colref->result_type))) {
    return;
  }
  if (literal->literal.is_null()) {
    // `col <cmp> NULL` is UNKNOWN for every row; the AND spine can
    // never be TRUE.
    plan.always_false = true;
    return;
  }
  if (!IsNumeric(literal->literal.type())) return;
  const double v = literal->literal.ToDouble().value();
  RangeConstraint c;
  c.source = colref->col_source;
  c.col = colref->col_index;
  if (std::isnan(v)) {
    // cmp == 0 against every non-null cell: =, <=, >= match all rows
    // (no bound restriction, but an all-null segment still prunes);
    // !=, <, > match none.
    if (op == BinaryOp::kNe || op == BinaryOp::kLt ||
        op == BinaryOp::kGt) {
      plan.always_false = true;
      return;
    }
    c.nan_matches = true;
    plan.constraints.push_back(c);
    return;
  }
  switch (op) {
    case BinaryOp::kEq:
      c.lo = v;
      c.hi = v;
      c.nan_matches = true;
      break;
    case BinaryOp::kLt:
      c.hi = v;  // closed: boundary segments scan, never wrongly skip
      break;
    case BinaryOp::kLe:
      c.hi = v;
      c.nan_matches = true;
      break;
    case BinaryOp::kGt:
      c.lo = v;
      break;
    case BinaryOp::kGe:
      c.lo = v;
      c.nan_matches = true;
      break;
    default:  // kNe constrains no interval
      return;
  }
  plan.constraints.push_back(c);
}

/// True when the segment's zone map admits at least one potentially
/// matching row; false only when NO live row can satisfy every
/// constraint (the sound-to-skip direction).
bool SegmentCanMatch(const Segment& seg,
                     const std::vector<RangeConstraint>& constraints) {
  const ZoneMap& zone = seg.zone_map();
  for (const RangeConstraint& c : constraints) {
    switch (c.source) {
      case ColumnSource::kTimestamp:
        // Exact over all rows, superset of live rows; never null/NaN.
        if (c.lo > static_cast<double>(zone.max_ts) ||
            c.hi < static_cast<double>(zone.min_ts)) {
          return false;
        }
        break;
      case ColumnSource::kFreshness:
        // Conservative over live rows; never null/NaN. Freshness
        // predicates compare against EFFECTIVE values, so the bounds
        // must be the effective ones (stored bounds with pending decay
        // replayed — Segment::EffectiveMinFreshness).
        if (!zone.has_live_freshness()) return false;
        if (c.lo > seg.EffectiveMaxFreshness() ||
            c.hi < seg.EffectiveMinFreshness()) {
          return false;
        }
        break;
      case ColumnSource::kUser: {
        const ColumnZone& col = zone.columns[c.col];
        if (!col.tracked) break;  // no bounds kept; cannot judge
        if (col.has_nan && c.nan_matches) break;  // a NaN cell matches
        if (!col.has_value()) return false;  // all cells null (or NaN)
        if (c.lo > col.max || c.hi < col.min) return false;
        break;
      }
    }
  }
  return true;
}

/// Name shown for a select item without an alias.
std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind() == Expr::Kind::kColumnRef) {
    return item.expr->column_name();
  }
  return item.expr->ToString();
}

Status SortRows(ResultSet& result, const OrderBy& order) {
  const int col = result.FindColumn(order.column);
  if (col < 0) {
    return Status::NotFound("ORDER BY column '" + order.column +
                            "' is not in the select list");
  }
  Status sort_status;
  std::stable_sort(
      result.rows.begin(), result.rows.end(),
      [&](const std::vector<Value>& a, const std::vector<Value>& b) {
        const Value& va = a[static_cast<size_t>(col)];
        const Value& vb = b[static_cast<size_t>(col)];
        // Nulls sort last regardless of direction.
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

}  // namespace

QueryEngine::QueryEngine(QueryEngineOptions options) : options_(options) {}

void QueryEngine::AddConsumeObserver(ConsumeObserver observer) {
  observers_.push_back(std::move(observer));
}

Result<ResultSet> QueryEngine::Execute(const Query& query, Table& table,
                                       Timestamp now) {
  FUNGUS_TRACE_SPAN("query.execute");
  const Schema& schema = table.schema();

  // --- Analyze the select list. ---
  bool has_aggregate = !query.group_by.empty();
  for (const SelectItem& item : query.items) {
    if (item.expr->ContainsAggregate()) has_aggregate = true;
  }
  if (has_aggregate && query.items.empty()) {
    return Status::InvalidArgument(
        "SELECT * cannot be combined with aggregation");
  }

  // Bind WHERE.
  std::optional<BoundExpr> where;
  if (query.where != nullptr) {
    if (query.where->ContainsAggregate()) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*query.where, schema));
    if (bound.result_type.has_value() &&
        bound.result_type != DataType::kBool) {
      return Status::TypeMismatch("WHERE must be a boolean expression");
    }
    where = std::move(bound);
  }

  // Bind the select list.
  struct BoundItem {
    std::string name;
    BoundExpr expr;
  };
  std::vector<BoundItem> items;
  for (const SelectItem& item : query.items) {
    FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*item.expr, schema));
    items.push_back({ItemName(item), std::move(bound)});
  }

  // A select item "covers" a GROUP BY entry when the entry names its
  // alias (enabling GROUP BY over computed expressions such as
  // time_bucket(__ts, ...)) or, for bare column refs, the column.
  auto covers = [](const BoundItem& item, const std::string& entry) {
    if (item.expr.is_aggregate()) return false;
    if (item.name == entry) return true;
    return item.expr.kind == Expr::Kind::kColumnRef &&
           item.expr.col_name == entry;
  };

  // Aggregate-query shape checks: bare expressions must be grouped on.
  if (has_aggregate) {
    for (const BoundItem& item : items) {
      if (item.expr.is_aggregate()) continue;
      bool grouped = false;
      for (const std::string& entry : query.group_by) {
        if (covers(item, entry)) grouped = true;
      }
      if (!grouped) {
        return Status::InvalidArgument(
            "non-aggregate select item '" + item.name +
            "' must be a GROUP BY column");
      }
    }
  }

  // Bind GROUP BY entries: a select-list alias wins over a table column
  // of the same name.
  std::vector<BoundExpr> group_exprs;
  for (const std::string& entry : query.group_by) {
    const BoundItem* aliased = nullptr;
    for (const BoundItem& item : items) {
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

  // --- Scan & filter. ---
  //
  // 1. Prune: drop live segments whose zone maps cannot satisfy the
  //    WHERE conjuncts (counted in rows_pruned / segments_pruned).
  // 2. Filter survivors into one selection vector per segment: with the
  //    vectorized kernel when the predicate compiles (batch-at-a-time,
  //    morsel-parallel with a pool), else with the row-at-a-time tree
  //    walker.
  ResultSet result;
  std::vector<const Segment*> segments = table.LiveSegments();
  if (where.has_value() && options_.enable_pruning) {
    PruningPlan plan;
    CollectConjuncts(*where, plan);
    if (plan.always_false || !plan.constraints.empty()) {
      std::vector<const Segment*> survivors;
      survivors.reserve(segments.size());
      for (const Segment* seg : segments) {
        if (!plan.always_false &&
            SegmentCanMatch(*seg, plan.constraints)) {
          survivors.push_back(seg);
        } else {
          ++result.stats.segments_pruned;
          result.stats.rows_pruned += seg->live_count();
        }
      }
      segments = std::move(survivors);
    }
  }
  result.stats.segments_scanned = segments.size();
  if (options_.metrics != nullptr && result.stats.segments_pruned > 0) {
    options_.metrics->IncrementCounter(
        "fungusdb.scan.segments_pruned",
        static_cast<int64_t>(result.stats.segments_pruned));
    options_.metrics->IncrementCounter(
        "fungusdb.scan.segments_pruned", "table=" + table.name(),
        static_cast<int64_t>(result.stats.segments_pruned));
    options_.metrics->IncrementCounter(
        "fungusdb.scan.rows_pruned",
        static_cast<int64_t>(result.stats.rows_pruned));
  }

  std::vector<SegmentSelection> selections(segments.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    selections[i].segment = segments[i];
    result.stats.rows_scanned += segments[i]->live_count();
  }
  std::optional<VectorPredicate> vec;
  if (where.has_value()) vec = VectorPredicate::Compile(*where);
  if (!where.has_value() || vec.has_value()) {
    // Batch path over raw column spans, no per-row Value boxing. With a
    // pool and enough segments the scan is morsel-driven: each
    // surviving segment is one morsel whose worker writes that
    // segment's selection, so the selections equal the serial scan's.
    auto scan_segment = [&](SegmentSelection& sel, uint64_t& decoded) {
      const Segment& seg = *sel.segment;
      if (vec.has_value()) {
        thread_local VectorPredicate::Scratch scratch;
        const uint64_t decoded_before = scratch.decoded_batches;
        vec->Match(seg, scratch, sel.offsets);
        decoded += scratch.decoded_batches - decoded_before;
        return;
      }
      // No WHERE: every live row matches. Both tiers go through the
      // shared decode-to-scratch liveness routine (zero-copy on the
      // plain tier); fully-dead spans of a frozen segment are skipped
      // straight off the RLE runs.
      thread_local std::vector<uint8_t> alive_scratch;
      constexpr size_t kBatch = VectorPredicate::kBatchSize;
      alive_scratch.resize(kBatch);
      const size_t n = seg.num_rows();
      const bool frozen = seg.is_frozen();
      sel.offsets.resize(n);
      uint32_t* out = sel.offsets.data();
      size_t m = 0;
      for (size_t base = 0; base < n; base += kBatch) {
        const size_t len = std::min(kBatch, n - base);
        if (frozen && !seg.AnyLive(base, len)) continue;
        const uint8_t* alive =
            seg.DecodeAlive(base, len, alive_scratch.data());
        if (frozen) ++decoded;
        for (size_t i = 0; i < len; ++i) {
          out[m] = static_cast<uint32_t>(base + i);
          m += alive[i];
        }
      }
      sel.offsets.resize(m);
    };
    uint64_t decode_batches = 0;
    ThreadPool* pool = options_.pool;
    if (pool != nullptr && pool->num_threads() > 1 &&
        segments.size() >= options_.parallel_scan_min_segments) {
      std::vector<uint64_t> morsel_decoded(segments.size(), 0);
      pool->ParallelFor(segments.size(), [&](size_t i) {
        FUNGUS_TRACE_SPAN("scan.morsel", i);
        scan_segment(selections[i], morsel_decoded[i]);
      });
      for (const uint64_t d : morsel_decoded) decode_batches += d;
      if (options_.metrics != nullptr) {
        options_.metrics->IncrementCounter(
            "fungusdb.parallel.morsels_dispatched",
            static_cast<int64_t>(segments.size()));
      }
    } else {
      FUNGUS_TRACE_SPAN("scan.serial", segments.size());
      for (SegmentSelection& sel : selections) {
        scan_segment(sel, decode_batches);
      }
    }
    if (options_.metrics != nullptr && decode_batches > 0) {
      options_.metrics->IncrementCounter(
          "fungusdb.storage.decode_batches",
          static_cast<int64_t>(decode_batches));
      options_.metrics->IncrementCounter(
          "fungusdb.storage.decode_batches", "table=" + table.name(),
          static_cast<int64_t>(decode_batches));
    }
  } else {
    // Fallback: row-at-a-time tree walker over the surviving segments.
    FUNGUS_TRACE_SPAN("scan.walker", segments.size());
    for (SegmentSelection& sel : selections) {
      const Segment& seg = *sel.segment;
      const size_t n = seg.num_rows();
      for (size_t off = 0; off < n; ++off) {
        if (!seg.IsLive(off)) continue;
        FUNGUSDB_ASSIGN_OR_RETURN(
            bool pass, EvalPredicate(*where, table, seg.first_row() + off));
        if (pass) sel.offsets.push_back(static_cast<uint32_t>(off));
      }
    }
  }
  for (const SegmentSelection& sel : selections) {
    result.stats.rows_matched += sel.offsets.size();
  }
  if (options_.metrics != nullptr && result.stats.rows_scanned > 0) {
    options_.metrics->IncrementCounter(
        "fungusdb.scan.rows_scanned", "table=" + table.name(),
        static_cast<int64_t>(result.stats.rows_scanned));
  }

  // Row ids exist only where a caller needs them: access tracking and
  // the consume kill set.
  auto matched_rows = [&selections, &result] {
    std::vector<RowId> rows;
    rows.reserve(result.stats.rows_matched);
    for (const SegmentSelection& sel : selections) {
      const RowId first = sel.segment->first_row();
      for (const uint32_t off : sel.offsets) rows.push_back(first + off);
    }
    return rows;
  };
  if (options_.record_access && table.options().track_access) {
    for (const RowId row : matched_rows()) table.RecordAccess(row);
  }

  // --- Project / aggregate over the selections. ---
  if (!has_aggregate) {
    std::vector<Operand> operands;
    if (query.items.empty()) {
      // SELECT *: all user columns in schema order.
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        result.column_names.push_back(schema.field(c).name);
        operands.push_back(Operand::Column(c, schema.field(c).type));
      }
    } else {
      for (const BoundItem& item : items) {
        result.column_names.push_back(item.name);
        operands.emplace_back(item.expr);
      }
    }
    result.rows.reserve(result.stats.rows_matched);
    for (const SegmentSelection& sel : selections) {
      FUNGUSDB_RETURN_IF_ERROR(
          ForEachBatch(sel, [&](const SelectedBatch& batch) -> Status {
            for (Operand& op : operands) {
              FUNGUSDB_RETURN_IF_ERROR(op.Load(table, batch));
            }
            for (size_t k = 0; k < batch.m; ++k) {
              std::vector<Value>& row =
                  result.rows.emplace_back(operands.size());
              for (size_t c = 0; c < operands.size(); ++c) {
                row[c] = operands[c].cells().Box(batch.sel[k]);
              }
            }
            return Status::OK();
          }));
    }
  } else {
    std::vector<const BoundExpr*> calls;
    for (const BoundItem& item : items) {
      result.column_names.push_back(item.name);
      if (item.expr.is_aggregate()) calls.push_back(&item.expr);
    }
    Aggregation aggregation(calls, group_exprs);
    for (const SegmentSelection& sel : selections) {
      FUNGUSDB_RETURN_IF_ERROR(aggregation.Add(table, sel));
    }
    for (const uint32_t group : aggregation.OutputOrder()) {
      std::vector<Value> out_row;
      out_row.reserve(items.size());
      size_t call = 0;
      for (const BoundItem& item : items) {
        if (item.expr.is_aggregate()) {
          out_row.push_back(aggregation.Result(group, call++));
        } else {
          // A grouped item: find its position among group_by entries.
          size_t pos = 0;
          for (size_t g = 0; g < query.group_by.size(); ++g) {
            if (covers(item, query.group_by[g])) pos = g;
          }
          out_row.push_back(aggregation.KeyValue(group, pos));
        }
      }
      result.rows.push_back(std::move(out_row));
    }
  }

  // --- DISTINCT / ORDER BY / LIMIT. ---
  if (query.distinct) {
    // Collapse duplicate output rows, keeping first occurrences in
    // order. Rows are equal when every cell is the same value
    // (SameValue: NULL equals NULL, -0.0 equals 0.0, NaN equals NaN).
    std::vector<std::vector<Value>> unique_rows;
    unique_rows.reserve(result.rows.size());
    auto hash = [&unique_rows](size_t r) {
      size_t h = 0;
      for (const Value& v : unique_rows[r]) {
        h = h * 0x100000001b3ULL ^ HashValue(v);
      }
      return h;
    };
    auto equal = [&unique_rows](size_t a, size_t b) {
      const std::vector<Value>& x = unique_rows[a];
      const std::vector<Value>& y = unique_rows[b];
      for (size_t c = 0; c < x.size(); ++c) {
        if (!SameValue(x[c], y[c])) return false;
      }
      return true;
    };
    std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
        result.rows.size(), hash, equal);
    for (std::vector<Value>& row : result.rows) {
      unique_rows.push_back(std::move(row));
      if (!seen.insert(unique_rows.size() - 1).second) unique_rows.pop_back();
    }
    result.rows = std::move(unique_rows);
  }
  if (query.order_by.has_value()) {
    FUNGUSDB_RETURN_IF_ERROR(SortRows(result, *query.order_by));
  }
  if (query.limit.has_value() && result.rows.size() > *query.limit) {
    result.rows.resize(*query.limit);
  }

  // --- Law 2: consume σ_P(R). ---
  if (query.consuming && result.stats.rows_matched > 0) {
    const std::vector<RowId> matched = matched_rows();
    for (const RowId row : matched) {
      FUNGUSDB_RETURN_IF_ERROR(table.Kill(row));
    }
    result.stats.rows_consumed = matched.size();
    for (const ConsumeObserver& obs : observers_) {
      obs(table, matched, now);
    }
    table.ReclaimDeadSegments();
  }

  return result;
}

}  // namespace fungusdb
