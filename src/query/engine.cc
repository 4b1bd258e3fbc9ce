#include "query/engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_set>

#include "common/mutex.h"
#include "common/trace.h"
#include "query/aggregate.h"
#include "query/binder.h"
#include "query/vector_eval.h"

namespace fungusdb {
namespace {

/// The calling thread's filter buffers, reused across statements.
VectorPredicate::Scratch& ThreadScratch() {
  thread_local VectorPredicate::Scratch scratch;
  return scratch;
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
    return Status::ColumnNotFound("ORDER BY column '" + order.column +
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

  // Bind and compile WHERE. Without one, the filter has no conjunct and
  // selects every live row.
  VectorPredicate filter;
  if (query.where != nullptr) {
    if (query.where->ContainsAggregate()) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    FUNGUSDB_ASSIGN_OR_RETURN(BoundExpr bound, Bind(*query.where, schema));
    if (bound.result_type.has_value() &&
        bound.result_type != DataType::kBool) {
      return Status::TypeMismatch("WHERE must be a boolean expression");
    }
    filter = VectorPredicate::Compile(bound);
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
  // One filter makes both decisions. A serial pre-pass drops every live
  // segment it proves holds no matching row (CanMatch: counted in
  // rows_pruned / segments_pruned); each survivor is then filtered into
  // its own selection vector (Match), one segment per morsel.
  ResultSet result;
  std::vector<const Segment*> segments;
  for (const Segment* seg : table.LiveSegments()) {
    if (filter.CanMatch(*seg, ThreadScratch())) {
      segments.push_back(seg);
      continue;
    }
    ++result.stats.segments_pruned;
    result.stats.rows_pruned += seg->live_count();
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
  std::vector<const BoundExpr*> calls;
  for (const BoundItem& item : items) {
    if (item.expr.is_aggregate()) calls.push_back(&item.expr);
  }
  // Each participant — the calling thread, plus any idle pool thread
  // that joins in — claims segments off one cursor, in increasing
  // order. For an aggregate query it folds each segment with its own
  // AggregateFolder, which hands the segment's float sums over in that
  // segment's partial; partials merge in segment order as soon as every
  // earlier one has, so the answer does not depend on which thread
  // folded what, and a merged partial's memory is freed while later
  // segments are still being folded. The folders' running states merge
  // at the end.
  ThreadPool* pool = options_.pool;
  const bool fan_out = pool != nullptr && pool->num_threads() > 1 &&
                       segments.size() >= options_.parallel_scan_min_segments;
  const size_t participants = fan_out ? pool->num_threads() : 1;
  Aggregation aggregation(calls, group_exprs);
  std::vector<AggregateFolder> folders;
  std::vector<SegmentPartial> partials;
  // Under merge_mu: each segment's fold status once it is folded, the
  // partials merged so far, and the first error in segment order.
  std::vector<std::optional<Status>> folded;
  size_t merged = 0;
  Status aggregate_status;
  Mutex merge_mu;
  if (has_aggregate) {
    for (size_t p = 0; p < participants; ++p) {
      folders.emplace_back(calls, group_exprs);
    }
    partials.resize(segments.size());
    folded.resize(segments.size());
  }
  auto fold = [&](size_t p, size_t i) {
    Status status = folders[p].Fold(selections[i], static_cast<uint32_t>(i),
                                    partials[i]);
    MutexLock lock(merge_mu);
    folded[i] = std::move(status);
    for (; merged < segments.size() && folded[merged].has_value(); ++merged) {
      if (!folded[merged]->ok()) {
        if (aggregate_status.ok()) aggregate_status = *folded[merged];
      } else if (aggregate_status.ok()) {
        aggregation.Merge(std::move(partials[merged]));
      }
      partials[merged] = SegmentPartial{};
    }
  };
  // A segment whose filter fails is not folded: its error ends the
  // statement, the first in segment order.
  std::vector<Status> scan_status(segments.size());
  std::vector<uint64_t> morsel_decoded(segments.size(), 0);
  std::atomic<size_t> next_segment{0};
  auto participate = [&](size_t p) {
    for (size_t i; (i = next_segment.fetch_add(
                        1, std::memory_order_relaxed)) < segments.size();) {
      FUNGUS_TRACE_SPAN("scan.morsel", i);
      VectorPredicate::Scratch& scratch = ThreadScratch();
      const uint64_t decoded_before = scratch.decoded_batches;
      scan_status[i] =
          filter.Match(*selections[i].segment, scratch, selections[i].offsets);
      morsel_decoded[i] = scratch.decoded_batches - decoded_before;
      if (has_aggregate && scan_status[i].ok()) fold(p, i);
    }
  };
  if (fan_out) {
    pool->ParallelFor(participants, participate);
    if (options_.metrics != nullptr) {
      options_.metrics->IncrementCounter(
          "fungusdb.parallel.morsels_dispatched",
          static_cast<int64_t>(segments.size()));
    }
  } else {
    FUNGUS_TRACE_SPAN("scan.serial", segments.size());
    participate(0);
  }
  for (const Status& status : scan_status) FUNGUSDB_RETURN_IF_ERROR(status);
  FUNGUSDB_RETURN_IF_ERROR(aggregate_status);
  for (AggregateFolder& folder : folders) {
    FUNGUSDB_RETURN_IF_ERROR(aggregation.MergeStates(folder));
  }
  uint64_t decode_batches = 0;
  for (const uint64_t d : morsel_decoded) decode_batches += d;
  if (options_.metrics != nullptr && decode_batches > 0) {
    options_.metrics->IncrementCounter(
        "fungusdb.storage.decode_batches",
        static_cast<int64_t>(decode_batches));
    options_.metrics->IncrementCounter(
        "fungusdb.storage.decode_batches", "table=" + table.name(),
        static_cast<int64_t>(decode_batches));
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
              FUNGUSDB_RETURN_IF_ERROR(op.Load(batch));
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
    for (const BoundItem& item : items) {
      result.column_names.push_back(item.name);
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
