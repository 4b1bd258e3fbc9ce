#include "query/aggregate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "query/evaluator.h"

namespace fungusdb {

Status ForEachBatch(const SegmentSelection& selection,
                    const std::function<Status(const SelectedBatch&)>& fn) {
  uint32_t sel[kPipelineBatch];
  const std::vector<uint32_t>& offsets = selection.offsets;
  const size_t rows = selection.segment->num_rows();
  size_t k = 0;
  while (k < offsets.size()) {
    const size_t base = offsets[k] / kPipelineBatch * kPipelineBatch;
    const size_t end = std::min(base + kPipelineBatch, rows);
    size_t m = 0;
    while (k < offsets.size() && offsets[k] < end) {
      sel[m++] = static_cast<uint32_t>(offsets[k++] - base);
    }
    FUNGUSDB_RETURN_IF_ERROR(
        fn(SelectedBatch{selection.segment, base, end - base, sel, m}));
  }
  return Status::OK();
}

Value Cells::Box(size_t i) const {
  if (kind == Kind::kValue) return values[i];
  if (nulls != nullptr && nulls[i] != 0) return Value::Null();
  switch (kind) {
    case Kind::kInt64:
      return Value::Int64(ints[i]);
    case Kind::kTimestamp:
      return Value::TimestampVal(ints[i]);
    case Kind::kFloat64:
      return Value::Float64(doubles[i]);
    case Kind::kString:
      return Value::String(std::string(strings[i]));
    case Kind::kBool:
      return Value::Bool(bools[i] != 0);
    case Kind::kValue:
      break;
  }
  return Value::Null();
}

// --- Operand. ---

Operand::Operand(const BoundExpr& expr) : expr_(&expr) {
  if (expr.kind != Expr::Kind::kColumnRef) return;  // walker
  switch (expr.col_source) {
    case ColumnSource::kTimestamp:
      source_ = Source::kTs;
      return;
    case ColumnSource::kFreshness:
      source_ = Source::kFreshness;
      return;
    case ColumnSource::kUser:
      source_ = Source::kUser;
      col_ = expr.col_index;
      type_ = *expr.result_type;
      return;
  }
}

Operand Operand::Column(size_t col, DataType type) {
  Operand op;
  op.source_ = Source::kUser;
  op.col_ = col;
  op.type_ = type;
  return op;
}

Operand Operand::Freshness() {
  Operand op;
  op.source_ = Source::kFreshness;
  return op;
}

Status Operand::Load(const Table& table, const SelectedBatch& batch) {
  const Segment& seg = *batch.segment;
  const size_t base = batch.base;
  const size_t n = batch.n;
  switch (source_) {
    case Source::kTs:
      ints_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kTimestamp;
      cells_.ints = seg.DecodeTs(base, n, ints_.data());
      return Status::OK();
    case Source::kFreshness: {
      doubles_.resize(kPipelineBatch);
      bytes_.resize(kPipelineBatch);
      const uint8_t* alive = seg.DecodeAlive(base, n, bytes_.data());
      double* f = doubles_.data();
      seg.DecodeStoredFreshness(base, n, alive, f);
      // Replay pending uniform decrements in fold order, as
      // Segment::Freshness does; dead rows are never selected.
      for (const double d : seg.pending_decay()) {
        for (size_t i = 0; i < n; ++i) f[i] -= d;
      }
      cells_.kind = Cells::Kind::kFloat64;
      cells_.doubles = f;
      return Status::OK();
    }
    case Source::kUser:
      cells_.nulls = nullptr;
      if (seg.column_null_count(col_) != 0) {
        nulls_.resize(kPipelineBatch);
        seg.DecodeNulls(col_, base, n, nulls_.data());
        cells_.nulls = nulls_.data();
      }
      switch (type_) {
        case DataType::kInt64:
        case DataType::kTimestamp:
          ints_.resize(kPipelineBatch);
          cells_.kind = type_ == DataType::kInt64 ? Cells::Kind::kInt64
                                                  : Cells::Kind::kTimestamp;
          cells_.ints = seg.DecodeInt64Column(col_, base, n, ints_.data());
          break;
        case DataType::kFloat64:
          cells_.kind = Cells::Kind::kFloat64;
          cells_.doubles = seg.DecodeFloat64Column(col_, base, n);
          break;
        case DataType::kString:
          strings_.resize(kPipelineBatch);
          cells_.kind = Cells::Kind::kString;
          seg.DecodeStringColumn(col_, base, n, strings_.data());
          cells_.strings = strings_.data();
          cells_.codes = nullptr;
          if (seg.is_frozen()) {
            codes_.resize(kPipelineBatch);
            seg.DecodeStringCodes(col_, base, n, codes_.data());
            cells_.codes = codes_.data();
          }
          break;
        case DataType::kBool:
          bytes_.resize(kPipelineBatch);
          cells_.kind = Cells::Kind::kBool;
          seg.DecodeBoolColumn(col_, base, n, bytes_.data());
          cells_.bools = bytes_.data();
          break;
      }
      return Status::OK();
    case Source::kWalker: {
      values_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kValue;
      cells_.values = values_.data();
      const RowId first = seg.first_row() + base;
      for (size_t k = 0; k < batch.m; ++k) {
        const uint32_t i = batch.sel[k];
        FUNGUSDB_ASSIGN_OR_RETURN(values_[i],
                                  EvalScalar(*expr_, table, first + i));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled operand source");
}

// --- Key equality. ---

namespace {

/// Canonical bits of a float64 key: one word for -0.0 and 0.0, one for
/// every NaN.
uint64_t FloatKeyWord(double d) {
  if (std::isnan(d)) return 0x7ff8000000000000ULL;
  if (d == 0.0) return 0;
  return std::bit_cast<uint64_t>(d);
}

}  // namespace

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kFloat64) {
    const double x = a.AsFloat64();
    const double y = b.AsFloat64();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a.Equals(b);
}

size_t HashValue(const Value& v) {
  if (v.is_null()) return 0x9e3779b97f4a7c15ULL;
  const size_t tag = static_cast<size_t>(v.type()) * 0x100000001b3ULL;
  switch (v.type()) {
    case DataType::kInt64:
      return tag ^ std::hash<int64_t>{}(v.AsInt64());
    case DataType::kTimestamp:
      return tag ^ std::hash<int64_t>{}(v.AsTimestamp());
    case DataType::kFloat64:
      return tag ^ std::hash<uint64_t>{}(FloatKeyWord(v.AsFloat64()));
    case DataType::kString:
      return tag ^ std::hash<std::string>{}(v.AsString());
    case DataType::kBool:
      return tag ^ static_cast<size_t>(v.AsBool());
  }
  return tag;
}

// --- AggState. ---

Value AggState::Finalize(AggFn fn,
                         std::optional<DataType> result_type) const {
  switch (fn) {
    case AggFn::kCount:
      return Value::Int64(static_cast<int64_t>(count));
    case AggFn::kSum:
      if (count == 0) return Value::Null();
      if (result_type == DataType::kInt64) return Value::Int64(sum_i);
      return Value::Float64(sum_d);
    case AggFn::kAvg:
      if (count == 0) return Value::Null();
      return Value::Float64(sum_d / static_cast<double>(count));
    case AggFn::kMin:
    case AggFn::kMax:
      return has_extreme ? extreme : Value::Null();
    case AggFn::kFCount:
      return Value::Float64(weighted_count);
    case AggFn::kFSum:
      if (count == 0) return Value::Null();
      return Value::Float64(weighted_sum);
    case AggFn::kFAvg:
      if (count == 0 || weighted_count == 0.0) return Value::Null();
      return Value::Float64(weighted_sum / weighted_count);
  }
  return Value::Null();
}

// --- Aggregate kernels. ---
//
// One kernel per aggregate function, each a loop over the selected rows
// of a batch in offset order. `slots` maps a selected row to its group's
// state (nullptr: the single global group); `f` holds the batch's
// effective freshness (F-aggregates only).

namespace {

struct KernelArgs {
  const SelectedBatch* batch;
  const uint32_t* slots;  // nullptr: every row folds into states[0]
  AggState* states;
  size_t stride;  // states per group
  const double* f;
};

/// Calls fn(state, i) for every selected row.
template <typename Fn>
void ForSelected(const KernelArgs& a, Fn&& fn) {
  const SelectedBatch& b = *a.batch;
  if (a.slots == nullptr) {
    AggState& s = a.states[0];
    for (size_t k = 0; k < b.m; ++k) fn(s, b.sel[k]);
    return;
  }
  for (size_t k = 0; k < b.m; ++k) {
    fn(a.states[a.slots[k] * a.stride], b.sel[k]);
  }
}

/// Calls fn(state, i, d) for every selected non-null numeric cell, with
/// `d` its double image. `is_int` tells whether cells are int64 (for the
/// exact sum).
template <typename Fn>
void ForNumeric(const KernelArgs& a, const Cells& c, Fn&& fn) {
  const uint8_t* nulls = c.nulls;
  switch (c.kind) {
    case Cells::Kind::kFloat64: {
      const double* x = c.doubles;
      ForSelected(a, [&](AggState& s, uint32_t i) {
        if (nulls == nullptr || nulls[i] == 0) fn(s, i, x[i]);
      });
      return;
    }
    case Cells::Kind::kInt64:
    case Cells::Kind::kTimestamp: {
      const int64_t* x = c.ints;
      ForSelected(a, [&](AggState& s, uint32_t i) {
        if (nulls == nullptr || nulls[i] == 0) {
          fn(s, i, static_cast<double>(x[i]));
        }
      });
      return;
    }
    default:
      return;
  }
}

void AddExact(AggState& s, int64_t v) {
  s.sum_i = static_cast<int64_t>(static_cast<uint64_t>(s.sum_i) +
                                 static_cast<uint64_t>(v));
}

/// Folds one walker Value the way the typed kernels fold a cell.
Status ObserveValue(AggFn fn, AggState& s, const Value& v, double f) {
  if (v.is_null()) return Status::OK();
  const bool numeric = IsNumeric(v.type());
  switch (fn) {
    case AggFn::kCount:
      ++s.count;
      return Status::OK();
    case AggFn::kFCount:
      s.weighted_count += f;
      return Status::OK();
    case AggFn::kMin:
    case AggFn::kMax: {
      if (!s.has_extreme) {
        s.has_extreme = true;
        s.extreme = v;
        return Status::OK();
      }
      FUNGUSDB_ASSIGN_OR_RETURN(int cmp, v.Compare(s.extreme));
      if (fn == AggFn::kMin ? cmp < 0 : cmp > 0) s.extreme = v;
      return Status::OK();
    }
    default:
      break;
  }
  ++s.count;
  if (fn == AggFn::kFAvg) s.weighted_count += f;
  if (!numeric) return Status::OK();
  FUNGUSDB_ASSIGN_OR_RETURN(double d, v.ToDouble());
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kAvg:
      s.sum_d += d;
      if (v.type() == DataType::kInt64) AddExact(s, v.AsInt64());
      break;
    case AggFn::kFSum:
    case AggFn::kFAvg:
      s.weighted_sum += f * d;
      break;
    default:
      break;
  }
  return Status::OK();
}

/// MIN/MAX over typed cells: double-space comparison for numerics,
/// lexicographic for strings, false < true for bools; a tie keeps the
/// earlier value.
void FoldExtreme(const KernelArgs& a, const Cells& c, bool is_min) {
  switch (c.kind) {
    case Cells::Kind::kInt64:
    case Cells::Kind::kTimestamp:
    case Cells::Kind::kFloat64:
      ForNumeric(a, c, [&](AggState& s, uint32_t i, double d) {
        if (!s.has_extreme || (is_min ? d < s.extreme_key
                                      : d > s.extreme_key)) {
          s.has_extreme = true;
          s.extreme_key = d;
          s.extreme = c.Box(i);
        }
      });
      return;
    case Cells::Kind::kString:
      ForSelected(a, [&](AggState& s, uint32_t i) {
        if (c.IsNull(i)) return;
        const std::string_view v = c.strings[i];
        if (!s.has_extreme ||
            (is_min ? v < s.extreme.AsString() : v > s.extreme.AsString())) {
          s.has_extreme = true;
          s.extreme = Value::String(std::string(v));
        }
      });
      return;
    case Cells::Kind::kBool:
      ForSelected(a, [&](AggState& s, uint32_t i) {
        if (c.IsNull(i)) return;
        const bool v = c.bools[i] != 0;
        if (!s.has_extreme ||
            (is_min ? v < s.extreme.AsBool() : v > s.extreme.AsBool())) {
          s.has_extreme = true;
          s.extreme = Value::Bool(v);
        }
      });
      return;
    case Cells::Kind::kValue:
      return;  // handled by ObserveValue
  }
}

/// Folds one aggregate call over one batch.
Status FoldCall(AggFn fn, const Cells* arg, const KernelArgs& a) {
  const double* f = a.f;
  if (arg == nullptr) {  // COUNT(*) / FCOUNT(*)
    if (fn == AggFn::kCount) {
      if (a.slots == nullptr) {
        a.states[0].count += a.batch->m;
      } else {
        ForSelected(a, [](AggState& s, uint32_t) { ++s.count; });
      }
    } else {
      ForSelected(a, [f](AggState& s, uint32_t i) {
        s.weighted_count += f[i];
      });
    }
    return Status::OK();
  }
  const Cells& c = *arg;
  if (c.kind == Cells::Kind::kValue) {
    Status status;
    ForSelected(a, [&](AggState& s, uint32_t i) {
      if (!status.ok()) return;
      status = ObserveValue(fn, s, c.values[i], f == nullptr ? 0.0 : f[i]);
    });
    return status;
  }
  switch (fn) {
    case AggFn::kCount:
      ForSelected(a, [&c](AggState& s, uint32_t i) {
        if (!c.IsNull(i)) ++s.count;
      });
      break;
    case AggFn::kFCount:
      ForSelected(a, [&c, f](AggState& s, uint32_t i) {
        if (!c.IsNull(i)) s.weighted_count += f[i];
      });
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      if (c.kind == Cells::Kind::kInt64) {
        const int64_t* x = c.ints;
        ForNumeric(a, c, [x](AggState& s, uint32_t i, double d) {
          ++s.count;
          s.sum_d += d;
          AddExact(s, x[i]);
        });
      } else {
        ForNumeric(a, c, [](AggState& s, uint32_t, double d) {
          ++s.count;
          s.sum_d += d;
        });
      }
      break;
    case AggFn::kFSum:
      ForNumeric(a, c, [f](AggState& s, uint32_t i, double d) {
        ++s.count;
        s.weighted_sum += f[i] * d;
      });
      break;
    case AggFn::kFAvg:
      ForNumeric(a, c, [f](AggState& s, uint32_t i, double d) {
        ++s.count;
        s.weighted_count += f[i];
        s.weighted_sum += f[i] * d;
      });
      break;
    case AggFn::kMin:
    case AggFn::kMax:
      FoldExtreme(a, c, fn == AggFn::kMin);
      break;
  }
  return Status::OK();
}

bool IsFreshnessWeighted(AggFn fn) {
  return fn == AggFn::kFCount || fn == AggFn::kFSum || fn == AggFn::kFAvg;
}

}  // namespace

// --- IdTable. ---

namespace {

/// A bijective 64-bit mixer (the splitmix64 finalizer): equal hashes
/// mean equal words.
uint64_t MixWord(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void IdTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kEmpty) continue;
    size_t p = slot.hash & mask;
    while (slots_[p].id != kEmpty) p = (p + 1) & mask;
    slots_[p] = slot;
  }
}

// --- KeyDictionary. ---

uint32_t Aggregation::KeyDictionary::NullId() {
  if (null_id_ < 0) null_id_ = next_id_++;
  return static_cast<uint32_t>(null_id_);
}

uint32_t Aggregation::KeyDictionary::WordId(uint64_t word) {
  bool inserted = false;
  const uint32_t entry = words_.FindOrInsert(
      MixWord(word), [](uint32_t) { return true; }, &inserted);
  if (inserted) word_ids_.push_back(next_id_++);
  return word_ids_[entry];
}

uint32_t Aggregation::KeyDictionary::StringId(std::string_view s) {
  bool inserted = false;
  const uint32_t entry = strings_.FindOrInsert(
      std::hash<std::string_view>{}(s),
      [&](uint32_t e) { return string_keys_[e] == s; }, &inserted);
  if (inserted) {
    string_keys_.emplace_back(s);
    string_ids_.push_back(next_id_++);
  }
  return string_ids_[entry];
}

void Aggregation::KeyDictionary::Assign(const Cells& cells,
                                        const SelectedBatch& batch,
                                        uint32_t* ids) {
  const uint32_t* sel = batch.sel;
  const size_t m = batch.m;
  auto each = [&](auto&& id_of) {
    for (size_t k = 0; k < m; ++k) {
      const uint32_t i = sel[k];
      ids[k] = cells.IsNull(i) ? NullId() : id_of(i);
    }
  };
  switch (cells.kind) {
    case Cells::Kind::kInt64:
    case Cells::Kind::kTimestamp:
      each([&](uint32_t i) {
        return WordId(static_cast<uint64_t>(cells.ints[i]));
      });
      return;
    case Cells::Kind::kFloat64:
      each([&](uint32_t i) {
        return WordId(FloatKeyWord(cells.doubles[i]));
      });
      return;
    case Cells::Kind::kBool:
      each([&](uint32_t i) { return WordId(cells.bools[i]); });
      return;
    case Cells::Kind::kString:
      if (cells.codes != nullptr) {
        // Frozen: one hash lookup per dictionary code per segment.
        if (code_segment_ != batch.segment) {
          code_segment_ = batch.segment;
          code_ids_.clear();
        }
        each([&](uint32_t i) {
          const uint32_t code = cells.codes[i];
          if (code >= code_ids_.size()) code_ids_.resize(code + 1, -1);
          if (code_ids_[code] < 0) {
            code_ids_[code] = StringId(cells.strings[i]);
          }
          return static_cast<uint32_t>(code_ids_[code]);
        });
        return;
      }
      each([&](uint32_t i) { return StringId(cells.strings[i]); });
      return;
    case Cells::Kind::kValue:
      each([&](uint32_t i) {
        auto [it, inserted] = others_.try_emplace(cells.values[i], next_id_);
        if (inserted) ++next_id_;
        return it->second;
      });
      return;
  }
}

// --- Aggregation. ---

Aggregation::Aggregation(const std::vector<const BoundExpr*>& calls,
                         const std::vector<BoundExpr>& keys) {
  for (const BoundExpr* call : calls) {
    Call c;
    c.expr = call;
    if (!call->agg_is_star()) c.arg.emplace(call->children[0]);
    if (IsFreshnessWeighted(call->agg_fn) && !freshness_.has_value()) {
      freshness_ = Operand::Freshness();
    }
    calls_.push_back(std::move(c));
  }
  for (const BoundExpr& key : keys) key_operands_.emplace_back(key);
  key_dicts_.resize(keys.size());
  if (keys.size() > 1) links_.resize(keys.size() - 1);
  key_ids_.resize(keys.size() * kPipelineBatch);
  slots_.resize(kPipelineBatch);
  if (keys.empty()) {
    num_groups_ = 1;
    states_.resize(calls_.size());
  }
}

void Aggregation::AssignGroups(const SelectedBatch& batch) {
  const size_t num_keys = key_operands_.size();
  for (size_t j = 0; j < num_keys; ++j) {
    key_dicts_[j].Assign(key_operands_[j].cells(), batch,
                         key_ids_.data() + j * kPipelineBatch);
  }
  for (size_t k = 0; k < batch.m; ++k) {
    // Chain the key ids into one group id.
    uint32_t id = key_ids_[k];
    bool is_new = id == num_groups_;  // one key: key ids are group ids
    for (size_t j = 1; j < num_keys; ++j) {
      // Pairs are hashed by a bijection, so a matching hash is a match.
      const uint64_t pair =
          (uint64_t{id} << 32) | key_ids_[j * kPipelineBatch + k];
      bool inserted = false;
      id = links_[j - 1].FindOrInsert(
          MixWord(pair), [](uint32_t) { return true; }, &inserted);
      is_new = inserted;
    }
    if (is_new) {
      ++num_groups_;
      states_.resize(num_groups_ * calls_.size());
      for (size_t j = 0; j < num_keys; ++j) {
        group_keys_.push_back(key_operands_[j].cells().Box(batch.sel[k]));
      }
    }
    slots_[k] = id;
  }
}

Status Aggregation::Add(const Table& table,
                        const SegmentSelection& selection) {
  return ForEachBatch(selection, [&](const SelectedBatch& batch) -> Status {
    const uint32_t* slots = nullptr;
    if (!key_operands_.empty()) {
      for (Operand& key : key_operands_) {
        FUNGUSDB_RETURN_IF_ERROR(key.Load(table, batch));
      }
      AssignGroups(batch);
      slots = slots_.data();
    }
    const double* f = nullptr;
    if (freshness_.has_value()) {
      FUNGUSDB_RETURN_IF_ERROR(freshness_->Load(table, batch));
      f = freshness_->cells().doubles;
    }
    for (size_t c = 0; c < calls_.size(); ++c) {
      Call& call = calls_[c];
      const Cells* arg = nullptr;
      if (call.arg.has_value()) {
        FUNGUSDB_RETURN_IF_ERROR(call.arg->Load(table, batch));
        arg = &call.arg->cells();
      }
      const KernelArgs args{&batch, slots, states_.data() + c, calls_.size(),
                            f};
      FUNGUSDB_RETURN_IF_ERROR(FoldCall(call.expr->agg_fn, arg, args));
    }
    return Status::OK();
  });
}

std::vector<uint32_t> Aggregation::OutputOrder() const {
  std::vector<uint32_t> order(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) order[g] = g;
  if (key_operands_.empty()) return order;
  std::vector<std::string> rendered(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    for (size_t j = 0; j < key_operands_.size(); ++j) {
      const Value& v = KeyValue(g, j);
      rendered[g] += v.is_null() ? "\x01" : v.ToString();
      rendered[g] += '\x1F';
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&rendered](uint32_t a, uint32_t b) {
                     return rendered[a] < rendered[b];
                   });
  return order;
}

const Value& Aggregation::KeyValue(uint32_t group, size_t key) const {
  return group_keys_[group * key_operands_.size() + key];
}

Value Aggregation::Result(uint32_t group, size_t call) const {
  const BoundExpr& expr = *calls_[call].expr;
  return states_[group * calls_.size() + call].Finalize(expr.agg_fn,
                                                        expr.result_type);
}

}  // namespace fungusdb
