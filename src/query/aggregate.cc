#include "query/aggregate.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>
#include <iterator>


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
  if (IsNull(i)) return Value::Null();
  switch (kind) {
    case Kind::kInt64:
      return Value::Int64(ints[i]);
    case Kind::kTimestamp:
      return Value::TimestampVal(ints[i]);
    case Kind::kFloat64:
      return Value::Float64(doubles[i]);
    case Kind::kString:
      return Value::String(std::string(String(i)));
    case Kind::kBool:
      return Value::Bool(bools[i] != 0);
  }
  return Value::Null();
}

// --- Operand. ---

namespace {

/// `a op b` in two's complement: int64 arithmetic defined for every
/// input.
template <typename Op>
int64_t Wrap(int64_t a, int64_t b, Op op) {
  return static_cast<int64_t>(
      op(static_cast<uint64_t>(a), static_cast<uint64_t>(b)));
}
int64_t WrapNeg(int64_t a) { return Wrap(0, a, std::minus<>()); }

/// Calls fn(i) for every selected row whose result is not null.
template <typename Fn>
void ForValid(const SelectedBatch& batch, const uint8_t* nulls, Fn&& fn) {
  for (size_t k = 0; k < batch.m; ++k) {
    const uint32_t i = batch.sel[k];
    if (nulls[i] == 0) fn(i);
  }
}

/// `batch` with its selection narrowed to sel[0..m).
SelectedBatch Narrow(const SelectedBatch& batch, const uint32_t* sel,
                     size_t m) {
  return SelectedBatch{batch.segment, batch.base, batch.n, sel, m};
}

}  // namespace

Operand::Operand(const BoundExpr& expr) : type_(expr.result_type) {
  for (const BoundExpr& child : expr.children) args_.emplace_back(child);
  switch (expr.kind) {
    case Expr::Kind::kColumnRef:
      source_ = expr.col_source == ColumnSource::kTimestamp ? Source::kTs
                : expr.col_source == ColumnSource::kFreshness
                    ? Source::kFreshness
                    : Source::kUser;
      col_ = expr.col_index;
      return;
    case Expr::Kind::kLiteral:
      source_ = Source::kLiteral;
      literal_ = expr.literal;
      if (type_ == DataType::kString) strings_ = {literal_.AsString()};
      return;
    case Expr::Kind::kBinary:
      binary_op_ = expr.binary_op;
      source_ = expr.binary_op == BinaryOp::kAnd ||
                        expr.binary_op == BinaryOp::kOr
                    ? Source::kLogic
                : IsComparison(expr.binary_op) ? Source::kCompare
                                               : Source::kArithmetic;
      return;
    case Expr::Kind::kUnary:
      source_ = Source::kUnary;
      unary_op_ = expr.unary_op;
      return;
    case Expr::Kind::kFunction:
      source_ = Source::kFunction;
      fn_ = expr.scalar_fn;
      return;
    case Expr::Kind::kAggregate:
      // Folded by the engine; Load fails if one ever reaches it.
      source_ = Source::kAggregate;
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
  op.type_ = DataType::kFloat64;
  return op;
}

Status Operand::Load(const SelectedBatch& batch) {
  switch (source_) {
    case Source::kUser:
    case Source::kTs:
    case Source::kFreshness:
      LoadColumn(batch);
      return Status::OK();
    case Source::kLiteral:
      LoadLiteral(batch);
      return Status::OK();
    case Source::kArithmetic:
      return LoadArithmetic(batch);
    case Source::kCompare:
      return LoadCompare(batch);
    case Source::kLogic:
      return LoadLogic(batch);
    case Source::kUnary:
      return LoadUnary(batch);
    case Source::kFunction:
      return LoadFunction(batch);
    case Source::kAggregate:
      break;
  }
  return Status::Internal("aggregate expression reached the scalar evaluator");
}

void Operand::LoadColumn(const SelectedBatch& batch) {
  const Segment& seg = *batch.segment;
  const size_t base = batch.base;
  const size_t n = batch.n;
  if (source_ == Source::kTs) {
    ints_.resize(kPipelineBatch);
    cells_.kind = Cells::Kind::kTimestamp;
    cells_.ints = seg.DecodeTs(base, n, ints_.data());
    return;
  }
  if (source_ == Source::kFreshness) {
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
    return;
  }
  cells_.nulls = nullptr;
  if (seg.column_null_count(col_) != 0) {
    nulls_.resize(kPipelineBatch);
    seg.DecodeNulls(col_, base, n, nulls_.data());
    cells_.nulls = nulls_.data();
  }
  switch (*type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      ints_.resize(kPipelineBatch);
      cells_.kind = *type_ == DataType::kInt64 ? Cells::Kind::kInt64
                                               : Cells::Kind::kTimestamp;
      cells_.ints = seg.DecodeInt64Column(col_, base, n, ints_.data());
      return;
    case DataType::kFloat64:
      cells_.kind = Cells::Kind::kFloat64;
      cells_.doubles = seg.DecodeFloat64Column(col_, base, n);
      return;
    case DataType::kString:
      codes_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kString;
      cells_.codes = seg.DecodeStringCodes(col_, base, n, codes_.data());
      cells_.dict = seg.StringDictionary(col_);
      return;
    case DataType::kBool:
      bytes_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kBool;
      seg.DecodeBoolColumn(col_, base, n, bytes_.data());
      cells_.bools = bytes_.data();
      return;
  }
}

uint8_t* Operand::ResultCells() {
  nulls_.resize(kPipelineBatch);
  cells_.nulls = nulls_.data();
  // The untyped NULL literal's cells are all null; any kind will do.
  switch (type_.value_or(DataType::kInt64)) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      ints_.resize(kPipelineBatch);
      cells_.kind = type_ == DataType::kTimestamp ? Cells::Kind::kTimestamp
                                                  : Cells::Kind::kInt64;
      cells_.ints = ints_.data();
      break;
    case DataType::kFloat64:
      doubles_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kFloat64;
      cells_.doubles = doubles_.data();
      break;
    case DataType::kBool:
      bytes_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kBool;
      cells_.bools = bytes_.data();
      break;
    case DataType::kString:
      codes_.resize(kPipelineBatch);
      cells_.kind = Cells::Kind::kString;
      cells_.codes = codes_.data();
      cells_.dict = strings_;
      cells_.batch_dict = true;
      break;
  }
  return nulls_.data();
}

void Operand::LoadLiteral(const SelectedBatch& batch) {
  uint8_t* nulls = ResultCells();
  const bool null = literal_.is_null();
  for (size_t k = 0; k < batch.m; ++k) nulls[batch.sel[k]] = null;
  if (null) return;
  auto fill = [&batch](auto* out, auto v) {
    for (size_t k = 0; k < batch.m; ++k) out[batch.sel[k]] = v;
  };
  switch (*type_) {
    case DataType::kInt64:
      fill(ints_.data(), literal_.AsInt64());
      return;
    case DataType::kTimestamp:
      fill(ints_.data(), literal_.AsTimestamp());
      return;
    case DataType::kFloat64:
      fill(doubles_.data(), literal_.AsFloat64());
      return;
    case DataType::kBool:
      fill(bytes_.data(), static_cast<uint8_t>(literal_.AsBool()));
      return;
    case DataType::kString:
      fill(codes_.data(), uint32_t{0});  // strings_ holds the literal
      return;
  }
}

Status Operand::LoadArithmetic(const SelectedBatch& batch) {
  FUNGUSDB_RETURN_IF_ERROR(args_[0].Load(batch));
  FUNGUSDB_RETURN_IF_ERROR(args_[1].Load(batch));
  const Cells& a = args_[0].cells_;
  const Cells& b = args_[1].cells_;
  uint8_t* nulls = ResultCells();
  for (size_t k = 0; k < batch.m; ++k) {
    const uint32_t i = batch.sel[k];
    nulls[i] = a.IsNull(i) | b.IsNull(i);
  }
  if (type_ == DataType::kFloat64) {  // a float64 operand, or `/`
    bool div_by_zero = false;
    auto apply = [&](auto op) {
      WithDoubles(a, [&](auto x) {
        WithDoubles(b, [&](auto y) {
          ForValid(batch, nulls,
                   [&](uint32_t i) { doubles_[i] = op(x(i), y(i)); });
        });
      });
    };
    switch (binary_op_) {
      case BinaryOp::kAdd:
        apply(std::plus<>());
        break;
      case BinaryOp::kSub:
        apply(std::minus<>());
        break;
      case BinaryOp::kMul:
        apply(std::multiplies<>());
        break;
      default:  // kDiv
        apply([&div_by_zero](double x, double y) {
          div_by_zero |= y == 0.0;
          return y == 0.0 ? 0.0 : x / y;
        });
        if (div_by_zero) return Status::InvalidArgument("division by zero");
    }
    return Status::OK();
  }
  // int64 and timestamp operands (the binder types `%` int64 too).
  const int64_t* x = a.ints;
  const int64_t* y = b.ints;
  int64_t* out = ints_.data();
  auto apply = [&](auto op) {
    ForValid(batch, nulls, [&](uint32_t i) { out[i] = Wrap(x[i], y[i], op); });
    return Status::OK();
  };
  switch (binary_op_) {
    case BinaryOp::kAdd:
      return apply(std::plus<>());
    case BinaryOp::kSub:
      return apply(std::minus<>());
    case BinaryOp::kMul:
      return apply(std::multiplies<>());
    default: {  // kMod
      bool mod_by_zero = false;
      ForValid(batch, nulls, [&](uint32_t i) {
        mod_by_zero |= y[i] == 0;
        // -1 divides every int64, INT64_MIN too (whose quotient would
        // overflow).
        out[i] = y[i] == 0 || y[i] == -1 ? 0 : x[i] % y[i];
      });
      if (mod_by_zero) return Status::InvalidArgument("modulo by zero");
      return Status::OK();
    }
  }
}

Status Operand::LoadCompare(const SelectedBatch& batch) {
  FUNGUSDB_RETURN_IF_ERROR(args_[0].Load(batch));
  FUNGUSDB_RETURN_IF_ERROR(args_[1].Load(batch));
  const Cells& a = args_[0].cells_;
  const Cells& b = args_[1].cells_;
  uint8_t* nulls = ResultCells();
  for (size_t k = 0; k < batch.m; ++k) {
    const uint32_t i = batch.sel[k];
    nulls[i] = a.IsNull(i) | b.IsNull(i);
  }
  const std::optional<DataType> type = args_[0].type_;
  if (!type.has_value() || !args_[1].type_.has_value()) {
    return Status::OK();  // a NULL literal: NULL on every row
  }
  uint8_t* out = bytes_.data();
  WithAccept(binary_op_, [&](auto accept) {
    if (IsNumeric(*type)) {
      WithDoubles(a, [&](auto x) {
        WithDoubles(b, [&](auto y) {
          ForValid(batch, nulls, [&](uint32_t i) {
            const double u = x(i);
            const double v = y(i);
            out[i] = accept(u < v, u > v);
          });
        });
      });
    } else if (*type == DataType::kString) {
      ForValid(batch, nulls, [&](uint32_t i) {
        const int c = a.String(i).compare(b.String(i));
        out[i] = accept(c < 0, c > 0);
      });
    } else {  // kBool: false < true
      ForValid(batch, nulls, [&](uint32_t i) {
        out[i] = accept(a.bools[i] < b.bools[i], a.bools[i] > b.bools[i]);
      });
    }
  });
  return Status::OK();
}

Status Operand::LoadLogic(const SelectedBatch& batch) {
  // The value that decides the connective: FALSE for AND, TRUE for OR.
  const uint8_t decider = binary_op_ == BinaryOp::kOr ? 1 : 0;
  FUNGUSDB_RETURN_IF_ERROR(args_[0].Load(batch));
  const Cells& a = args_[0].cells_;
  uint8_t* nulls = ResultCells();
  uint8_t* out = bytes_.data();
  sel_.resize(kPipelineBatch);
  size_t undecided = 0;
  for (size_t k = 0; k < batch.m; ++k) {
    const uint32_t i = batch.sel[k];
    const bool null = a.IsNull(i);
    nulls[i] = null;
    out[i] = null ? 0 : a.bools[i];
    sel_[undecided] = i;
    undecided += null || out[i] != decider;
  }
  if (undecided == 0) return Status::OK();
  // The right arm runs only where the left one left the answer open:
  // NULL, or TRUE under AND / FALSE under OR.
  FUNGUSDB_RETURN_IF_ERROR(
      args_[1].Load(Narrow(batch, sel_.data(), undecided)));
  const Cells& b = args_[1].cells_;
  for (size_t k = 0; k < undecided; ++k) {
    const uint32_t i = sel_[k];
    if (b.IsNull(i)) {
      nulls[i] = 1;
    } else if (b.bools[i] == decider) {
      nulls[i] = 0;
      out[i] = decider;
    } else if (nulls[i] == 0) {
      out[i] = b.bools[i];
    }
  }
  return Status::OK();
}

Status Operand::LoadUnary(const SelectedBatch& batch) {
  FUNGUSDB_RETURN_IF_ERROR(args_[0].Load(batch));
  const Cells& a = args_[0].cells_;
  uint8_t* nulls = ResultCells();
  for (size_t k = 0; k < batch.m; ++k) {
    const uint32_t i = batch.sel[k];
    nulls[i] = a.IsNull(i);
  }
  if (unary_op_ == UnaryOp::kIsNull || unary_op_ == UnaryOp::kIsNotNull) {
    const uint8_t flip = unary_op_ == UnaryOp::kIsNotNull;
    for (size_t k = 0; k < batch.m; ++k) {
      const uint32_t i = batch.sel[k];
      bytes_[i] = nulls[i] ^ flip;
      nulls[i] = 0;
    }
    return Status::OK();
  }
  if (unary_op_ == UnaryOp::kNot) {
    ForValid(batch, nulls, [&](uint32_t i) { bytes_[i] = a.bools[i] ^ 1; });
  } else if (type_ == DataType::kFloat64) {  // kNeg
    ForValid(batch, nulls, [&](uint32_t i) { doubles_[i] = -a.doubles[i]; });
  } else {
    ForValid(batch, nulls, [&](uint32_t i) { ints_[i] = WrapNeg(a.ints[i]); });
  }
  return Status::OK();
}

Status Operand::LoadFunction(const SelectedBatch& batch) {
  // Strict NULL: each argument runs only on the rows where every
  // earlier one is non-null, and the rest are NULL.
  sel_.assign(batch.sel, batch.sel + batch.m);
  size_t m = batch.m;
  for (Operand& arg : args_) {
    if (m == 0) break;
    FUNGUSDB_RETURN_IF_ERROR(arg.Load(Narrow(batch, sel_.data(), m)));
    size_t kept = 0;
    for (size_t k = 0; k < m; ++k) {
      const uint32_t i = sel_[k];
      sel_[kept] = i;
      kept += !arg.cells_.IsNull(i);
    }
    m = kept;
  }
  uint8_t* nulls = ResultCells();
  for (size_t k = 0; k < batch.m; ++k) nulls[batch.sel[k]] = 1;
  for (size_t k = 0; k < m; ++k) nulls[sel_[k]] = 0;
  const Cells& x = args_[0].cells_;
  auto each = [&](auto&& fn) { ForValid(batch, nulls, fn); };
  switch (fn_) {
    case ScalarFn::kAbs:
      if (type_ == DataType::kFloat64) {
        each([&](uint32_t i) { doubles_[i] = std::fabs(x.doubles[i]); });
      } else {
        each([&](uint32_t i) {
          ints_[i] = x.ints[i] < 0 ? WrapNeg(x.ints[i]) : x.ints[i];
        });
      }
      return Status::OK();
    case ScalarFn::kFloor:
    case ScalarFn::kCeil:
    case ScalarFn::kRound:
      WithDoubles(x, [&](auto v) {
        each([&](uint32_t i) {
          doubles_[i] = fn_ == ScalarFn::kFloor  ? std::floor(v(i))
                        : fn_ == ScalarFn::kCeil ? std::ceil(v(i))
                                                 : std::round(v(i));
        });
      });
      return Status::OK();
    case ScalarFn::kLength:
      each([&](uint32_t i) {
        ints_[i] = static_cast<int64_t>(x.String(i).size());
      });
      return Status::OK();
    case ScalarFn::kLower:
    case ScalarFn::kUpper: {
      // Each distinct argument string is mapped once per batch, into
      // this batch's dictionary.
      constexpr uint32_t kUnmapped = UINT32_MAX;
      code_map_.assign(x.dict.size(), kUnmapped);
      strings_.clear();
      const bool lower = fn_ == ScalarFn::kLower;
      each([&](uint32_t i) {
        uint32_t& code = code_map_[x.codes[i]];
        if (code == kUnmapped) {
          code = static_cast<uint32_t>(strings_.size());
          std::string& s = strings_.emplace_back(x.String(i));
          for (char& c : s) {
            const auto u = static_cast<unsigned char>(c);
            c = static_cast<char>(lower ? std::tolower(u) : std::toupper(u));
          }
        }
        codes_[i] = code;
      });
      cells_.dict = strings_;
      return Status::OK();
    }
    case ScalarFn::kTimeBucket: {
      const int64_t* width = args_[1].cells_.ints;
      bool bad_width = false;
      each([&](uint32_t i) {
        const int64_t w = width[i];
        bad_width |= w <= 0;
        if (w <= 0) return;
        // Floor division, so negative timestamps bucket consistently.
        const int64_t ts = x.ints[i];
        const int64_t bucket = ts / w - (ts % w != 0 && ts < 0 ? 1 : 0);
        ints_[i] = Wrap(bucket, w, std::multiplies<>());
      });
      if (bad_width) {
        return Status::InvalidArgument("time_bucket width must be positive");
      }
      return Status::OK();
    }
  }
  return Status::OK();
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

Value AggState::Finalize(AggFn fn, std::optional<DataType> result_type,
                         const FloatSums& total) const {
  switch (fn) {
    case AggFn::kCount:
      return Value::Int64(static_cast<int64_t>(count));
    case AggFn::kSum:
      if (count == 0) return Value::Null();
      if (result_type == DataType::kInt64) return Value::Int64(sum_i);
      return Value::Float64(total.sum);
    case AggFn::kAvg:
      if (count == 0) return Value::Null();
      return Value::Float64(total.sum / static_cast<double>(count));
    case AggFn::kMin:
    case AggFn::kMax:
      if (first_is_nan) return Value::Float64(first_nan);
      return has_extreme ? extreme : Value::Null();
    case AggFn::kFCount:
      return Value::Float64(total.weighted_count);
    case AggFn::kFSum:
      if (count == 0) return Value::Null();
      return Value::Float64(total.weighted_sum);
    case AggFn::kFAvg:
      if (count == 0 || total.weighted_count == 0.0) return Value::Null();
      return Value::Float64(total.weighted_sum / total.weighted_count);
  }
  return Value::Null();
}

bool HasFloatSums(const BoundExpr& call) {
  switch (call.agg_fn) {
    case AggFn::kSum:
      return call.result_type != DataType::kInt64;
    case AggFn::kAvg:
    case AggFn::kFCount:
    case AggFn::kFSum:
    case AggFn::kFAvg:
      return true;
    case AggFn::kCount:
    case AggFn::kMin:
    case AggFn::kMax:
      return false;
  }
  return false;
}

// --- Aggregate kernels. ---
//
// One kernel per aggregate function, each a loop over the selected rows
// of a batch in offset order. `slots` maps a selected row to its group's
// state (nullptr: the single global group); `f` holds the batch's
// effective freshness (F-aggregates only); `pos` is the segment's
// position in the scan (MIN/MAX only).

namespace {

struct KernelArgs {
  const SelectedBatch* batch;
  const uint32_t* slots;  // nullptr: every row folds into states[0]
  AggState* states;
  size_t stride;  // states per group
  const double* f;
  uint32_t pos;
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
  s.sum_i = Wrap(s.sum_i, v, std::plus<>());
}

/// Notes a MIN/MAX state's first non-null cell, `d` its double image
/// (0 for non-numeric cells).
void ObserveFirst(AggState& s, uint32_t pos, double d) {
  if (s.first_pos != kNoPosition) return;
  s.first_pos = pos;
  if (std::isnan(d)) {
    s.first_is_nan = true;
    s.first_nan = d;
  }
}

/// MIN/MAX over typed cells: double-space comparison for numerics,
/// lexicographic for strings, false < true for bools; a tie keeps the
/// earlier value, and NaN is never an extreme (see AggState). Only
/// numeric cells can be NaN, so only they note the first cell.
void FoldExtreme(const KernelArgs& a, const Cells& c, bool is_min) {
  const uint32_t pos = a.pos;
  switch (c.kind) {
    case Cells::Kind::kInt64:
    case Cells::Kind::kTimestamp:
    case Cells::Kind::kFloat64:
      ForNumeric(a, c, [&](AggState& s, uint32_t i, double d) {
        ObserveFirst(s, pos, d);
        if (s.has_extreme ? (is_min ? d < s.extreme_key : d > s.extreme_key)
                          : !std::isnan(d)) {
          s.has_extreme = true;
          s.extreme_pos = pos;
          s.extreme_key = d;
          s.extreme = c.Box(i);
        }
      });
      return;
    case Cells::Kind::kString:
      ForSelected(a, [&](AggState& s, uint32_t i) {
        if (c.IsNull(i)) return;
        const std::string& v = c.String(i);
        if (!s.has_extreme ||
            (is_min ? v < s.extreme.AsString() : v > s.extreme.AsString())) {
          s.has_extreme = true;
          s.extreme_pos = pos;
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
          s.extreme_pos = pos;
          s.extreme = Value::Bool(v);
        }
      });
      return;
  }
}

/// Folds one aggregate call over one batch.
void FoldCall(AggFn fn, const Cells* arg, const KernelArgs& a) {
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
        s.sums.weighted_count += f[i];
      });
    }
    return;
  }
  const Cells& c = *arg;
  switch (fn) {
    case AggFn::kCount:
      ForSelected(a, [&c](AggState& s, uint32_t i) {
        if (!c.IsNull(i)) ++s.count;
      });
      break;
    case AggFn::kFCount:
      ForSelected(a, [&c, f](AggState& s, uint32_t i) {
        if (!c.IsNull(i)) s.sums.weighted_count += f[i];
      });
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      if (c.kind == Cells::Kind::kInt64) {
        const int64_t* x = c.ints;
        ForNumeric(a, c, [x](AggState& s, uint32_t i, double d) {
          ++s.count;
          s.sums.sum += d;
          AddExact(s, x[i]);
        });
      } else {
        ForNumeric(a, c, [](AggState& s, uint32_t, double d) {
          ++s.count;
          s.sums.sum += d;
        });
      }
      break;
    case AggFn::kFSum:
      ForNumeric(a, c, [f](AggState& s, uint32_t i, double d) {
        ++s.count;
        s.sums.weighted_sum += f[i] * d;
      });
      break;
    case AggFn::kFAvg:
      ForNumeric(a, c, [f](AggState& s, uint32_t i, double d) {
        ++s.count;
        s.sums.weighted_count += f[i];
        s.sums.weighted_sum += f[i] * d;
      });
      break;
    case AggFn::kMin:
    case AggFn::kMax:
      FoldExtreme(a, c, fn == AggFn::kMin);
      break;
  }
}

bool IsFreshnessWeighted(AggFn fn) {
  return fn == AggFn::kFCount || fn == AggFn::kFSum || fn == AggFn::kFAvg;
}

}  // namespace

// --- Key hashing. ---

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

// --- KeyDictionary. ---

uint32_t AggregateFolder::KeyDictionary::NullId() {
  if (null_id_ < 0) null_id_ = next_id_++;
  return static_cast<uint32_t>(null_id_);
}

uint32_t AggregateFolder::KeyDictionary::WordId(uint64_t word) {
  bool inserted = false;
  const uint32_t entry = words_.FindOrInsert(
      MixWord(word), [](uint32_t) { return true; }, &inserted);
  if (inserted) word_ids_.push_back(next_id_++);
  return word_ids_[entry];
}

uint32_t AggregateFolder::KeyDictionary::StringId(std::string_view s) {
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

void AggregateFolder::KeyDictionary::Assign(const Cells& cells,
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
      // One hash lookup per dictionary code per segment; every other
      // row is an array read.
      if (cells.batch_dict || code_segment_ != batch.segment) {
        code_segment_ = batch.segment;
        code_ids_.assign(cells.dict.size(), kNoId);
      }
      each([&](uint32_t i) {
        uint32_t& id = code_ids_[cells.codes[i]];
        if (id == kNoId) id = StringId(cells.String(i));
        return id;
      });
      return;
  }
}

// --- AggregateFolder. ---

AggregateFolder::AggregateFolder(const std::vector<const BoundExpr*>& calls,
                                 const std::vector<BoundExpr>& keys) {
  for (const BoundExpr* call : calls) {
    Call c;
    c.expr = call;
    if (!call->agg_is_star()) c.arg.emplace(call->children[0]);
    if (IsFreshnessWeighted(call->agg_fn) && !freshness_.has_value()) {
      freshness_ = Operand::Freshness();
    }
    if (HasFloatSums(*call)) float_calls_.push_back(calls_.size());
    calls_.push_back(std::move(c));
  }
  for (const BoundExpr& key : keys) key_operands_.emplace_back(key);
  key_dicts_.resize(keys.size());
  if (keys.size() > 1) links_.resize(keys.size() - 1);
  key_ids_.resize(keys.size() * kPipelineBatch);
  groups_.resize(kPipelineBatch);
  if (keys.empty()) {
    num_groups_ = 1;
    states_.resize(calls_.size());
  }
}

void AggregateFolder::AssignGroups(const SelectedBatch& batch,
                                   SegmentPartial& out) {
  const size_t num_keys = key_operands_.size();
  for (size_t j = 0; j < num_keys; ++j) {
    key_dicts_[j].Assign(key_operands_[j].cells(), batch,
                         key_ids_.data() + j * kPipelineBatch);
  }
  const bool list_groups = !float_calls_.empty();
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
      if (list_groups) stamp_.push_back(0);
      for (size_t j = 0; j < num_keys; ++j) {
        out.new_keys.push_back(key_operands_[j].cells().Box(batch.sel[k]));
      }
    }
    if (list_groups && stamp_[id] != generation_) {  // first row here
      stamp_[id] = generation_;
      out.groups.push_back(id);
    }
    groups_[k] = id;
  }
  states_.resize(num_groups_ * calls_.size());
}

Status AggregateFolder::FoldBatch(const SelectedBatch& batch,
                                  uint32_t position, SegmentPartial& out) {
  const uint32_t* slots = nullptr;
  if (!key_operands_.empty()) {
    for (Operand& key : key_operands_) {
      FUNGUSDB_RETURN_IF_ERROR(key.Load(batch));
    }
    AssignGroups(batch, out);
    slots = groups_.data();
  }
  const double* f = nullptr;
  if (freshness_.has_value()) {
    FUNGUSDB_RETURN_IF_ERROR(freshness_->Load(batch));
    f = freshness_->cells().doubles;
  }
  for (size_t c = 0; c < calls_.size(); ++c) {
    Call& call = calls_[c];
    const Cells* arg = nullptr;
    if (call.arg.has_value()) {
      FUNGUSDB_RETURN_IF_ERROR(call.arg->Load(batch));
      arg = &call.arg->cells();
    }
    const KernelArgs args{&batch,         slots, states_.data() + c,
                          calls_.size(), f,     position};
    FoldCall(call.expr->agg_fn, arg, args);
  }
  return Status::OK();
}

Status AggregateFolder::Fold(const SegmentSelection& selection,
                             uint32_t position, SegmentPartial& out) {
  out.folder = this;
  out.groups.clear();
  out.sums.clear();
  out.first_new_group = static_cast<uint32_t>(num_groups_);
  out.new_keys.clear();
  // The previous segment's count of new groups is a fair guess at this
  // one's: it spares regrowing the keys of a high-cardinality GROUP BY.
  out.new_keys.reserve(last_new_groups_ * key_operands_.size());
  ++generation_;
  if (key_operands_.empty() && !float_calls_.empty()) out.groups.push_back(0);
  FUNGUSDB_RETURN_IF_ERROR(
      ForEachBatch(selection, [&](const SelectedBatch& batch) {
        return FoldBatch(batch, position, out);
      }));
  last_new_groups_ = num_groups_ - out.first_new_group;
  // Hand the segment's float sums over and start the next segment's
  // from zero.
  out.sums.reserve(out.groups.size() * float_calls_.size());
  for (const uint32_t group : out.groups) {
    AggState* states = states_.data() + group * calls_.size();
    for (const size_t c : float_calls_) {
      out.sums.push_back(states[c].sums);
      states[c].sums = FloatSums{};
    }
  }
  return Status::OK();
}

// --- Aggregation. ---

namespace {

/// Folds `other`'s running state into `into`; `sums` are left alone.
Status MergeState(AggFn fn, AggState& into, AggState& other) {
  into.count += other.count;
  AddExact(into, other.sum_i);
  if (other.first_pos < into.first_pos) {
    into.first_pos = other.first_pos;
    into.first_is_nan = other.first_is_nan;
    into.first_nan = other.first_nan;
  }
  if (!other.has_extreme) return Status::OK();
  if (into.has_extreme) {
    FUNGUSDB_ASSIGN_OR_RETURN(int cmp, other.extreme.Compare(into.extreme));
    const bool better = fn == AggFn::kMin ? cmp < 0 : cmp > 0;
    if (!better && (cmp != 0 || other.extreme_pos > into.extreme_pos)) {
      return Status::OK();
    }
  }
  into.has_extreme = true;
  into.extreme_pos = other.extreme_pos;
  into.extreme_key = other.extreme_key;
  into.extreme = std::move(other.extreme);
  return Status::OK();
}

void AddSums(FloatSums& into, const FloatSums& later) {
  into.sum += later.sum;
  into.weighted_count += later.weighted_count;
  into.weighted_sum += later.weighted_sum;
}

}  // namespace

Aggregation::Aggregation(const std::vector<const BoundExpr*>& calls,
                         const std::vector<BoundExpr>& keys)
    : calls_(calls), num_keys_(keys.size()) {
  for (size_t c = 0; c < calls_.size(); ++c) {
    if (HasFloatSums(*calls_[c])) float_calls_.push_back(c);
  }
  if (keys.empty()) {
    num_groups_ = 1;
    sums_.resize(float_calls_.size());
    states_.resize(calls_.size());
  }
}

std::vector<uint32_t>& Aggregation::GroupsOf(const AggregateFolder* folder) {
  for (auto& [f, groups] : folder_groups_) {
    if (f == folder) return groups;
  }
  return folder_groups_.emplace_back(folder, std::vector<uint32_t>{}).second;
}

uint32_t Aggregation::FindOrOpenGroup(Value* key) {
  auto hash_of = [this](const Value* k) {
    uint64_t hash = 0;
    for (size_t j = 0; j < num_keys_; ++j) {
      hash = hash * 0x100000001b3ULL ^ HashValue(k[j]);
    }
    return MixWord(hash);
  };
  if (!indexed_ && folder_groups_.size() > 1) {
    // A second folder: its groups may already be open.
    indexed_ = true;
    for (uint32_t g = 0; g < num_groups_; ++g) {
      bool inserted = false;
      index_.FindOrInsert(
          hash_of(&group_keys_[g * num_keys_]),
          [](uint32_t) { return false; }, &inserted);
    }
  }
  uint32_t g = static_cast<uint32_t>(num_groups_);
  if (indexed_) {
    bool inserted = false;
    g = index_.FindOrInsert(
        hash_of(key),
        [&](uint32_t id) {
          for (size_t j = 0; j < num_keys_; ++j) {
            if (!SameValue(group_keys_[id * num_keys_ + j], key[j])) {
              return false;
            }
          }
          return true;
        },
        &inserted);
    if (!inserted) return g;
  }
  ++num_groups_;
  std::move(key, key + num_keys_, std::back_inserter(group_keys_));
  return g;
}

void Aggregation::Merge(SegmentPartial&& partial) {
  std::vector<uint32_t>& to_group = GroupsOf(partial.folder);
  // The folder met these groups first in this segment. Segments merge
  // in order, so a group new here too opens with this row's keys.
  for (size_t k = 0; k < partial.new_keys.size(); k += num_keys_) {
    to_group.push_back(FindOrOpenGroup(partial.new_keys.data() + k));
  }
  const size_t num_floats = float_calls_.size();
  sums_.resize(num_groups_ * num_floats);
  for (size_t k = 0; k < partial.groups.size(); ++k) {
    const uint32_t g = num_keys_ == 0 ? 0 : to_group[partial.groups[k]];
    for (size_t f = 0; f < num_floats; ++f) {
      AddSums(sums_[g * num_floats + f], partial.sums[k * num_floats + f]);
    }
  }
}

Status Aggregation::MergeStates(AggregateFolder& folder) {
  std::vector<AggState>& from = folder.states();
  const size_t num_calls = calls_.size();
  if (num_calls == 0) return Status::OK();
  const std::vector<uint32_t>& to_group = GroupsOf(&folder);
  bool identity = states_.empty() && to_group.size() == num_groups_;
  for (uint32_t k = 0; identity && k < to_group.size(); ++k) {
    identity = to_group[k] == k;
  }
  if (identity) {
    // The first folder met every group, in the same order (a serial
    // scan): its states are the merge.
    states_ = std::move(from);
    return Status::OK();
  }
  states_.resize(num_groups_ * num_calls);
  for (size_t k = 0; k < from.size(); ++k) {
    const size_t folder_group = k / num_calls;
    const size_t c = k % num_calls;
    const uint32_t g = num_keys_ == 0 ? 0 : to_group[folder_group];
    FUNGUSDB_RETURN_IF_ERROR(
        MergeState(calls_[c]->agg_fn, states_[g * num_calls + c], from[k]));
  }
  return Status::OK();
}

std::vector<uint32_t> Aggregation::OutputOrder() const {
  std::vector<uint32_t> order(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) order[g] = g;
  if (num_keys_ == 0) return order;
  std::vector<std::string> rendered(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    for (size_t j = 0; j < num_keys_; ++j) {
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
  return group_keys_[group * num_keys_ + key];
}

Value Aggregation::Result(uint32_t group, size_t call) const {
  const BoundExpr& expr = *calls_[call];
  const auto f = std::find(float_calls_.begin(), float_calls_.end(), call);
  const FloatSums total =
      f == float_calls_.end()
          ? FloatSums{}
          : sums_[group * float_calls_.size() + (f - float_calls_.begin())];
  return states_[group * calls_.size() + call].Finalize(
      expr.agg_fn, expr.result_type, total);
}

}  // namespace fungusdb
