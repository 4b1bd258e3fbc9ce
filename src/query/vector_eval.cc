#include "query/vector_eval.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace fungusdb {
namespace {

/// A numeric literal (or NULL), or a numeric column: what a lowered
/// comparison compares.
bool IsNumericOperand(const BoundExpr& e) {
  if (e.kind == Expr::Kind::kLiteral) {
    return e.literal.is_null() || IsNumeric(e.literal.type());
  }
  return e.kind == Expr::Kind::kColumnRef && e.result_type.has_value() &&
         IsNumeric(*e.result_type);
}

bool IsColumn(const BoundExpr& e) { return e.kind == Expr::Kind::kColumnRef; }

bool IsNullLiteral(const BoundExpr& e) {
  return e.kind == Expr::Kind::kLiteral && e.literal.is_null();
}

/// For `string-column = / != string-literal` (either operand order):
/// the column and the literal.
bool AsStringEquality(const BoundExpr& e, const BoundExpr** col,
                      const BoundExpr** lit) {
  if (e.kind != Expr::Kind::kBinary ||
      (e.binary_op != BinaryOp::kEq && e.binary_op != BinaryOp::kNe)) {
    return false;
  }
  *col = &e.children[0];
  *lit = &e.children[1];
  if (!IsColumn(**col)) std::swap(*col, *lit);
  return IsColumn(**col) && (*col)->col_source == ColumnSource::kUser &&
         (*col)->result_type == DataType::kString &&
         (*lit)->kind == Expr::Kind::kLiteral && !(*lit)->literal.is_null() &&
         (*lit)->literal.type() == DataType::kString;
}

/// Whether `e` is in the lowered subset: comparisons between numeric
/// operands, string-column = / != string-literal, IS [NOT] NULL over a
/// numeric operand, boolean and NULL literals, and AND / OR / NOT
/// combinations of these. Nothing in it can fail.
bool Lowers(const BoundExpr& e) {
  const BoundExpr* col = nullptr;
  const BoundExpr* lit = nullptr;
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal.is_null() || e.literal.type() == DataType::kBool;
    case Expr::Kind::kUnary:
      if (e.unary_op == UnaryOp::kNot) return Lowers(e.children[0]);
      return e.unary_op != UnaryOp::kNeg && IsNumericOperand(e.children[0]);
    case Expr::Kind::kBinary:
      if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
        return Lowers(e.children[0]) && Lowers(e.children[1]);
      }
      if (!IsComparison(e.binary_op)) return false;
      return (IsNumericOperand(e.children[0]) &&
              IsNumericOperand(e.children[1])) ||
             AsStringEquality(e, &col, &lit);
    default:
      return false;
  }
}

/// Mirror of a comparison for swapped operands: c <op> x == x <mirror> c.
BinaryOp MirrorCompare(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // =, != are symmetric
  }
}

/// Decides `x <op> c` for every x in [lo, hi]: 1 = TRUE for all,
/// 0 = FALSE for all, -1 = possibly mixed.
int8_t DecideRangeCompare(BinaryOp op, double lo, double hi, double c) {
  switch (op) {
    case BinaryOp::kLt:
      if (hi < c) return 1;
      if (lo >= c) return 0;
      return -1;
    case BinaryOp::kLe:
      if (hi <= c) return 1;
      if (lo > c) return 0;
      return -1;
    case BinaryOp::kGt:
      if (lo > c) return 1;
      if (hi <= c) return 0;
      return -1;
    case BinaryOp::kGe:
      if (lo >= c) return 1;
      if (hi < c) return 0;
      return -1;
    case BinaryOp::kEq:
      if (c < lo || c > hi) return 0;
      if (lo == hi && lo == c) return 1;
      return -1;
    case BinaryOp::kNe:
      if (c < lo || c > hi) return 1;
      if (lo == hi && lo == c) return 0;
      return -1;
    default:
      return -1;
  }
}

/// Keeps the selected positions whose cell is not null and satisfies
/// `x <op> c`; returns how many remain. Branch-free.
size_t RefineCompare(BinaryOp op, const Cells& cells, double c,
                     uint32_t* sel, size_t m) {
  const uint8_t* nulls = cells.nulls;
  return WithAccept(op, [&](auto accept) {
    return WithDoubles(cells, [&](auto x) {
      size_t out = 0;
      if (nulls == nullptr) {
        for (size_t k = 0; k < m; ++k) {
          const uint32_t i = sel[k];
          sel[out] = i;
          out += accept(x(i) < c, x(i) > c) ? 1 : 0;
        }
      } else {
        for (size_t k = 0; k < m; ++k) {
          const uint32_t i = sel[k];
          sel[out] = i;
          out += (accept(x(i) < c, x(i) > c) ? 1 : 0) & (nulls[i] ^ 1);
        }
      }
      return out;
    });
  });
}

/// Keeps the selected positions where `keep[i]` is 1.
size_t Refine(const uint8_t* keep, uint32_t* sel, size_t m) {
  size_t out = 0;
  for (size_t k = 0; k < m; ++k) {
    const uint32_t i = sel[k];
    sel[out] = i;
    out += keep[i];
  }
  return out;
}

}  // namespace

VectorPredicate VectorPredicate::Compile(const BoundExpr& expr) {
  VectorPredicate pred;
  pred.AddConjuncts(expr);
  // In Kind order, the cheapest refinements first: AND is commutative
  // over TRUE, and no lowered conjunct can fail. Computed ones keep SQL
  // order.
  std::stable_sort(pred.conjuncts_.begin(), pred.conjuncts_.end(),
                   [](const Conjunct& a, const Conjunct& b) {
                     return a.kind < b.kind;
                   });
  return pred;
}

void VectorPredicate::AddConjuncts(const BoundExpr& expr) {
  if (expr.kind == Expr::Kind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    AddConjuncts(expr.children[0]);
    AddConjuncts(expr.children[1]);
    return;
  }
  Conjunct c;
  const BoundExpr* col = nullptr;
  const BoundExpr* lit = nullptr;
  const bool compares = expr.kind == Expr::Kind::kBinary &&
                        IsComparison(expr.binary_op) &&
                        IsNumericOperand(expr.children[0]) &&
                        IsNumericOperand(expr.children[1]);
  if (IsNullLiteral(expr) ||
      (compares && (IsNullLiteral(expr.children[0]) ||
                    IsNullLiteral(expr.children[1])))) {
    c.kind = Kind::kUnknown;
  } else if (compares && IsColumn(expr.children[0]) !=
                             IsColumn(expr.children[1])) {
    // Normalized to `column <op> constant`.
    c.kind = Kind::kCompare;
    col = &expr.children[0];
    lit = &expr.children[1];
    c.op = expr.binary_op;
    if (!IsColumn(*col)) {
      std::swap(col, lit);
      c.op = MirrorCompare(c.op);
    }
    c.constant = lit->literal.ToDouble().value();  // double space
    const Column column{col->col_source, col->col_index};
    c.slot = std::find(columns_.begin(), columns_.end(), column) -
             columns_.begin();
    if (c.slot == columns_.size()) {
      columns_.push_back(column);
      column_operands_.emplace_back(*col);
    }
  } else if (AsStringEquality(expr, &col, &lit)) {
    c.kind = Kind::kStringEq;
    c.col = col->col_index;
    c.literal = lit->literal.AsString();
    c.negated = expr.binary_op == BinaryOp::kNe;
  } else {
    c.kind = Lowers(expr) ? Kind::kLowered : Kind::kComputed;
    c.expr = exprs_.size();
    exprs_.emplace_back(expr);
  }
  conjuncts_.push_back(std::move(c));
}

int8_t VectorPredicate::DecideCompare(const Conjunct& c,
                                      const Segment& seg) const {
  // What the segment's metadata says about the column: every non-null,
  // non-NaN cell lies in [lo, hi] (when has_value), some cell is NaN,
  // some cell is NULL.
  const ZoneMap& zone = seg.zone_map();
  const Column& column = columns_[c.slot];
  bool has_value = false;
  double lo = 0.0;
  double hi = 0.0;
  bool has_nan = false;
  bool has_null = false;
  switch (column.source) {
    case ColumnSource::kTimestamp:  // exact over all rows; never null or NaN
      has_value = zone.has_rows();
      lo = static_cast<double>(zone.min_ts);
      hi = static_cast<double>(zone.max_ts);
      break;
    case ColumnSource::kFreshness:
      // Conservative over live rows, in EFFECTIVE space (pending decay
      // replayed); never null or NaN. No bound: no live row.
      has_value = zone.has_live_freshness();
      lo = seg.EffectiveMinFreshness();
      hi = seg.EffectiveMaxFreshness();
      break;
    case ColumnSource::kUser: {  // bounds cover all rows
      const ColumnZone& cz = zone.columns[column.col];
      if (!cz.tracked) return kEvaluate;
      has_value = cz.has_value();
      lo = cz.min;
      hi = cz.max;
      has_nan = cz.has_nan;
      has_null = seg.column_null_count(column.col) != 0;
      break;
    }
  }
  // Under Value::Compare's trichotomy a NaN, on either side, compares
  // "equal" to every value.
  const int8_t nan_outcome = WithAccept(
      c.op, [](auto accept) -> int8_t { return accept(false, false) ? 1 : 0; });
  bool any_true = false;   // some non-null cell may be TRUE
  bool any_false = false;  // some non-null cell may be FALSE
  auto add = [&](int8_t outcome) {  // 1 / 0 / -1 (mixed)
    any_true |= outcome != 0;
    any_false |= outcome != 1;
  };
  if (has_value) {
    add(std::isnan(c.constant)
            ? nan_outcome
            : DecideRangeCompare(c.op, lo, hi, c.constant));
  }
  if (has_nan) add(nan_outcome);
  if (any_true) {
    // TRUE for every row only when no cell is NULL (UNKNOWN).
    return !any_false && !has_null ? kAllTrue : kEvaluate;
  }
  return has_null ? kNoneTrue : kAllFalse;
}

bool VectorPredicate::CanMatch(const Segment& seg, Scratch& scratch) const {
  scratch.decided.assign(conjuncts_.size(), kEvaluate);
  scratch.str_codes.resize(conjuncts_.size());
  bool can_match = true;
  for (size_t k = 0; k < conjuncts_.size(); ++k) {
    const Conjunct& c = conjuncts_[k];
    int8_t& decided = scratch.decided[k];
    switch (c.kind) {
      case Kind::kCompare:
        decided = DecideCompare(c, seg);
        break;
      case Kind::kStringEq: {
        const std::optional<uint32_t> code = seg.StringCodeOf(c.col, c.literal);
        scratch.str_codes[k] = code.value_or(Segment::kNoStringCode);
        // A literal absent from the dictionary equals no cell; NULL
        // cells stay UNKNOWN.
        if (!code.has_value() && !c.negated) {
          decided = seg.column_null_count(c.col) == 0 ? kAllFalse : kNoneTrue;
        }
        break;
      }
      case Kind::kUnknown:
        decided = kNoneTrue;
        break;
      default:
        break;
    }
    can_match &= decided != kAllFalse && decided != kNoneTrue;
  }
  return can_match;
}

Status VectorPredicate::Match(const Segment& seg, Scratch& scratch,
                              std::vector<uint32_t>& out) const {
  if (!CanMatch(seg, scratch)) return Status::OK();
  // This thread's copies of the Operands; copying into the previous
  // segment's reuses their buffers.
  scratch.columns = column_operands_;
  scratch.exprs = exprs_;
  scratch.column_loaded.resize(columns_.size());
  scratch.alive.resize(kBatchSize);
  scratch.eq.resize(kBatchSize);
  scratch.nulls.resize(kBatchSize);
  const size_t rows = seg.num_rows();
  const bool frozen = seg.is_frozen();
  const int8_t* decided = scratch.decided.data();
  // The segment's selection is staged in scratch, batch after batch,
  // and appended to `out` once, at its exact size.
  if (scratch.sel.size() < rows) scratch.sel.resize(rows);
  size_t matched = 0;
  for (size_t base = 0; base < rows; base += kBatchSize) {
    const size_t n = std::min(kBatchSize, rows - base);
    // Fully-dead batches of a frozen segment are answered by the RLE
    // liveness runs alone — skip before any decode. (Not done for the
    // plain tier, where the check would just pre-read the alive span.)
    if (frozen && !seg.AnyLive(base, n)) continue;
    const uint8_t* a = seg.DecodeAlive(base, n, scratch.alive.data());
    if (frozen) ++scratch.decoded_batches;
    std::fill(scratch.column_loaded.begin(), scratch.column_loaded.end(), 0);
    // Start from the live rows, then let each conjunct keep the rows it
    // holds TRUE.
    uint32_t* sel = scratch.sel.data() + matched;
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      sel[m] = static_cast<uint32_t>(i);
      m += a[i];
    }
    for (size_t k = 0; k < conjuncts_.size() && m > 0; ++k) {
      if (decided[k] == kAllTrue) continue;
      const Conjunct& c = conjuncts_[k];
      const SelectedBatch batch{&seg, base, n, sel, m};
      switch (c.kind) {
        case Kind::kCompare: {
          fungusdb::Operand& column = scratch.columns[c.slot];
          if (!scratch.column_loaded[c.slot]) {
            FUNGUSDB_RETURN_IF_ERROR(column.Load(batch));
            scratch.column_loaded[c.slot] = 1;
          }
          m = RefineCompare(c.op, column.cells(), c.constant, sel, m);
          break;
        }
        case Kind::kStringEq: {
          uint8_t* eq = scratch.eq.data();
          const uint8_t* nulls = scratch.nulls.data();
          seg.MatchStringEq(c.col, base, n, scratch.str_codes[k], eq,
                            scratch.nulls.data());
          // A NULL cell is UNKNOWN either way.
          if (c.negated) {
            for (size_t i = 0; i < n; ++i) eq[i] = (eq[i] | nulls[i]) ^ 1;
          }
          m = Refine(eq, sel, m);
          break;
        }
        default: {  // kLowered, kComputed (kUnknown never gets here)
          fungusdb::Operand& conjunct = scratch.exprs[c.expr];
          FUNGUSDB_RETURN_IF_ERROR(conjunct.Load(batch));
          const Cells& t = conjunct.cells();
          size_t kept = 0;
          for (size_t j = 0; j < m; ++j) {
            const uint32_t i = sel[j];
            sel[kept] = i;
            kept += !t.IsNull(i) && t.bools[i] != 0;
          }
          m = kept;
          break;
        }
      }
    }
    for (size_t j = 0; j < m; ++j) sel[j] += static_cast<uint32_t>(base);
    matched += m;
  }
  out.insert(out.end(), scratch.sel.data(), scratch.sel.data() + matched);
  return Status::OK();
}

}  // namespace fungusdb
