#include "query/vector_eval.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "query/evaluator.h"

namespace fungusdb {

std::optional<VectorPredicate::Operand> VectorPredicate::CompileOperand(
    const BoundExpr& expr) {
  std::optional<Operand> op = CompileOperandKind(expr);
  if (!op.has_value() || !op->is_column()) return op;
  for (size_t slot = 0; slot < column_operands_.size(); ++slot) {
    const Operand& seen = column_operands_[slot];
    if (seen.kind == op->kind && seen.col == op->col) {
      op->slot = slot;
      return op;
    }
  }
  op->slot = column_operands_.size();
  column_operands_.push_back(*op);
  return op;
}

namespace {

/// Calls `fn(accept)` with the predicate `accept(x < y, x > y)` that
/// decides `x <op> y` under Value::Compare's trichotomy: NaN is neither
/// < nor >, so it compares "equal" to everything. One definition for
/// the compile-time fold and both batch kernels.
template <typename Fn>
auto WithAccept(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq:
      return fn([](bool lt, bool gt) { return !(lt | gt); });
    case BinaryOp::kNe:
      return fn([](bool lt, bool gt) { return lt | gt; });
    case BinaryOp::kLt:
      return fn([](bool lt, bool) { return lt; });
    case BinaryOp::kLe:
      return fn([](bool, bool gt) { return !gt; });
    case BinaryOp::kGt:
      return fn([](bool, bool gt) { return gt; });
    default:
      return fn([](bool lt, bool) { return !lt; });
  }
}

}  // namespace

std::optional<VectorPredicate::Operand> VectorPredicate::CompileOperandKind(
    const BoundExpr& expr) {
  Operand op;
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      if (expr.literal.is_null()) {
        op.kind = OperandKind::kNullLit;
        return op;
      }
      op.kind = OperandKind::kConst;
      switch (expr.literal.type()) {
        case DataType::kInt64:
          op.constant = static_cast<double>(expr.literal.AsInt64());
          return op;
        case DataType::kFloat64:
          op.constant = expr.literal.AsFloat64();
          return op;
        case DataType::kTimestamp:
          op.constant = static_cast<double>(expr.literal.AsTimestamp());
          return op;
        default:
          return std::nullopt;
      }
    case Expr::Kind::kColumnRef:
      switch (expr.col_source) {
        case ColumnSource::kTimestamp:
          op.kind = OperandKind::kTs;
          return op;
        case ColumnSource::kFreshness:
          op.kind = OperandKind::kFreshness;
          return op;
        case ColumnSource::kUser:
          op.col = expr.col_index;
          if (expr.result_type == DataType::kInt64) {
            op.kind = OperandKind::kInt64Col;
            return op;
          }
          if (expr.result_type == DataType::kFloat64) {
            op.kind = OperandKind::kFloat64Col;
            return op;
          }
          if (expr.result_type == DataType::kTimestamp) {
            op.kind = OperandKind::kTimestampCol;
            return op;
          }
          return std::nullopt;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

std::optional<int> VectorPredicate::CompileNode(const BoundExpr& expr) {
  std::vector<Node>& nodes = nodes_;
  Node node;
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      // WHERE true / WHERE NULL. The walker treats NULL as "not TRUE".
      if (expr.literal.is_null()) {
        node.kind = NodeKind::kConstBool;
        node.const_known = false;
      } else if (expr.literal.type() == DataType::kBool) {
        node.kind = NodeKind::kConstBool;
        node.const_truth = expr.literal.AsBool();
        node.const_known = true;
      } else {
        return std::nullopt;
      }
      nodes.push_back(node);
      return static_cast<int>(nodes.size()) - 1;
    case Expr::Kind::kUnary:
      switch (expr.unary_op) {
        case UnaryOp::kNot: {
          auto child = CompileNode(expr.children[0]);
          if (!child) return std::nullopt;
          node.kind = NodeKind::kNot;
          node.child0 = *child;
          nodes.push_back(node);
          return static_cast<int>(nodes.size()) - 1;
        }
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull: {
          auto operand = CompileOperand(expr.children[0]);
          if (!operand) return std::nullopt;
          if (operand->is_column()) {
            node.kind = NodeKind::kIsNull;
            node.lhs = *operand;
          } else {  // a literal: decided now
            node.kind = NodeKind::kConstBool;
            node.const_truth = operand->kind == OperandKind::kNullLit;
            node.const_known = true;
          }
          nodes.push_back(node);
          int idx = static_cast<int>(nodes.size()) - 1;
          if (expr.unary_op == UnaryOp::kIsNotNull) {
            Node neg;
            neg.kind = NodeKind::kNot;
            neg.child0 = idx;
            nodes.push_back(neg);
            idx = static_cast<int>(nodes.size()) - 1;
          }
          return idx;
        }
        default:
          return std::nullopt;
      }
    case Expr::Kind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr: {
          auto a = CompileNode(expr.children[0]);
          if (!a) return std::nullopt;
          auto b = CompileNode(expr.children[1]);
          if (!b) return std::nullopt;
          node.kind = expr.binary_op == BinaryOp::kAnd ? NodeKind::kAnd
                                                       : NodeKind::kOr;
          node.child0 = *a;
          node.child1 = *b;
          nodes.push_back(node);
          return static_cast<int>(nodes.size()) - 1;
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          auto lhs = CompileOperand(expr.children[0]);
          auto rhs = lhs ? CompileOperand(expr.children[1]) : std::nullopt;
          if (lhs && rhs) {
            if (lhs->kind == OperandKind::kNullLit ||
                rhs->kind == OperandKind::kNullLit) {
              node.kind = NodeKind::kConstBool;  // UNKNOWN for every row
            } else if (!lhs->is_column() && !rhs->is_column()) {
              node.kind = NodeKind::kConstBool;
              const double x = lhs->constant;
              const double y = rhs->constant;
              node.const_truth = WithAccept(
                  expr.binary_op, [x, y](auto accept) -> bool {
                    return accept(x < y, x > y);
                  });
              node.const_known = true;
            } else {
              node.kind = NodeKind::kCompare;
              node.cmp_op = expr.binary_op;
              node.lhs = *lhs;
              node.rhs = *rhs;
            }
            nodes.push_back(node);
            return static_cast<int>(nodes.size()) - 1;
          }
          // Not numeric: string-column = / != string-literal (either
          // operand order) lowers to the dictionary-aware kernel.
          if (expr.binary_op != BinaryOp::kEq &&
              expr.binary_op != BinaryOp::kNe) {
            return std::nullopt;
          }
          const BoundExpr* colx = nullptr;
          const BoundExpr* litx = nullptr;
          if (expr.children[0].kind == Expr::Kind::kColumnRef &&
              expr.children[1].kind == Expr::Kind::kLiteral) {
            colx = &expr.children[0];
            litx = &expr.children[1];
          } else if (expr.children[1].kind == Expr::Kind::kColumnRef &&
                     expr.children[0].kind == Expr::Kind::kLiteral) {
            colx = &expr.children[1];
            litx = &expr.children[0];
          } else {
            return std::nullopt;
          }
          if (colx->col_source != ColumnSource::kUser ||
              colx->result_type != DataType::kString ||
              litx->literal.is_null() ||
              litx->literal.type() != DataType::kString) {
            return std::nullopt;
          }
          node.kind = NodeKind::kStringEq;
          node.str_col = colx->col_index;
          node.str_lit = litx->literal.AsString();
          nodes.push_back(node);
          int idx = static_cast<int>(nodes.size()) - 1;
          if (expr.binary_op == BinaryOp::kNe) {
            // Kleene NOT over equality: NULL cells stay UNKNOWN, which
            // is exactly the walker's `col != 'x'` semantics.
            Node neg;
            neg.kind = NodeKind::kNot;
            neg.child0 = idx;
            nodes.push_back(neg);
            idx = static_cast<int>(nodes.size()) - 1;
          }
          return idx;
        }
        default:
          return std::nullopt;
      }
    default:
      return std::nullopt;
  }
}

VectorPredicate VectorPredicate::Compile(const BoundExpr& expr) {
  VectorPredicate pred;
  pred.AddConjuncts(expr);
  // Column-against-literal conjuncts refine the selection cheapest, so
  // they run first; AND is commutative over TRUE.
  std::stable_partition(pred.conjuncts_.begin(), pred.conjuncts_.end(),
                        [](const Conjunct& c) { return c.simple; });
  return pred;
}

namespace {

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

}  // namespace

void VectorPredicate::DecodeColumn(size_t slot, const Segment& seg,
                                   size_t base, size_t n,
                                   const uint8_t* alive,
                                   Scratch& scratch) const {
  const Operand& op = column_operands_[slot];
  double* vals = scratch.vals.data() + slot * kBatchSize;
  scratch.col_vals[slot] = vals;
  scratch.col_nulls[slot] = nullptr;
  switch (op.kind) {
    case OperandKind::kTs: {
      const Timestamp* ts = seg.DecodeTs(base, n, scratch.ints.data());
      for (size_t i = 0; i < n; ++i) vals[i] = static_cast<double>(ts[i]);
      return;
    }
    case OperandKind::kFreshness:
      seg.DecodeStoredFreshness(base, n, alive, vals);
      // The stored values are "as of the last materialization"; replay
      // pending uniform decrements in fold order so the kernel compares
      // the same effective values Segment::Freshness reconstructs. Dead
      // rows pick up garbage here, but Match's alive mask drops them.
      for (const double d : seg.pending_decay()) {
        for (size_t i = 0; i < n; ++i) vals[i] -= d;
      }
      return;
    case OperandKind::kFloat64Col:
      scratch.col_vals[slot] = seg.DecodeFloat64Column(op.col, base, n);
      break;
    case OperandKind::kInt64Col:
    case OperandKind::kTimestampCol: {
      // Compared in double space, like Value::Compare.
      const int64_t* x =
          seg.DecodeInt64Column(op.col, base, n, scratch.ints.data());
      for (size_t i = 0; i < n; ++i) vals[i] = static_cast<double>(x[i]);
      break;
    }
    default:
      return;  // literals are never columns
  }
  if (seg.column_null_count(op.col) != 0) {
    uint8_t* nulls = scratch.nulls.data() + slot * kBatchSize;
    seg.DecodeNulls(op.col, base, n, nulls);
    scratch.col_nulls[slot] = nulls;
  }
}

namespace {

/// t[i] = x[i] <op> y, for a column `x` against a scalar `y`
/// (kYScalar) or a column `y`.
template <bool kYScalar>
void CompareKernel(BinaryOp op, const double* x, const double* ys,
                   double y0, size_t n, uint8_t* t) {
  WithAccept(op, [&](auto accept) {
    for (size_t i = 0; i < n; ++i) {
      const double y = kYScalar ? y0 : ys[i];
      t[i] = accept(x[i] < y, x[i] > y) ? 1 : 0;
    }
  });
}

}  // namespace

void VectorPredicate::EnsureColumn(size_t slot, const Segment& seg,
                                   size_t base, size_t n,
                                   const uint8_t* alive,
                                   Scratch& scratch) const {
  if (scratch.col_ready[slot]) return;
  DecodeColumn(slot, seg, base, n, alive, scratch);
  scratch.col_ready[slot] = 1;
}

void VectorPredicate::EvalNodes(size_t first, size_t last,
                                const Segment& seg, size_t base, size_t n,
                                const uint8_t* alive,
                                Scratch& scratch) const {
  const double* const* vals = scratch.col_vals.data();
  const uint8_t* const* nulls = scratch.col_nulls.data();
  for (size_t idx = first; idx <= last; ++idx) {
    const Node& node = nodes_[idx];
    uint8_t* t = scratch.truth.data() + idx * kBatchSize;
    uint8_t* k = scratch.known.data() + idx * kBatchSize;
    const int8_t decided = scratch.decided[idx];
    if (decided == kAllFalse || decided == kAllTrue) {
      // Whole-segment decision from the segment's metadata: nothing to
      // decode for this leaf.
      std::memset(t, decided, n);
      std::memset(k, 1, n);
      continue;
    }
    switch (node.kind) {
      case NodeKind::kConstBool:
        std::memset(t, node.const_truth ? 1 : 0, n);
        std::memset(k, node.const_known ? 1 : 0, n);
        break;
      case NodeKind::kIsNull: {
        EnsureColumn(node.lhs.slot, seg, base, n, alive, scratch);
        const uint8_t* cn = nulls[node.lhs.slot];
        if (cn != nullptr) {
          std::memcpy(t, cn, n);
        } else {
          std::memset(t, 0, n);
        }
        std::memset(k, 1, n);
        break;
      }
      case NodeKind::kStringEq: {
        uint8_t* eq = t;
        uint8_t* nn = k;
        seg.MatchStringEq(node.str_col, base, n, scratch.str_codes[idx], eq,
                          nn);
        for (size_t i = 0; i < n; ++i) k[i] = nn[i] ^ 1;  // NULL: UNKNOWN
        break;
      }
      case NodeKind::kCompare: {
        // At least one side is a column; literal-only and NULL
        // comparisons were folded into kConstBool at compile time.
        const bool lhs_col = node.lhs.is_column();
        const bool rhs_col = node.rhs.is_column();
        if (lhs_col) EnsureColumn(node.lhs.slot, seg, base, n, alive, scratch);
        if (rhs_col) EnsureColumn(node.rhs.slot, seg, base, n, alive, scratch);
        if (lhs_col && rhs_col) {
          CompareKernel<false>(node.cmp_op, vals[node.lhs.slot],
                               vals[node.rhs.slot], 0.0, n, t);
        } else if (lhs_col) {
          CompareKernel<true>(node.cmp_op, vals[node.lhs.slot], nullptr,
                              node.rhs.constant, n, t);
        } else {
          CompareKernel<true>(MirrorCompare(node.cmp_op),
                              vals[node.rhs.slot], nullptr,
                              node.lhs.constant, n, t);
        }
        // A NULL operand makes the comparison UNKNOWN; the truth bytes
        // of UNKNOWN rows are don't-cares, since every consumer gates
        // on `known`.
        const uint8_t* ln = lhs_col ? nulls[node.lhs.slot] : nullptr;
        const uint8_t* rn = rhs_col ? nulls[node.rhs.slot] : nullptr;
        if (ln == nullptr && rn == nullptr) {
          std::memset(k, 1, n);
        } else if (rn == nullptr || ln == nullptr) {
          const uint8_t* cn = ln != nullptr ? ln : rn;
          for (size_t i = 0; i < n; ++i) k[i] = cn[i] ^ 1;
        } else {
          for (size_t i = 0; i < n; ++i) k[i] = (ln[i] | rn[i]) ^ 1;
        }
        break;
      }
      case NodeKind::kNot: {
        const uint8_t* ct =
            scratch.truth.data() + node.child0 * kBatchSize;
        const uint8_t* ck =
            scratch.known.data() + node.child0 * kBatchSize;
        for (size_t i = 0; i < n; ++i) t[i] = ct[i] ^ 1;
        std::memcpy(k, ck, n);
        break;
      }
      case NodeKind::kAnd: {
        const uint8_t* at =
            scratch.truth.data() + node.child0 * kBatchSize;
        const uint8_t* ak =
            scratch.known.data() + node.child0 * kBatchSize;
        const uint8_t* bt =
            scratch.truth.data() + node.child1 * kBatchSize;
        const uint8_t* bk =
            scratch.known.data() + node.child1 * kBatchSize;
        // Kleene AND: FALSE dominates UNKNOWN.
        for (size_t i = 0; i < n; ++i) {
          t[i] = at[i] & bt[i];
          k[i] = (ak[i] & bk[i]) | (ak[i] & (at[i] ^ 1)) |
                 (bk[i] & (bt[i] ^ 1));
        }
        break;
      }
      case NodeKind::kOr: {
        const uint8_t* at =
            scratch.truth.data() + node.child0 * kBatchSize;
        const uint8_t* ak =
            scratch.known.data() + node.child0 * kBatchSize;
        const uint8_t* bt =
            scratch.truth.data() + node.child1 * kBatchSize;
        const uint8_t* bk =
            scratch.known.data() + node.child1 * kBatchSize;
        // Kleene OR: TRUE dominates UNKNOWN.
        for (size_t i = 0; i < n; ++i) {
          t[i] = at[i] | bt[i];
          k[i] = (ak[i] & bk[i]) | (ak[i] & at[i]) | (bk[i] & bt[i]);
        }
        break;
      }
    }
  }
}

int8_t VectorPredicate::DecideCompare(const Node& node, const Segment& seg) {
  const Operand* col = &node.lhs;
  const Operand* lit = &node.rhs;
  BinaryOp op = node.cmp_op;
  if (!col->is_column() || lit->kind != OperandKind::kConst) {
    std::swap(col, lit);
    op = MirrorCompare(op);
    if (!col->is_column() || lit->kind != OperandKind::kConst) {
      return kEvaluate;  // column against column
    }
  }
  // What the segment's metadata says about the column: every non-null,
  // non-NaN cell lies in [lo, hi] (when has_value), some cell is NaN,
  // some cell is NULL.
  const ZoneMap& zone = seg.zone_map();
  bool has_value = false;
  double lo = 0.0;
  double hi = 0.0;
  bool has_nan = false;
  bool has_null = false;
  switch (col->kind) {
    case OperandKind::kTs:  // exact over all rows; never null or NaN
      has_value = zone.has_rows();
      lo = static_cast<double>(zone.min_ts);
      hi = static_cast<double>(zone.max_ts);
      break;
    case OperandKind::kFreshness:
      // Conservative over live rows, in EFFECTIVE space (pending decay
      // replayed); never null or NaN. No bound: no live row.
      has_value = zone.has_live_freshness();
      lo = seg.EffectiveMinFreshness();
      hi = seg.EffectiveMaxFreshness();
      break;
    default: {  // a numeric user column; bounds cover all rows
      const ColumnZone& cz = zone.columns[col->col];
      if (!cz.tracked) return kEvaluate;
      has_value = cz.has_value();
      lo = cz.min;
      hi = cz.max;
      has_nan = cz.has_nan;
      has_null = seg.column_null_count(col->col) != 0;
      break;
    }
  }
  // Under Value::Compare's trichotomy a NaN, on either side, compares
  // "equal" to every value.
  const int8_t nan_outcome = WithAccept(
      op, [](auto accept) -> int8_t { return accept(false, false) ? 1 : 0; });
  const double c = lit->constant;
  bool any_true = false;   // some non-null cell may be TRUE
  bool any_false = false;  // some non-null cell may be FALSE
  auto add = [&](int8_t outcome) {  // 1 / 0 / -1 (mixed)
    any_true |= outcome != 0;
    any_false |= outcome != 1;
  };
  if (has_value) {
    add(std::isnan(c) ? nan_outcome : DecideRangeCompare(op, lo, hi, c));
  }
  if (has_nan) add(nan_outcome);
  if (any_true) {
    // TRUE for every row only when no cell is NULL (UNKNOWN).
    return !any_false && !has_null ? kAllTrue : kEvaluate;
  }
  return has_null ? kNoneTrue : kAllFalse;
}

void VectorPredicate::DecideLeaves(const Segment& seg,
                                   Scratch& scratch) const {
  scratch.decided.assign(nodes_.size(), kEvaluate);
  scratch.str_codes.resize(nodes_.size());
  for (size_t idx = 0; idx < nodes_.size(); ++idx) {
    const Node& node = nodes_[idx];
    switch (node.kind) {
      case NodeKind::kConstBool:
        // A comparison with NULL: UNKNOWN for every row.
        if (!node.const_known) scratch.decided[idx] = kNoneTrue;
        break;
      case NodeKind::kStringEq: {
        const std::optional<uint32_t> code =
            seg.StringCodeOf(node.str_col, node.str_lit);
        scratch.str_codes[idx] = code.value_or(Segment::kNoStringCode);
        // A literal absent from the dictionary matches no cell; NULL
        // cells stay UNKNOWN.
        if (!code.has_value()) {
          scratch.decided[idx] =
              seg.column_null_count(node.str_col) == 0 ? kAllFalse
                                                       : kNoneTrue;
        }
        break;
      }
      case NodeKind::kCompare:
        scratch.decided[idx] = DecideCompare(node, seg);
        break;
      default:
        break;
    }
  }
}

bool VectorPredicate::CanMatch(const Segment& seg, Scratch& scratch) const {
  DecideLeaves(seg, scratch);
  for (const Conjunct& c : conjuncts_) {
    const int8_t decided = scratch.decided[c.root];
    if (decided == kAllFalse || decided == kNoneTrue) return false;
  }
  return true;
}

void VectorPredicate::AddConjuncts(const BoundExpr& expr) {
  if (expr.kind == Expr::Kind::kBinary && expr.binary_op == BinaryOp::kAnd) {
    AddConjuncts(expr.children[0]);
    AddConjuncts(expr.children[1]);
    return;
  }
  const size_t first = nodes_.size();
  const size_t slots = column_operands_.size();
  const std::optional<int> root = CompileNode(expr);
  if (!root.has_value()) {
    // Drop whatever the failed lowering appended; the walker evaluates
    // the whole conjunct.
    nodes_.resize(first);
    column_operands_.resize(slots);
    walkers_.push_back(expr);
    return;
  }
  // Post-order: the conjunct's nodes are [first, root].
  Conjunct c;
  c.first = first;
  c.root = static_cast<size_t>(*root);
  const Node& node = nodes_[c.root];
  if (node.kind == NodeKind::kCompare &&
      node.lhs.is_column() != node.rhs.is_column()) {
    c.simple = true;
    if (node.lhs.is_column()) {
      c.slot = node.lhs.slot;
      c.op = node.cmp_op;
      c.constant = node.rhs.constant;
    } else {
      c.slot = node.rhs.slot;
      c.op = MirrorCompare(node.cmp_op);
      c.constant = node.lhs.constant;
    }
  }
  conjuncts_.push_back(c);
}

namespace {

/// Keeps the selected positions whose cell is not null and satisfies
/// `x <op> c`; returns how many remain. Branch-free.
size_t RefineCompare(BinaryOp op, const double* x, const uint8_t* nulls,
                     double c, uint32_t* sel, size_t m) {
  return WithAccept(op, [&](auto accept) {
    size_t out = 0;
    if (nulls == nullptr) {
      for (size_t k = 0; k < m; ++k) {
        const uint32_t i = sel[k];
        sel[out] = i;
        out += accept(x[i] < c, x[i] > c) ? 1 : 0;
      }
    } else {
      for (size_t k = 0; k < m; ++k) {
        const uint32_t i = sel[k];
        sel[out] = i;
        out += (accept(x[i] < c, x[i] > c) ? 1 : 0) & (nulls[i] ^ 1);
      }
    }
    return out;
  });
}

}  // namespace

Status VectorPredicate::Match(const Table& table, const Segment& seg,
                              Scratch& scratch,
                              std::vector<uint32_t>& out) const {
  if (!CanMatch(seg, scratch)) return Status::OK();
  scratch.truth.resize(nodes_.size() * kBatchSize);
  scratch.known.resize(nodes_.size() * kBatchSize);
  scratch.vals.resize(column_operands_.size() * kBatchSize);
  scratch.nulls.resize(column_operands_.size() * kBatchSize);
  scratch.col_vals.resize(column_operands_.size());
  scratch.col_nulls.resize(column_operands_.size());
  scratch.col_ready.resize(column_operands_.size());
  scratch.alive.resize(kBatchSize);
  scratch.ints.resize(kBatchSize);
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
    std::fill(scratch.col_ready.begin(), scratch.col_ready.end(), 0);
    // Start from the live rows, then let each conjunct of the root AND
    // spine keep the rows it holds TRUE for: a row matches iff every
    // conjunct is TRUE (Kleene AND).
    uint32_t* sel = scratch.sel.data() + matched;
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      sel[m] = static_cast<uint32_t>(i);
      m += a[i];
    }
    for (const Conjunct& c : conjuncts_) {
      if (m == 0) break;
      if (decided[c.root] == kAllTrue) continue;
      if (c.simple) {
        EnsureColumn(c.slot, seg, base, n, a, scratch);
        m = RefineCompare(c.op, scratch.col_vals[c.slot],
                          scratch.col_nulls[c.slot], c.constant, sel, m);
        continue;
      }
      EvalNodes(c.first, c.root, seg, base, n, a, scratch);
      const uint8_t* t = scratch.truth.data() + c.root * kBatchSize;
      const uint8_t* k = scratch.known.data() + c.root * kBatchSize;
      size_t kept = 0;
      for (size_t j = 0; j < m; ++j) {
        const uint32_t i = sel[j];
        sel[kept] = i;
        kept += t[i] & k[i];
      }
      m = kept;
    }
    for (const BoundExpr& walker : walkers_) {
      const RowId first = seg.first_row() + base;
      size_t kept = 0;
      for (size_t j = 0; j < m; ++j) {
        const uint32_t i = sel[j];
        const Result<bool> pass = EvalPredicate(walker, table, first + i);
        if (!pass.ok()) return pass.status();
        sel[kept] = i;
        kept += *pass ? 1 : 0;
      }
      m = kept;
    }
    for (size_t j = 0; j < m; ++j) sel[j] += static_cast<uint32_t>(base);
    matched += m;
  }
  out.insert(out.end(), scratch.sel.data(), scratch.sel.data() + matched);
  return Status::OK();
}

}  // namespace fungusdb
