#ifndef FUNGUSDB_QUERY_EXPR_H_
#define FUNGUSDB_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"

namespace fungusdb {

enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
};

enum class UnaryOp {
  kNot,
  kNeg,
  kIsNull,
  kIsNotNull,
};

enum class AggFn {
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  // Freshness-weighted variants: each tuple contributes its current
  // freshness f instead of 1. FCOUNT(*) is the "effective" extent size,
  // FSUM(x) = sum(f * x), FAVG(x) = FSUM(x) / FCOUNT(x) — answers fade
  // as the data that produced them rots.
  kFCount,
  kFSum,
  kFAvg,
};

/// Scalar (per-tuple) builtin functions.
enum class ScalarFn {
  kAbs,         // abs(numeric) -> same numeric type
  kFloor,       // floor(float64) -> float64
  kCeil,        // ceil(float64) -> float64
  kRound,       // round(float64) -> float64
  kLength,      // length(string) -> int64
  kLower,       // lower(string) -> string
  kUpper,       // upper(string) -> string
  kTimeBucket,  // time_bucket(timestamp, width_us) -> timestamp, start
                // of the tumbling window containing the timestamp
};

std::string_view BinaryOpName(BinaryOp op);
/// True for = != < <= > >=.
bool IsComparison(BinaryOp op);
std::string_view UnaryOpName(UnaryOp op);
std::string_view AggFnName(AggFn fn);
std::string_view ScalarFnName(ScalarFn fn);

class Expr;
/// Expressions are immutable trees shared by value; subtrees may be
/// reused across queries.
using ExprPtr = std::shared_ptr<const Expr>;

/// Unbound expression AST produced by the parser or the programmatic
/// query builder. Column names are resolved against a schema by the
/// Binder before evaluation.
class Expr {
 public:
  enum class Kind {
    kLiteral,
    kColumnRef,
    kBinary,
    kUnary,
    kAggregate,
    kFunction,
  };

  static ExprPtr Literal(Value value);
  static ExprPtr Column(std::string name);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  /// Aggregate call; `arg` is null for COUNT(*).
  static ExprPtr Aggregate(AggFn fn, ExprPtr arg);
  /// Scalar builtin call.
  static ExprPtr Function(ScalarFn fn, std::vector<ExprPtr> args);

  Kind kind() const { return kind_; }

  const Value& literal() const { return literal_; }
  const std::string& column_name() const { return column_name_; }
  BinaryOp binary_op() const { return binary_op_; }
  UnaryOp unary_op() const { return unary_op_; }
  AggFn agg_fn() const { return agg_fn_; }
  ScalarFn scalar_fn() const { return scalar_fn_; }
  bool agg_is_star() const { return children_.empty(); }

  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }

  /// True if this subtree contains an aggregate call.
  bool ContainsAggregate() const;

  /// SQL-ish rendering, e.g. "(a + 1) >= 10 AND b = 'x'".
  std::string ToString() const;

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  Kind kind_;
  Value literal_;
  std::string column_name_;
  BinaryOp binary_op_ = BinaryOp::kEq;
  UnaryOp unary_op_ = UnaryOp::kNot;
  AggFn agg_fn_ = AggFn::kCount;
  ScalarFn scalar_fn_ = ScalarFn::kAbs;
  std::vector<ExprPtr> children_;
};

/// Convenience builders for programmatic queries:
///   Ge(Col("temp"), Lit(30.0)), via free functions below.
ExprPtr Lit(int64_t v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Lit(std::string v);
ExprPtr Lit(bool v);
ExprPtr LitNull();
ExprPtr Col(std::string name);

// Named combinators (operator overloads on shared_ptr would shadow the
// standard pointer comparisons, so they are deliberately not provided).
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs);
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Le(ExprPtr lhs, ExprPtr rhs);
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs);
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Add(ExprPtr lhs, ExprPtr rhs);
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);
ExprPtr IsNull(ExprPtr operand);
ExprPtr IsNotNull(ExprPtr operand);

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_EXPR_H_
