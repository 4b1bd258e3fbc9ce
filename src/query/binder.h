#ifndef FUNGUSDB_QUERY_BINDER_H_
#define FUNGUSDB_QUERY_BINDER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/expr.h"
#include "storage/schema.h"

namespace fungusdb {

/// Where a bound column reference reads from.
enum class ColumnSource {
  kUser,       // schema field `col_index`
  kTimestamp,  // the system insertion-time column `__ts`
  kFreshness,  // the system freshness column `__freshness`
};

/// Expression tree with column names resolved against a schema and
/// result types computed. Produced by Bind(); consumed by the query
/// engine's filter (VectorPredicate) and evaluator (Operand).
struct BoundExpr {
  Expr::Kind kind = Expr::Kind::kLiteral;

  // kLiteral
  Value literal;

  // kColumnRef
  ColumnSource col_source = ColumnSource::kUser;
  size_t col_index = 0;
  std::string col_name;

  // kBinary / kUnary / kAggregate / kFunction
  BinaryOp binary_op = BinaryOp::kEq;
  UnaryOp unary_op = UnaryOp::kNot;
  AggFn agg_fn = AggFn::kCount;
  ScalarFn scalar_fn = ScalarFn::kAbs;

  std::vector<BoundExpr> children;

  /// Static result type; nullopt only for the untyped NULL literal.
  std::optional<DataType> result_type;

  bool is_aggregate() const { return kind == Expr::Kind::kAggregate; }
  bool agg_is_star() const { return children.empty(); }
};

/// Resolves column references (including `__ts` / `__freshness`) and
/// type-checks the tree. Fails with ColumnNotFound for unknown columns
/// and TypeMismatch for ill-typed operations. Aggregate calls may appear
/// only at the positions the engine allows (it validates placement; the
/// binder only forbids nested aggregates).
Result<BoundExpr> Bind(const Expr& expr, const Schema& schema);

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_BINDER_H_
