// The row-at-a-time reference evaluator. The engine evaluates every
// expression a batch at a time (Operand, query/aggregate.h); the
// differential tests compare its answers with this tree walker's, one
// Value per row per node. It lives under tests/ so that no engine path
// can call it.

#ifndef FUNGUSDB_TESTS_QUERY_REFERENCE_WALKER_H_
#define FUNGUSDB_TESTS_QUERY_REFERENCE_WALKER_H_

#include "common/result.h"
#include "query/binder.h"
#include "storage/table.h"

namespace fungusdb::reference {

/// Evaluates a bound scalar expression against one tuple. SQL null
/// semantics: comparisons and arithmetic with a null operand yield null;
/// AND/OR use three-valued logic and skip the right arm when the left
/// decides; a function is null when an argument is, and later arguments
/// are then not evaluated; IS [NOT] NULL always yields a bool. int64
/// arithmetic wraps, and `INT64_MIN % -1` is 0. Fails on aggregate
/// nodes, on division or modulo by zero and on a time_bucket width <= 0.
Result<Value> EvalScalar(const BoundExpr& expr, const Table& table,
                         RowId row);

/// True iff the predicate evaluates to (non-null) true for the tuple —
/// the WHERE acceptance rule.
Result<bool> EvalPredicate(const BoundExpr& expr, const Table& table,
                           RowId row);

}  // namespace fungusdb::reference

#endif  // FUNGUSDB_TESTS_QUERY_REFERENCE_WALKER_H_
