#ifndef FUNGUSDB_QUERY_CLASSIFIER_H_
#define FUNGUSDB_QUERY_CLASSIFIER_H_

#include <functional>
#include <string_view>

#include "query/query.h"

namespace fungusdb {

/// What a statement is allowed to do to the database — the routing
/// contract of the split execution model (DESIGN.md §13). kReadOnly
/// statements may run concurrently on the session/read path under the
/// database's read lock; everything else belongs to the single writer that owns
/// the total order over mutations.
enum class StatementKind {
  kReadOnly,
  kMutating,
};

struct ClassifyContext {
  /// When set, SELECTs over tables for which this returns true are
  /// classified kMutating: matched-tuple access counters feed
  /// ImportanceFungus, and those bumps must stay on the writer so the
  /// read path never touches mutable storage. Unset means "no table
  /// tracks access".
  std::function<bool(std::string_view table_name)> table_tracks_access;
};

/// Classifies a parsed query. CONSUME (the second natural law removes
/// every answered tuple from R) and any future INTO / DDL forms are
/// mutating; a plain SELECT is read-only unless the target table
/// tracks access (see ClassifyContext). Whole statements of the wire
/// dialect, meta commands included, are classified by ClassifyStatement
/// in core/meta_commands.h, beside the meta-command registry.
StatementKind ClassifyQuery(const Query& query,
                            const ClassifyContext& context = {});

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_CLASSIFIER_H_
