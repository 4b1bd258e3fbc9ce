#include "query/classifier.h"

namespace fungusdb {

StatementKind ClassifyQuery(const Query& query,
                            const ClassifyContext& context) {
  if (query.consuming) return StatementKind::kMutating;
  if (context.table_tracks_access &&
      context.table_tracks_access(query.table_name)) {
    return StatementKind::kMutating;
  }
  return StatementKind::kReadOnly;
}

}  // namespace fungusdb
