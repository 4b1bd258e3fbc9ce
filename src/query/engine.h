#ifndef FUNGUSDB_QUERY_ENGINE_H_
#define FUNGUSDB_QUERY_ENGINE_H_

#include <functional>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "query/query.h"
#include "query/result_set.h"
#include "storage/table.h"

namespace fungusdb {

struct QueryEngineOptions {
  /// Bump per-tuple access counters for matched tuples (feeds
  /// ImportanceFungus). No-op on tables without track_access.
  bool record_access = true;

  /// Worker pool for morsel-driven scans (not owned): each surviving
  /// segment is one morsel that filters it and folds its partial
  /// aggregate. Engines on several threads may share one pool. With no
  /// pool — or one execution thread — the morsels run serially; results
  /// are byte-identical either way because morsel outputs merge in
  /// segment order.
  ThreadPool* pool = nullptr;

  /// Sink for "fungusdb.parallel.*" counters (not owned).
  MetricsRegistry* metrics = nullptr;

  /// Minimum live segments before a scan fans out; tiny tables are not
  /// worth the fork/join overhead.
  size_t parallel_scan_min_segments = 8;
};

/// Executes select-from-where queries against decaying tables.
///
/// Two execution modes:
///  * observing (classical): the table is untouched;
///  * consuming (the paper's second law): every tuple satisfying P is
///    discarded from R as part of execution — "the extent of table R is
///    replaced by the union of the answer set of Q and the reduced
///    extent of R". LIMIT restricts the *returned* rows only; the whole
///    σ_P(R) is consumed, exactly as the law states.
///
/// Consume observers fire after the kill with the consumed row ids while
/// their attribute values are still readable (tombstoned, not yet
/// reclaimed) — the hook used to distill consumed tuples into cellar
/// summaries.
class QueryEngine {
 public:
  using ConsumeObserver =
      std::function<void(Table&, const std::vector<RowId>&, Timestamp)>;

  explicit QueryEngine(QueryEngineOptions options = {});

  void AddConsumeObserver(ConsumeObserver observer);

  /// Runs `query` against `table` at (virtual) time `now`.
  Result<ResultSet> Execute(const Query& query, Table& table,
                            Timestamp now);

 private:
  QueryEngineOptions options_;
  std::vector<ConsumeObserver> observers_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_QUERY_ENGINE_H_
