#ifndef FUNGUSDB_CORE_SESSION_H_
#define FUNGUSDB_CORE_SESSION_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "core/database.h"
#include "query/classifier.h"
#include "query/engine.h"
#include "query/query.h"
#include "query/result_set.h"

namespace fungusdb {

/// The read half of the split execution model (DESIGN.md §13): a
/// Session executes read-only statements against an epoch-pinned view
/// of its Database, concurrently with other Sessions and with the
/// single writer (which it never blocks for longer than one statement).
///
/// Each ExecuteRead pins the epoch current at dispatch for the duration
/// of the statement; the pin excludes the writer, so the statement sees
/// a fully-applied decay tick or none — never a half-applied one.
/// `__freshness` predicates, zone-map pruning, and ResultSet::Stats are
/// therefore exactly as deterministic as the writer-path equivalents.
///
/// A Session never mutates storage: consuming queries are refused (the
/// classifier routes them to the writer), its engine does not bump
/// access counters (the classifier keeps SELECTs over track_access
/// tables on the writer for that reason), and its scans run serially —
/// read concurrency comes from many sessions, not from morsel fan-out
/// inside one statement.
///
/// Thread contract: one Session per thread (it keeps per-statement
/// scratch such as queue-wait attribution); any number of Sessions may
/// run against one Database.
class Session {
 public:
  explicit Session(Database* db);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes one read-only statement. A mutating statement
  /// (CONSUME, or a SELECT the classifier routes to the writer) is
  /// refused with InvalidArgument — routing is the caller's job, this
  /// is the backstop. `pinned_epoch`, when non-null, receives the epoch
  /// the statement executed against.
  Result<ResultSet> ExecuteRead(std::string_view sql,
                                uint64_t* pinned_epoch = nullptr);

  /// Programmatic variant over a parsed query.
  Result<ResultSet> ExecuteRead(const Query& query,
                                uint64_t* pinned_epoch = nullptr);

  /// Variant over a query already parsed from `sql` (fungusd's read
  /// workers run what the classifier parsed); the slow-query log quotes
  /// `sql` as the client sent it.
  Result<ResultSet> ExecuteRead(const Query& query, std::string_view sql,
                                uint64_t* pinned_epoch = nullptr);

  /// Queue-wait attribution for the next ExecuteRead, reported in its
  /// slow-query log line. One-shot, like the writer-side equivalent.
  void set_pending_queue_wait_micros(int64_t us) {
    pending_queue_wait_us_ = us;
  }

  Database& database() { return *db_; }

 private:
  /// An empty `sql` logs the query's rendering instead, computed only
  /// when a slow-query line is written.
  Result<ResultSet> ExecutePinned(const Query& query, std::string_view sql,
                                  uint64_t* pinned_epoch);

  Database* db_;
  QueryEngine engine_;
  int64_t pending_queue_wait_us_ = 0;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_SESSION_H_
