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
/// Under the pin it runs the Database's one execute body, so a read is
/// counted, stamped with its epoch (ResultSet::Stats::epoch) and
/// slow-logged exactly like a statement on the writer.
///
/// A Session never mutates storage: consuming queries are refused (the
/// classifier routes them to the writer), its engine does not bump
/// access counters (the classifier keeps SELECTs over track_access
/// tables on the writer for that reason). Its scans fan out into
/// morsels on the Database's one pool, which every Session and the
/// writer share (caller-runs, see ThreadPool).
///
/// Thread contract: one Session per thread (its engine is not shared);
/// any number of Sessions may run against one Database.
class Session {
 public:
  explicit Session(Database* db);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes one read-only statement through
  /// ExecuteRead(query, sql).
  Result<ResultSet> ExecuteRead(std::string_view sql);

  /// Executes a parsed read-only query. A mutating one (CONSUME, or a
  /// SELECT over a table that tracks access, which the classifier
  /// routes to the writer) is refused with InvalidArgument — routing is
  /// the caller's job, this is the backstop. `sql` is the text the
  /// query was parsed from (fungusd's read workers run what the
  /// classifier parsed), quoted by the slow-query log; empty logs the
  /// query's rendering. `queue_wait_us` is logged as queue_us=.
  Result<ResultSet> ExecuteRead(const Query& query, std::string_view sql = {},
                                int64_t queue_wait_us = 0);

  Database& database() { return *db_; }

 private:
  Database* db_;
  QueryEngine engine_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_SESSION_H_
