#include "core/session.h"

#include "common/clock.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

QueryEngineOptions ReadPathEngineOptions(Database* db) {
  QueryEngineOptions options;
  // Never bump access counters from the read path: the counters are
  // plain (non-atomic) storage, and the classifier keeps SELECTs over
  // track_access tables on the writer precisely so this stays false.
  options.record_access = false;
  // Serial scans: concurrency comes from many sessions. Sharing the
  // decay pool's fork/join from N reader threads at once would nest
  // coordinators; per-statement serial execution is also the right
  // throughput trade for a worker-pool server.
  options.pool = nullptr;
  options.metrics = &db->metrics();
  return options;
}

}  // namespace

Session::Session(Database* db)
    : db_(db), engine_(ReadPathEngineOptions(db)) {}

Result<ResultSet> Session::ExecuteRead(std::string_view sql) {
  FUNGUSDB_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  return ExecuteRead(query, sql);
}

Result<ResultSet> Session::ExecuteRead(const Query& query,
                                       std::string_view sql,
                                       int64_t queue_wait_us) {
  if (ClassifyQuery(query) == StatementKind::kMutating) {
    return Status::InvalidArgument(
        "read session cannot execute a mutating statement (route it to "
        "the writer): " +
        query.ToString());
  }
  // Pin acquisition blocks while a writer holds the exclusive section,
  // so its wall time is real head-of-line latency for the read pool.
  const int64_t pin_begin_us = SteadyMicros();
  EpochManager::ReadPin pin(db_->epochs_);
  // The engine takes Table& but this call graph is read-only end to
  // end: record_access is off, the query is non-consuming, and the pin
  // excludes every mutator.
  return db_->ExecuteHeld(engine_, query, sql, queue_wait_us,
                          SteadyMicros() - pin_begin_us, /*read_pin=*/true);
}

}  // namespace fungusdb
