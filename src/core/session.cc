#include "core/session.h"

#include <chrono>

#include "common/logging.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

Result<ResultSet> Session::ExecuteRead(std::string_view sql,
                                       uint64_t* pinned_epoch) {
  FUNGUSDB_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  return ExecutePinned(query, sql, pinned_epoch);
}

Result<ResultSet> Session::ExecuteRead(const Query& query,
                                       uint64_t* pinned_epoch) {
  return ExecutePinned(query, {}, pinned_epoch);
}

Result<ResultSet> Session::ExecuteRead(const Query& query,
                                       std::string_view sql,
                                       uint64_t* pinned_epoch) {
  return ExecutePinned(query, sql, pinned_epoch);
}

Result<ResultSet> Session::ExecutePinned(const Query& query,
                                         std::string_view sql,
                                         uint64_t* pinned_epoch) {
  const int64_t queue_wait_us = pending_queue_wait_us_;
  pending_queue_wait_us_ = 0;
  if (ClassifyQuery(query) == StatementKind::kMutating) {
    return Status::InvalidArgument(
        "read session cannot execute a mutating statement (route it to "
        "the writer): " +
        query.ToString());
  }

  // Pin acquisition blocks while a writer holds the exclusive section,
  // so its wall time is real head-of-line latency for the read pool —
  // attribute it like queue wait (satellite of the slow-query contract).
  const int64_t pin_begin_us = SteadyMicros();
  EpochManager::ReadPin pin(db_->epochs_);
  const int64_t pin_wait_us = SteadyMicros() - pin_begin_us;
  if (pinned_epoch != nullptr) *pinned_epoch = pin.epoch();
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table,
                            db_->MutableTable(query.table_name));
  if (db_->options().record_access && table->options().track_access) {
    // Misrouted: executing here would silently skip the access-counter
    // bumps that feed ImportanceFungus. Refuse instead of diverging.
    return Status::InvalidArgument(
        "table '" + query.table_name +
        "' tracks access; its SELECTs belong to the writer");
  }
  db_->metrics().IncrementCounter("fungusdb.query.executed");
  db_->metrics().IncrementCounter("fungusdb.exec.read_statements");
  db_->metrics().RecordHistogram("fungusdb.query.pin_wait_us", pin_wait_us);
  db_->metrics().RecordHistogram("fungusdb.query.pin_wait_us",
                                 "table=" + query.table_name, pin_wait_us);
  const int64_t begin_us = SteadyMicros();
  // The engine takes Table& but this call graph is read-only end to
  // end: record_access is off, the query is non-consuming, and the pin
  // excludes every mutator.
  Result<ResultSet> result =
      engine_.Execute(query, *table, db_->clock_.Now());
  if (!result.ok()) return result;
  const int64_t exec_us = SteadyMicros() - begin_us;

  const int64_t threshold = db_->SlowQueryThresholdFor(table);
  if (threshold > 0 && exec_us >= threshold) {
    const ResultSet::Stats& stats = result->stats;
    db_->metrics().IncrementCounter("fungusdb.query.slow",
                                    "table=" + query.table_name);
    FUNGUSDB_LOG(Warning)
        << "slow-query t=" << db_->clock_.Now()
        << " table=" << query.table_name << " us=" << exec_us
        << " queue_us=" << queue_wait_us << " pin_wait_us=" << pin_wait_us
        << " epoch=" << pin.epoch()
        << " rows_scanned=" << stats.rows_scanned
        << " rows_pruned=" << stats.rows_pruned
        << " segments_scanned=" << stats.segments_scanned
        << " segments_pruned=" << stats.segments_pruned
        << " rows_matched=" << stats.rows_matched
        << " sql=" << (sql.empty() ? query.ToString() : std::string(sql));
  }
  return result;
}

}  // namespace fungusdb
