#ifndef FUNGUSDB_CORE_DATABASE_H_
#define FUNGUSDB_CORE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/epoch.h"
#include "core/table_handle.h"
#include "fungus/fungus.h"
#include "fungus/rot_analysis.h"
#include "fungus/scheduler.h"
#include "pipeline/ingestor.h"
#include "pipeline/kitchen.h"
#include "pipeline/source.h"
#include "query/engine.h"
#include "query/parser.h"
#include "storage/table.h"
#include "summary/cellar.h"
#include "verify/invariant_checker.h"

namespace fungusdb {

class Session;

namespace internal {
struct DatabaseInternal;
}  // namespace internal

struct DatabaseOptions {
  /// Epoch of the database's virtual clock.
  Timestamp start_time = 0;

  /// Cellar entries at or below this freshness are evicted.
  double cellar_eviction_threshold = 0.01;

  /// Bump access counters on query matches (feeds ImportanceFungus).
  bool record_access = true;

  /// Width of the Database's one pool (including the coordinating
  /// thread), shared by the morsel-driven scans of the writer and every
  /// Session. 0 picks the CPUs the process may run on (its affinity
  /// mask). 1 runs everything inline — same results, one core: scan
  /// results are deterministic in the thread count by construction, and
  /// decay ticks run serially on the writer whatever the width.
  size_t num_threads = 0;
};

/// Per-table health snapshot — the paper's "optimal health condition"
/// made observable.
struct TableHealth {
  std::string name;
  uint64_t live_rows = 0;
  uint64_t total_appended = 0;
  uint64_t rows_killed = 0;
  size_t num_segments = 0;
  size_t memory_bytes = 0;
  double mean_freshness = 0.0;  // over live tuples; 0 when empty
};

struct HealthReport {
  Timestamp now = 0;
  std::vector<TableHealth> tables;
  size_t cellar_entries = 0;
  size_t cellar_bytes = 0;
  uint64_t rows_cooked = 0;

  std::string ToString() const;
};

/// The FungusDB single-writer core: tables with freshness, fungi on a
/// periodic clock, consuming queries, the kitchen, and the cellar —
/// everything runs on one deterministic virtual clock owned here.
///
/// Typical use:
///
///   Database db;
///   TableHandle t = db.CreateTable("readings", schema).value();
///   db.AttachFungus("readings",
///                   std::make_unique<RetentionFungus>(7 * kDay),
///                   /*period=*/kHour).value();
///   db.Insert("readings", {...});
///   db.AdvanceTime(3 * kDay);                      // decay happens here
///   ResultSet rs = db.ExecuteSql(
///       "CONSUME SELECT * FROM readings WHERE temp > 30").value();
///
/// Concurrency model (DESIGN.md §13): every mutation — inserts, DDL,
/// AdvanceTime/decay ticks, CONSUME, cooking — enters an exclusive
/// write section of the EpochManager, preserving the total order the
/// one virtual timeline requires; each write section (and each decay
/// tick inside one) publishes a new epoch. Read-only statements run
/// concurrently through Session objects, which pin the epoch current at
/// dispatch. Calling this facade from one thread behaves exactly as the
/// historical single-threaded contract (write sections are uncontended
/// and cheap); multi-threaded use is: any number of Sessions, plus any
/// number of threads calling the mutating facade (they serialize).
///
/// Every query, written or read, runs through one private body
/// (ExecuteHeld): ExecuteSql and Execute call it under the WriteGuard,
/// Session::ExecuteRead under its ReadPin. It counts the statement,
/// stamps the epoch into ResultSet::Stats and writes the one slow-query
/// log line (DESIGN.md §12).
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Tables. ---
  Result<TableHandle> CreateTable(const std::string& name, Schema schema,
                                  TableOptions table_options = {});
  Result<TableHandle> GetTable(const std::string& name);
  Status DropTable(const std::string& name);
  std::vector<std::string> TableNames() const;

  // --- Decay (the first natural law). ---

  /// Attaches `fungus` to the named table, ticking every `period`.
  Result<DecayScheduler::AttachmentId> AttachFungus(
      const std::string& table_name, std::unique_ptr<Fungus> fungus,
      Duration period);

  Status DetachFungus(DecayScheduler::AttachmentId id);

  // --- Time. ---

  Timestamp Now() const { return clock_.Now(); }

  /// Advances the virtual clock by `d`, running every due fungus tick
  /// (in order) and decaying the cellar. Returns ticks executed.
  Result<uint64_t> AdvanceTime(Duration d);

  // --- Ingestion. ---

  /// Appends one row stamped with the current time.
  Result<RowId> Insert(const std::string& table_name,
                       const std::vector<Value>& values);

  /// Appends `rows` in order under one write section and one table
  /// lookup, all stamped with the current time: readers see all of them
  /// or none, and the batch publishes one epoch. One Result per row; a
  /// row the table rejects gets its own error and does not stop the
  /// others. This is the writer's unit for an `\insert` run.
  std::vector<Result<RowId>> Insert(const std::string& table_name,
                                    std::span<const std::vector<Value>> rows);

  /// Pulls up to `max_records` from `source` into the named table.
  Result<uint64_t> Ingest(const std::string& table_name,
                          RecordSource& source, uint64_t max_records);

  /// Paced variant: the clock advances `inter_arrival` per record.
  Result<uint64_t> IngestPaced(const std::string& table_name,
                               RecordSource& source, uint64_t max_records,
                               Duration inter_arrival);

  // --- Queries. ---

  /// Parses one statement of the FungusDB dialect and executes it
  /// through Execute(query, sql).
  Result<ResultSet> ExecuteSql(std::string_view sql);

  /// Executes a parsed query in the writer's total order (read-only
  /// queries included — callers who want concurrent reads use a
  /// Session). `sql` is the text it was parsed from, quoted by the
  /// slow-query log (empty logs the query's rendering); `queue_wait_us`
  /// is how long the caller's request waited before execution (fungusd
  /// passes its queue wait), logged as queue_us=.
  Result<ResultSet> Execute(const Query& query, std::string_view sql = {},
                            int64_t queue_wait_us = 0);

  // --- Cooking. ---

  /// Registers a cooking rule (validated by the kitchen).
  Status AddCookSpec(CookSpec spec);

  Cellar& cellar() { return cellar_; }
  const Cellar& cellar() const { return cellar_; }
  Kitchen& kitchen() { return kitchen_; }

  // --- Verification. ---

  /// Runs the invariant checker over every table plus the cellar and
  /// returns the combined fsck report (empty violations == healthy).
  /// Executes under a read pin: safe concurrently with the writer.
  verify::Report Fsck() const;

  /// Arms the scheduler's CHECK AFTER TICK hook: after every decay
  /// tick the ticked table is fsck'd, and the process aborts with the
  /// report on the first violation. A tripwire for tests and debug
  /// runs — also armed by the FUNGUSDB_CHECK_AFTER_TICK environment
  /// variable (any value but "0") at construction time.
  void EnableCheckAfterTick();

  // --- Introspection. ---

  HealthReport Health() const;

  /// Composes the `\rot` report for one table under a single read pin:
  /// rot structure, freshness histogram and the scheduler's decay
  /// state. The supported read path for out-of-core observers (HTTP
  /// handlers, CLIs) that must not touch Table directly.
  Result<RotReport> RotReportFor(const std::string& name);

  /// Runtime tuning of TableOptions::freeze_after_idle_ticks for one
  /// table (0 disables freezing; see storage/table.h). Mutating:
  /// enters the exclusive write section like every facade mutation.
  Status SetFreezeAfterIdleTicks(const std::string& name, uint64_t ticks);

  /// The slow-query threshold in wall-clock microseconds: a statement
  /// whose execution takes at least this long is logged (DESIGN.md §12)
  /// and counted in fungusdb.query.slow{table=}. 0 disables. Starts at
  /// the FUNGUSDB_SLOW_QUERY_US environment variable (0 when unset or
  /// malformed); `\slowlog` sets it at runtime. Atomic: read by
  /// concurrent Sessions.
  void set_slow_query_micros(int64_t us) {
    slow_query_micros_.store(us, std::memory_order_relaxed);
  }
  int64_t slow_query_micros() const {
    return slow_query_micros_.load(std::memory_order_relaxed);
  }

  const DatabaseOptions& options() const { return options_; }
  MetricsRegistry& metrics() { return metrics_; }
  DecayScheduler& scheduler() { return scheduler_; }
  VirtualClock& clock() { return clock_; }
  ThreadPool& thread_pool() { return *pool_; }

  /// The reader/writer coordination point. Read-mostly callers that
  /// compose several lookups (e.g. a rot report walking a table and the
  /// scheduler) take one pin around the whole composition; nested pins
  /// from the facade's own accessors are reentrant.
  EpochManager& epochs() FUNGUS_RETURN_CAPABILITY(epochs_) {
    return epochs_;
  }

  /// The current published epoch (bumped per write section and per
  /// decay tick) — also exported as the fungusdb.exec.epoch gauge.
  uint64_t epoch() const { return epochs_.epoch(); }

 private:
  friend class Session;
  friend struct internal::DatabaseInternal;

  /// Mutable-table escape hatch. Private since the Session split: every
  /// external caller goes through TableHandle or (for persistence /
  /// verification / test seeding) internal::DatabaseInternal. Requires
  /// at least a shared hold on the epoch: the map lookup races with DDL
  /// otherwise. Callers that mutate the returned table need the
  /// exclusive WriteGuard — the analysis cannot see through Table*, so
  /// that half of the contract rides on the write-path annotations.
  Result<Table*> MutableTable(const std::string& name)
      FUNGUS_REQUIRES_SHARED(epochs_);

  /// Body of both Insert forms: appends `rows` in one write section and
  /// stores row i's outcome in ids[i] (ids.size() == rows.size()), so
  /// the one-row form allocates nothing.
  void InsertRows(const std::string& table_name,
                  std::span<const std::vector<Value>> rows,
                  std::span<Result<RowId>> ids);

  /// The one statement-execution body. The writer's Execute calls it
  /// under its WriteGuard with engine_, and Session::ExecuteRead under
  /// its ReadPin with the session's engine (`read_pin`). It looks up the
  /// table, counts the statement, runs `engine`, stamps the epoch into
  /// ResultSet::Stats and writes the slow-query line, whose lock_wait_us=
  /// is `lock_wait_us`: the pin wait on a read, the WriteGuard
  /// acquisition on a write. A read also records the pin wait in
  /// fungusdb.query.pin_wait_us and refuses a table that tracks access.
  /// Shared suffices for the analysis; a CONSUME mutates through here
  /// only from the writer, which holds the epoch exclusively (Sessions
  /// refuse consuming queries before they pin).
  Result<ResultSet> ExecuteHeld(QueryEngine& engine, const Query& query,
                                std::string_view sql, int64_t queue_wait_us,
                                int64_t lock_wait_us, bool read_pin)
      FUNGUS_REQUIRES_SHARED(epochs_);

  DatabaseOptions options_;
  VirtualClock clock_;
  MetricsRegistry metrics_;
  // Mutable: const introspection (Health, Fsck, TableNames) still pins.
  mutable EpochManager epochs_;
  // Declared before engine_, its user; destroyed after it, so no
  // parallel scan can outlive its pool.
  std::unique_ptr<ThreadPool> pool_;
  Cellar cellar_;
  Kitchen kitchen_;
  DecayScheduler scheduler_;
  QueryEngine engine_;
  Ingestor ingestor_;
  /// The table map is versioned state: DDL mutates it under the
  /// exclusive epoch section, everything else reads it under a pin.
  std::map<std::string, std::unique_ptr<Table>> tables_
      FUNGUS_GUARDED_BY(epochs_);
  std::atomic<int64_t> slow_query_micros_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_CORE_DATABASE_H_
