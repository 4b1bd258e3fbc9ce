#include "core/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace fungusdb {
namespace {

size_t ResolveNumThreads(size_t requested) {
  return requested > 0 ? requested : AvailableCpus();
}

int64_t SlowQueryEnvMicros() {
  const char* env = std::getenv("FUNGUSDB_SLOW_QUERY_US");
  if (env == nullptr) return 0;
  const std::optional<int64_t> us = ParseInteger<int64_t>(env);
  return us.has_value() && *us > 0 ? *us : 0;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options),
      clock_(options.start_time),
      pool_(std::make_unique<ThreadPool>(
          ResolveNumThreads(options.num_threads))),
      cellar_(options.cellar_eviction_threshold),
      kitchen_(&cellar_),
      engine_(QueryEngineOptions{options.record_access, pool_.get(),
                                 &metrics_}),
      ingestor_(&clock_, &kitchen_),
      slow_query_micros_(SlowQueryEnvMicros()) {
  epochs_.set_metrics(&metrics_);
  scheduler_.set_metrics(&metrics_);
  // Every decay tick publishes its own epoch: a finished tick is the
  // moment the virtual timeline visibly moves, and readers dispatched
  // after the enclosing write section pin the newest tick's state.
  scheduler_.set_epoch_publisher([this] { epochs_.Publish(); });
  // Rotting tuples (fungus kills) and consumed tuples (Law-2 queries)
  // both flow through the kitchen's on-rot rules.
  scheduler_.AddDeathObserver(
      [this](Table& table, const std::vector<RowId>& rows, Timestamp now) {
        kitchen_.Cook(CookTrigger::kOnRot, table, rows, now);
      });
  engine_.AddConsumeObserver(
      [this](Table& table, const std::vector<RowId>& rows, Timestamp now) {
        kitchen_.Cook(CookTrigger::kOnRot, table, rows, now);
        metrics_.IncrementCounter("fungusdb.query.rows_consumed",
                                  static_cast<int64_t>(rows.size()));
      });
  const char* check_env = std::getenv("FUNGUSDB_CHECK_AFTER_TICK");
  if (check_env != nullptr && *check_env != '\0' &&
      std::string_view(check_env) != "0") {
    EnableCheckAfterTick();
  }
}

Result<TableHandle> Database::CreateTable(const std::string& name,
                                          Schema schema,
                                          TableOptions table_options) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  EpochManager::WriteGuard guard(epochs_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table =
      std::make_unique<Table>(name, std::move(schema), table_options);
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  return TableHandle(raw);
}

Result<TableHandle> Database::GetTable(const std::string& name) {
  EpochManager::ReadPin pin(epochs_);
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(name));
  return TableHandle(table);
}

Result<Table*> Database::MutableTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::TableNotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

Status Database::DropTable(const std::string& name) {
  EpochManager::WriteGuard guard(epochs_);
  if (tables_.erase(name) == 0) {
    return Status::TableNotFound("no table named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  EpochManager::ReadPin pin(epochs_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Result<DecayScheduler::AttachmentId> Database::AttachFungus(
    const std::string& table_name, std::unique_ptr<Fungus> fungus,
    Duration period) {
  EpochManager::WriteGuard guard(epochs_);
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(table_name));
  return scheduler_.Attach(table, std::move(fungus), period, clock_.Now());
}

Status Database::DetachFungus(DecayScheduler::AttachmentId id) {
  EpochManager::WriteGuard guard(epochs_);
  return scheduler_.Detach(id);
}

Result<uint64_t> Database::AdvanceTime(Duration d) {
  if (d < 0) return Status::InvalidArgument("cannot advance time backwards");
  EpochManager::WriteGuard guard(epochs_);
  clock_.Advance(d);
  const uint64_t ticks = scheduler_.AdvanceTo(clock_.Now());
  cellar_.AdvanceTo(clock_.Now());
  return ticks;
}

Result<RowId> Database::Insert(const std::string& table_name,
                               const std::vector<Value>& values) {
  Result<RowId> id = RowId{0};
  InsertRows(table_name, std::span(&values, 1), std::span(&id, 1));
  return id;
}

std::vector<Result<RowId>> Database::Insert(
    const std::string& table_name, std::span<const std::vector<Value>> rows) {
  std::vector<Result<RowId>> ids(rows.size(), RowId{0});
  InsertRows(table_name, rows, ids);
  return ids;
}

void Database::InsertRows(const std::string& table_name,
                          std::span<const std::vector<Value>> rows,
                          std::span<Result<RowId>> ids) {
  EpochManager::WriteGuard guard(epochs_);
  const Result<Table*> table = MutableTable(table_name);
  const Timestamp now = clock_.Now();
  int64_t appended = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!table.ok()) {
      ids[i] = table.status();
      continue;
    }
    ids[i] = (*table)->Append(rows[i], now);
    if (ids[i].ok()) ++appended;
  }
  if (appended > 0) {
    metrics_.IncrementCounter("fungusdb.ingest.rows", appended);
  }
}

Result<uint64_t> Database::Ingest(const std::string& table_name,
                                  RecordSource& source,
                                  uint64_t max_records) {
  EpochManager::WriteGuard guard(epochs_);
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(table_name));
  FUNGUSDB_ASSIGN_OR_RETURN(
      uint64_t n, ingestor_.IngestBatch(source, *table, max_records));
  metrics_.IncrementCounter("fungusdb.ingest.rows", static_cast<int64_t>(n));
  return n;
}

Result<uint64_t> Database::IngestPaced(const std::string& table_name,
                                       RecordSource& source,
                                       uint64_t max_records,
                                       Duration inter_arrival) {
  EpochManager::WriteGuard guard(epochs_);
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(table_name));
  // Interleave decay with ingestion so fungi tick close to their due
  // times instead of replaying a long backlog after the batch.
  constexpr uint64_t kChunk = 256;
  uint64_t total = 0;
  while (total < max_records) {
    const uint64_t want = std::min(kChunk, max_records - total);
    FUNGUSDB_ASSIGN_OR_RETURN(
        uint64_t n, ingestor_.IngestPaced(source, *table, want, clock_,
                                          inter_arrival));
    scheduler_.AdvanceTo(clock_.Now());
    total += n;
    if (n < want) break;  // source exhausted
  }
  cellar_.AdvanceTo(clock_.Now());
  metrics_.IncrementCounter("fungusdb.ingest.rows",
                            static_cast<int64_t>(total));
  return total;
}

Result<ResultSet> Database::ExecuteSql(std::string_view sql) {
  FUNGUSDB_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
  return Execute(query, sql);
}

Result<ResultSet> Database::Execute(const Query& query, std::string_view sql,
                                    int64_t queue_wait_us) {
  const int64_t lock_begin_us = SteadyMicros();
  EpochManager::WriteGuard guard(epochs_);
  return ExecuteHeld(engine_, query, sql, queue_wait_us,
                     SteadyMicros() - lock_begin_us, /*read_pin=*/false);
}

Result<ResultSet> Database::ExecuteHeld(QueryEngine& engine,
                                        const Query& query,
                                        std::string_view sql,
                                        int64_t queue_wait_us,
                                        int64_t lock_wait_us, bool read_pin) {
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(query.table_name));
  if (read_pin) {
    if (options_.record_access && table->options().track_access) {
      // Misrouted: a read engine does not bump the access counters that
      // feed ImportanceFungus. Refuse instead of diverging.
      return Status::InvalidArgument(
          "table '" + query.table_name +
          "' tracks access; its SELECTs belong to the writer");
    }
    metrics_.IncrementCounter("fungusdb.exec.read_statements");
    metrics_.RecordHistogram("fungusdb.query.pin_wait_us", lock_wait_us);
    metrics_.RecordHistogram("fungusdb.query.pin_wait_us",
                             "table=" + query.table_name, lock_wait_us);
  } else if (query.consuming) {
    metrics_.IncrementCounter("fungusdb.query.consuming");
  }
  metrics_.IncrementCounter("fungusdb.query.executed");
  const int64_t begin_us = SteadyMicros();
  Result<ResultSet> result = engine.Execute(query, *table, clock_.Now());
  if (!result.ok()) return result;
  const int64_t exec_us = SteadyMicros() - begin_us;
  ResultSet::Stats& stats = result->stats;
  stats.epoch = epochs_.epoch();

  const int64_t threshold = slow_query_micros();
  if (threshold > 0 && exec_us >= threshold) {
    metrics_.IncrementCounter("fungusdb.query.slow",
                              "table=" + query.table_name);
    FUNGUSDB_LOG(Warning)
        << "slow-query t=" << clock_.Now() << " table=" << query.table_name
        << " us=" << exec_us << " queue_us=" << queue_wait_us
        << " lock_wait_us=" << lock_wait_us << " epoch=" << stats.epoch
        << " rows_scanned=" << stats.rows_scanned
        << " rows_pruned=" << stats.rows_pruned
        << " segments_scanned=" << stats.segments_scanned
        << " segments_pruned=" << stats.segments_pruned
        << " rows_matched=" << stats.rows_matched
        << " rows_consumed=" << stats.rows_consumed
        << " sql=" << (sql.empty() ? query.ToString() : std::string(sql));
  }
  return result;
}

Status Database::AddCookSpec(CookSpec spec) {
  EpochManager::WriteGuard guard(epochs_);
  if (tables_.count(spec.table_name) == 0) {
    return Status::TableNotFound("no table named '" + spec.table_name +
                                 "'");
  }
  return kitchen_.AddSpec(std::move(spec));
}

Result<RotReport> Database::RotReportFor(const std::string& name) {
  EpochManager::ReadPin pin(epochs_);
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(name));
  return BuildRotReport(*table, &scheduler_);
}

Status Database::SetFreezeAfterIdleTicks(const std::string& name,
                                         uint64_t ticks) {
  EpochManager::WriteGuard guard(epochs_);
  FUNGUSDB_ASSIGN_OR_RETURN(Table * table, MutableTable(name));
  table->set_freeze_after_idle_ticks(ticks);
  return Status::OK();
}

verify::Report Database::Fsck() const {
  EpochManager::ReadPin pin(epochs_);
  verify::InvariantChecker checker;
  verify::Report report;
  for (const auto& [name, table] : tables_) {
    report.Merge(checker.CheckTable(*table));
  }
  report.Merge(checker.CheckCellar(cellar_));
  return report;
}

void Database::EnableCheckAfterTick() {
  scheduler_.set_post_tick_check([](Table& table, Timestamp tick_time) {
    const verify::Report report =
        verify::InvariantChecker().CheckTable(table);
    if (report.ok()) return;
    std::fprintf(stderr,
                 "FUNGUSDB_CHECK_AFTER_TICK: invariant violation after "
                 "tick at t=%lld\n%s",
                 static_cast<long long>(tick_time),
                 report.ToString().c_str());
    std::abort();
  });
}

HealthReport Database::Health() const {
  EpochManager::ReadPin pin(epochs_);
  HealthReport report;
  report.now = clock_.Now();
  for (const auto& [name, table] : tables_) {
    TableHealth h;
    h.name = name;
    h.live_rows = table->live_rows();
    h.total_appended = table->total_appended();
    h.rows_killed = table->rows_killed();
    h.num_segments = table->num_segments();
    h.memory_bytes = table->MemoryUsage();
    if (h.live_rows > 0) {
      double sum = 0.0;
      table->ForEachLive(
          [&](RowId row) { sum += table->Freshness(row); });
      h.mean_freshness = sum / static_cast<double>(h.live_rows);
    }
    report.tables.push_back(std::move(h));
  }
  report.cellar_entries = cellar_.size();
  report.cellar_bytes = cellar_.MemoryUsage();
  report.rows_cooked = kitchen_.rows_cooked();
  return report;
}

std::string HealthReport::ToString() const {
  std::ostringstream os;
  os << "health @ t=" << FormatDuration(now) << "\n";
  for (const TableHealth& t : tables) {
    os << "  table " << t.name << ": live=" << t.live_rows << "/"
       << t.total_appended << " killed=" << t.rows_killed
       << " segments=" << t.num_segments << " mem="
       << FormatBytes(t.memory_bytes)
       << " mean_freshness=" << FormatDouble(t.mean_freshness, 3) << "\n";
  }
  os << "  cellar: " << cellar_entries << " entries, "
     << FormatBytes(cellar_bytes) << ", rows_cooked=" << rows_cooked << "\n";
  return os.str();
}

}  // namespace fungusdb
