#include "server/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <utility>

#include "common/string_util.h"
#include "common/trace.h"
#include "core/meta_commands.h"
#include "persist/snapshot.h"
#include "query/parser.h"

namespace fungusdb::server {
namespace {

size_t ResolveReadWorkers(int configured) {
  if (configured >= 0) return static_cast<size_t>(configured);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4u : std::min(8u, hw);
}

}  // namespace

Server::Server(std::unique_ptr<Database> db, ServerOptions options)
    : db_(std::move(db)),
      options_(std::move(options)),
      queue_(options_.queue_capacity),
      read_queue_(options_.queue_capacity) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  FUNGUSDB_ASSIGN_OR_RETURN(listener_,
                            ListenTcp(options_.host, options_.port));
  FUNGUSDB_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  num_read_workers_ = ResolveReadWorkers(options_.read_workers);
  db_->metrics().SetGauge("fungusdb.server.read_workers",
                          static_cast<double>(num_read_workers_));
  sessions_.clear();
  for (size_t i = 0; i < num_read_workers_; ++i) {
    sessions_.push_back(std::make_unique<Session>(db_.get()));
  }
  executor_ = std::thread([this] { ExecutorLoop(); });
  for (size_t i = 0; i < num_read_workers_; ++i) {
    read_threads_.emplace_back([this, i] { ReadWorkerLoop(i); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  {
    MutexLock stop_lock(stop_mu_);
    started_ = true;
  }
  return Status::OK();
}

void Server::Stop() {
  MutexLock stop_lock(stop_mu_);
  if (stopped_ || !started_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);

  // 1. Stop the intake: unblock accept(), join the acceptor.
  ::shutdown(listener_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Close admission on both queues. Requests already admitted still
  //    drain — the workers answer every one of them before exiting.
  queue_.Close();
  read_queue_.Close();
  if (executor_.joinable()) executor_.join();
  for (std::thread& t : read_threads_) {
    if (t.joinable()) t.join();
  }
  read_threads_.clear();
  sessions_.clear();

  // 3. Every promise is now fulfilled, so connection threads are back
  //    in (or heading to) ReadFrame; unblock them and join.
  {
    MutexLock lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::map<uint64_t, Connection>::node_type node;
    {
      MutexLock lock(conns_mu_);
      if (conns_.empty()) break;
      node = conns_.extract(conns_.begin());
    }
    if (node.mapped().thread.joinable()) node.mapped().thread.join();
  }

  listener_.Reset();
  db_->metrics().SetGauge("fungusdb.server.connections_active", 0);
  db_->metrics().SetGauge("fungusdb.server.queue_depth_high_water",
                          static_cast<double>(queue_.depth_high_water()));
  db_->metrics().SetGauge(
      "fungusdb.server.read_queue_depth_high_water",
      static_cast<double>(read_queue_.depth_high_water()));

  // 4. All threads are gone; the database is ours again. Persist it.
  if (!options_.snapshot_path.empty()) {
    const Status saved =
        SaveDatabaseSnapshot(*db_, options_.snapshot_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "fungusd: snapshot on shutdown failed: %s\n",
                   saved.ToString().c_str());
    }
  }
}

void Server::ReapFinishedConnections() {
  std::vector<std::thread> finished;
  {
    MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second.done) {
        finished.push_back(std::move(it->second.thread));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

void Server::AcceptLoop() {
  MetricsRegistry& metrics = db_->metrics();
  while (!stopping_.load(std::memory_order_acquire)) {
    UniqueFd conn(::accept(listener_.get(), nullptr, nullptr));
    if (!conn.valid()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // EINTR / transient accept failure
    }
    metrics.IncrementCounter("fungusdb.server.connections_accepted");
    ReapFinishedConnections();

    MutexLock lock(conns_mu_);
    if (conns_.size() >= options_.max_connections) {
      // Admission control for connections: a clean immediate EOF (the
      // UniqueFd destructor) — the client sees ConnectionClosed, not a
      // hang. Request-level overload gets the typed kOverloaded answer.
      continue;
    }
    const uint64_t id = next_conn_id_++;
    Connection& slot = conns_[id];
    slot.fd = conn.Release();
    metrics.SetGauge("fungusdb.server.connections_active",
                     static_cast<double>(conns_.size()));
    const int fd = slot.fd;
    slot.thread = std::thread([this, id, fd] { ServeConnection(id, fd); });
  }
}

bool Server::BatchIsReadOnly(const std::vector<std::string>& statements,
                             std::vector<std::optional<Query>>& queries) {
  if (statements.empty()) return false;
  ClassifyContext context;
  context.table_tracks_access = [this](std::string_view table) {
    if (!db_->options().record_access) return false;
    const Result<TableHandle> t = db_->GetTable(std::string(table));
    return t.ok() && t.value().options().track_access;
  };
  for (size_t i = 0; i < statements.size(); ++i) {
    if (ClassifyStatement(statements[i], context, &queries[i]) ==
        StatementKind::kMutating) {
      return false;
    }
  }
  return true;
}

void Server::ServeConnection(uint64_t conn_id, int fd) {
  UniqueFd owned(fd);
  MetricsRegistry& metrics = db_->metrics();
  while (true) {
    Result<Frame> frame_or = ReadFrame(owned.get());
    if (!frame_or.ok()) break;  // hangup or torn framing: drop
    const Frame& frame = frame_or.value();
    if (frame.header.type != FrameType::kStatementRequest) {
      break;  // a client sending response frames is not speaking v1
    }
    Result<StatementRequest> request_or = [&frame] {
      FUNGUS_TRACE_SPAN("server.decode", frame.payload.size());
      return DecodeStatementRequest(frame.payload);
    }();
    if (!request_or.ok()) {
      // Framing was intact but the payload was not — answer with the
      // decode error (request id unknown, so 0), then drop: the byte
      // stream can no longer be trusted.
      StatementResponse response;
      response.results.push_back(request_or.status());
      const Status answered =
          WriteFrame(owned.get(), FrameType::kStatementResponse,
                     EncodeStatementResponse(response));
      (void)answered;  // best effort: the connection is dropped either way
      break;
    }
    StatementRequest request = std::move(request_or).value();
    metrics.IncrementCounter("fungusdb.server.requests_total");

    // Route: a batch that is read-only end to end goes to the read
    // worker pool; one mutating (or unclassifiable) statement sends
    // the whole batch to the writer, preserving intra-batch order.
    PendingRequest pending;
    pending.queries.resize(request.statements.size());
    const bool read_path =
        num_read_workers_ > 0 &&
        BatchIsReadOnly(request.statements, pending.queries);
    if (read_path) {
      metrics.IncrementCounter("fungusdb.server.requests_read_path");
    }
    RequestQueue<PendingRequest>& target = read_path ? read_queue_ : queue_;

    // A budget too large for steady_clock arithmetic is no budget.
    pending.has_deadline =
        request.deadline_micros != 0 &&
        request.deadline_micros <= static_cast<uint64_t>(INT64_MAX / 2);
    pending.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(
            pending.has_deadline ? request.deadline_micros : 0);
    const uint64_t request_id = request.request_id;
    const size_t num_statements = request.statements.size();
    pending.request = std::move(request);
    pending.enqueued_us = Tracer::NowMicros();
    std::future<std::vector<Result<ResultSet>>> reply =
        pending.reply.get_future();

    StatementResponse response;
    response.request_id = request_id;
    if (target.TryPush(std::move(pending))) {
      response.results = reply.get();
    } else {
      // Typed refusal — never an OOM, never a silent drop.
      const Status refusal =
          target.closed()
              ? Status::ShuttingDown("server is draining; retry elsewhere")
              : Status::Overloaded("request queue is full; retry later");
      metrics.IncrementCounter(target.closed()
                                   ? "fungusdb.server.requests_shutdown"
                                   : "fungusdb.server.requests_overloaded");
      for (size_t i = 0; i < num_statements; ++i) {
        response.results.push_back(refusal);
      }
    }
    Status sent;
    {
      FUNGUS_TRACE_SPAN("server.respond", response.results.size());
      sent = WriteFrame(owned.get(), FrameType::kStatementResponse,
                        EncodeStatementResponse(response));
    }
    if (!sent.ok()) break;
  }
  MutexLock lock(conns_mu_);
  auto it = conns_.find(conn_id);
  if (it != conns_.end()) {
    it->second.done = true;
    it->second.fd = -1;  // about to close; Stop() must not shut it down
  }
  size_t active = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn.done) ++active;
  }
  metrics.SetGauge("fungusdb.server.connections_active",
                   static_cast<double>(active));
}

void Server::ExecutorLoop() {
  while (std::optional<PendingRequest> item = queue_.Pop()) {
    ProcessRequest(std::move(*item), kWriterWorker);
  }
}

void Server::ReadWorkerLoop(size_t worker_index) {
  while (std::optional<PendingRequest> item = read_queue_.Pop()) {
    ProcessRequest(std::move(*item), static_cast<int>(worker_index));
  }
}

void Server::ProcessRequest(PendingRequest pending, int worker) {
  MetricsRegistry& metrics = db_->metrics();
  const bool read_path = worker != kWriterWorker;
  RequestQueue<PendingRequest>& queue = read_path ? read_queue_ : queue_;
  metrics.SetGauge(read_path
                       ? "fungusdb.server.read_queue_depth_high_water"
                       : "fungusdb.server.queue_depth_high_water",
                   static_cast<double>(queue.depth_high_water()));
  const uint64_t dequeued_us = Tracer::NowMicros();
  const uint64_t queue_wait_us = dequeued_us > pending.enqueued_us
                                     ? dequeued_us - pending.enqueued_us
                                     : 0;
  metrics.RecordHistogram("fungusdb.server.queue_wait_us",
                          static_cast<int64_t>(queue_wait_us));
  if (Tracer::enabled()) {
    // The wait has no RAII site — the span covers the time the request
    // sat in the queue, recorded manually once it leaves.
    Tracer::Global().Record("server.queue_wait", pending.enqueued_us,
                            queue_wait_us, pending.request.request_id,
                            /*has_arg=*/true);
  }
  const std::string worker_label =
      read_path ? "worker=read-" + std::to_string(worker) : "worker=writer";
  const std::vector<std::string>& statements = pending.request.statements;
  std::vector<Result<ResultSet>> results;
  results.reserve(statements.size());
  // Per-statement accounting stays local and reaches the registry once
  // per request, below.
  std::vector<int64_t> latencies_us;
  latencies_us.reserve(statements.size());
  while (results.size() < statements.size()) {
    // The deadline is re-checked per statement, so a long batch that
    // blows its budget mid-way stops burning worker time.
    if (pending.Expired()) break;
    const size_t next = results.size();
    const auto started = std::chrono::steady_clock::now();
    if (read_path) {
      FUNGUS_TRACE_SPAN("server.read_worker", worker);
      results.push_back(ExecuteRead(static_cast<size_t>(worker),
                                    statements[next], pending.queries[next],
                                    static_cast<int64_t>(queue_wait_us)));
    } else {
      ExecuteWrites(next, pending, static_cast<int64_t>(queue_wait_us),
                    results);
    }
    // A run of inserts answers several statements at once; each takes
    // an equal share of the run's wall time.
    const size_t answered = results.size() - next;
    if (answered == 0) continue;  // a run met the deadline at once
    const auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    latencies_us.insert(latencies_us.end(), answered,
                        (micros + static_cast<int64_t>(answered) / 2) /
                            static_cast<int64_t>(answered));
  }
  std::map<int, int64_t> errors_by_code;
  for (const Result<ResultSet>& result : results) {
    if (!result.ok()) {
      ++errors_by_code[static_cast<int>(result.status().error_code())];
    }
  }
  if (!latencies_us.empty()) {
    const auto executed = static_cast<int64_t>(latencies_us.size());
    metrics.IncrementCounter("fungusdb.server.statements_total", executed);
    metrics.IncrementCounter("fungusdb.server.statements_total",
                             worker_label, executed);
    metrics.RecordHistogram("fungusdb.server.statement_latency_us", "",
                            latencies_us);
    metrics.RecordHistogram("fungusdb.server.statement_latency_us",
                            worker_label, latencies_us);
  }
  for (const auto& [code, count] : errors_by_code) {
    metrics.IncrementCounter("fungusdb.server.errors",
                             "code=" + std::to_string(code), count);
  }
  // Past the deadline every remaining statement times out; timeouts
  // count as neither statements nor errors.
  if (results.size() < statements.size()) {
    metrics.IncrementCounter("fungusdb.server.requests_timeout");
    results.resize(statements.size(),
                   Status::Timeout("deadline exceeded before execution"));
  }
  pending.reply.set_value(std::move(results));
}

void Server::ExecuteWrites(size_t next, const PendingRequest& pending,
                           int64_t queue_wait_us,
                           std::vector<Result<ResultSet>>& results) {
  const std::span<const std::string> statements =
      std::span(pending.request.statements).subspan(next);
  const std::optional<InsertStatement> first = SplitInsert(statements[0]);
  if (!first.has_value()) {
    FUNGUS_TRACE_SPAN("server.statement");
    results.push_back(
        ExecuteWrite(statements[0], pending.queries[next], queue_wait_us));
    return;
  }
  std::vector<InsertStatement> run = {*first};
  while (run.size() < statements.size()) {
    const std::optional<InsertStatement> insert =
        SplitInsert(statements[run.size()]);
    if (!insert.has_value() || insert->table != first->table) break;
    run.push_back(*insert);
  }
  FUNGUS_TRACE_SPAN("server.statement", run.size());

  // Parse every row before the write section, so readers wait only for
  // the appends. Only this thread mutates, so the schema cannot change
  // in between.
  const std::string table_name(first->table);
  const Result<TableHandle> table = db_->GetTable(table_name);
  std::vector<std::vector<Value>> rows;
  std::vector<size_t> row_results;  // index in `results` of each row
  rows.reserve(run.size());
  row_results.reserve(run.size());
  for (const InsertStatement& insert : run) {
    if (pending.Expired()) break;
    Result<std::vector<Value>> row = ParseInsertRow(insert, table);
    if (!row.ok()) {
      results.push_back(row.status());
      continue;
    }
    rows.push_back(std::move(row).value());
    row_results.push_back(results.size());
    results.emplace_back(ResultSet{});  // the row id, filled in below
  }
  if (rows.empty()) return;
  const std::vector<Result<RowId>> ids = db_->Insert(table_name, rows);
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<ResultSet>& answer = results[row_results[i]];
    if (ids[i].ok()) {
      answer = RowIdResult(ids[i].value());
    } else {
      answer = ids[i].status();
    }
  }
}

Result<ResultSet> Server::ExecuteWrite(std::string_view statement,
                                       const std::optional<Query>& query,
                                       int64_t queue_wait_us) {
  statement = StripWhitespace(statement);
  if (query.has_value()) return db_->Execute(*query, statement, queue_wait_us);
  if (statement.empty() || statement.front() == '\\') {
    return ExecuteStatement(*db_, statement);
  }
  // SQL the classifier did not parse: it followed the batch's first
  // mutating statement, or the server runs without read workers.
  FUNGUSDB_ASSIGN_OR_RETURN(Query parsed, ParseQuery(statement));
  return db_->Execute(parsed, statement, queue_wait_us);
}

Result<ResultSet> Server::ExecuteRead(size_t worker_index,
                                      const std::string& statement,
                                      const std::optional<Query>& query,
                                      int64_t queue_wait_us) {
  if (query.has_value()) {
    return sessions_[worker_index]->ExecuteRead(
        *query, StripWhitespace(statement), queue_wait_us);
  }
  // A read-only meta command. One outer pin for the whole command: inner
  // facade reads (GetTable, Health, Fsck, TableNames) re-pin reentrantly,
  // and scheduler state (\rot) cannot change underneath because the pin
  // excludes the writer for the duration.
  EpochManager::ReadPin pin(db_->epochs());
  return ExecuteStatement(*db_, statement);
}

}  // namespace fungusdb::server
