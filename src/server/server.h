#ifndef FUNGUSDB_SERVER_SERVER_H_
#define FUNGUSDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/database.h"
#include "core/session.h"
#include "query/query.h"
#include "server/request_queue.h"
#include "server/socket.h"
#include "server/wire_format.h"

namespace fungusdb::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Requests admitted but not yet executed (per queue: the write queue
  /// and the read queue each get this capacity). A full queue answers
  /// kOverloaded — the server's only backpressure mechanism, by design.
  size_t queue_capacity = 128;
  /// Simultaneous connections; excess connects are accepted and
  /// immediately closed so clients see a clean EOF, not a hang.
  size_t max_connections = 256;
  /// When non-empty, Stop() snapshots the database here after draining
  /// in-flight requests (the SIGTERM contract).
  std::string snapshot_path;
  /// Read worker pool size: -1 sizes from the CPUs the process may run
  /// on (AvailableCpus, capped at 8),
  /// 0 disables the read path entirely (every statement runs on the
  /// writer, the pre-split behavior), N > 0 spawns exactly N workers,
  /// each owning one Session.
  int read_workers = -1;
};

/// fungusd's engine room: a TCP front-end over one Database.
///
/// Threading model (DESIGN.md §13) — one connection thread per client
/// decodes frames and classifies each request's batch. A batch whose
/// statements are all provably read-only goes to the read queue, served
/// by a pool of read workers that each own a Session and execute
/// against an epoch-pinned snapshot view. Everything else goes to the
/// write queue, served by a SINGLE executor thread that owns the total
/// order over mutations (inserts, DDL, \advance ticks, CONSUME,
/// cooking). Connection threads block on a per-request future for the
/// answer, which also serializes each connection's request/response
/// exchange. Meta commands run through the registry in
/// core/meta_commands.h on both paths; a read worker runs a read-only
/// one under one outer read pin, and executes a SQL statement from the
/// parse the classifier already made.
///
/// The writer takes a run of consecutive `\insert`s into one table as
/// one unit: it parses every row against the schema first, then appends
/// them all in one write section, which publishes one epoch. Readers see
/// all of a run or none of it. A row that fails to parse, or comes past
/// the deadline, gets its own error and is not appended. Any other
/// statement, or a different table, ends the run, so the order within a
/// request is kept. Each statement's statement_latency_us sample is its
/// share of the run's wall time. Per-statement counters and samples are
/// kept locally and flushed to the registry once per request.
///
/// Overload answers E:2002 kOverloaded (typed, never a silent drop),
/// expired deadlines answer E:2003 kTimeout, and a stopping server
/// answers E:2004 kShuttingDown — on both queues. Stop() drains every
/// admitted request, then snapshots (if configured) — an accepted
/// request is always answered.
///
/// Exported metrics (on the Database's registry, all prefixed
/// fungusdb.server.): connections_accepted, connections_active,
/// requests_total, requests_read_path, requests_overloaded,
/// requests_timeout, statements_total (plus per-worker series labeled
/// worker=writer / worker=read-<i>), queue_depth_high_water,
/// read_queue_depth_high_water, read_workers, statement_latency_us.
class Server {
 public:
  /// Takes ownership of a (possibly pre-populated) database.
  explicit Server(std::unique_ptr<Database> db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor, executor, and read
  /// worker threads.
  Status Start();

  /// Graceful shutdown: stop accepting, drain both queues, join every
  /// thread, then snapshot. Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (valid after Start(), also with options.port == 0).
  uint16_t port() const { return port_; }

  /// Resolved read worker count (valid after Start()).
  size_t num_read_workers() const { return num_read_workers_; }

  /// The owned database. Only safe to touch before Start() (seeding)
  /// or after Stop() returns (inspection) — in between it belongs to
  /// the executor and read worker threads.
  Database& database() { return *db_; }

 private:
  struct PendingRequest {
    StatementRequest request;
    /// The classifier's parse of each statement (one entry per
    /// statement; nullopt for meta commands, for statements after the
    /// first mutating one, and with no read workers), so neither a read
    /// worker nor the writer parses it again.
    std::vector<std::optional<Query>> queries;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    /// Tracer-epoch enqueue time; the worker turns it into the
    /// queue-wait metric and the "server.queue_wait" trace span.
    uint64_t enqueued_us = 0;
    /// The encoded response payload, one answer per statement.
    std::promise<std::string> reply;

    bool Expired() const {
      return has_deadline && std::chrono::steady_clock::now() >= deadline;
    }
  };

  /// A request's response as its worker writes it, answer by answer,
  /// and the per-error-code counts the worker reports once per request.
  struct Answers {
    ResponseEncoder encoder;
    std::map<int, int64_t> errors_by_code;

    void Add(const Result<ResultSet>& answer);
    void AddError(const Status& status);
    size_t size() const { return encoder.num_added(); }
  };

  struct Connection {
    std::thread thread;
    int fd = -1;
    bool done = false;
  };

  /// Writer sentinel for ProcessRequest's worker index.
  static constexpr int kWriterWorker = -1;

  void AcceptLoop();
  void ServeConnection(uint64_t conn_id, int fd);
  void ExecutorLoop();
  void ReadWorkerLoop(size_t worker_index);

  /// Shared request body for the writer and the read workers: queue
  /// wait attribution, per-statement deadline recheck, execution,
  /// latency accounting, and the encoded response it hands back through
  /// `pending.reply`. `worker` is kWriterWorker or a read worker index.
  void ProcessRequest(PendingRequest pending, int worker);

  /// True iff every statement in the batch classifies kReadOnly —
  /// the routing predicate for the read queue (connection threads).
  /// Classifies up to the first mutating statement; `queries` (one
  /// entry per statement) keeps every parse made on the way.
  bool BatchIsReadOnly(const std::vector<std::string>& statements,
                       std::vector<std::optional<Query>>& queries);

  /// Writer-thread only. Answers the statement at `next`, or, when it is
  /// an `\insert`, the run of consecutive `\insert`s into the same table
  /// that starts there: each row is parsed outside the write section,
  /// then one Database::Insert appends them all, and each row id's
  /// answer is encoded straight into `answers`. Adds one answer per
  /// statement answered; stops early at the request's deadline.
  void ExecuteWrites(size_t next, const PendingRequest& pending,
                     int64_t queue_wait_us, Answers& answers);

  /// Writer execution of one statement that is not an `\insert`: SQL
  /// through Database::Execute, from the classifier's `query` when it
  /// made one and parsed here otherwise; a registry command through
  /// ExecuteStatement.
  Result<ResultSet> ExecuteWrite(std::string_view statement,
                                 const std::optional<Query>& query,
                                 int64_t queue_wait_us);

  /// Read-worker execution: parsed SQL through the worker's Session, a
  /// read-only registry command under one outer epoch pin.
  Result<ResultSet> ExecuteRead(size_t worker_index,
                                const std::string& statement,
                                const std::optional<Query>& query,
                                int64_t queue_wait_us);

  /// Joins connections whose threads have finished (acceptor thread).
  void ReapFinishedConnections();

  std::unique_ptr<Database> db_;
  ServerOptions options_;
  RequestQueue<PendingRequest> queue_;
  RequestQueue<PendingRequest> read_queue_;

  // Lifecycle state below is written only in Start() (before any worker
  // thread exists) and read by workers afterwards — the thread spawns
  // order it; capability_audit.py carries the justified entries.
  UniqueFd listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::thread executor_;
  size_t num_read_workers_ = 0;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> read_threads_;
  std::atomic<bool> stopping_{false};

  Mutex stop_mu_;
  bool started_ FUNGUS_GUARDED_BY(stop_mu_) = false;
  bool stopped_ FUNGUS_GUARDED_BY(stop_mu_) = false;

  Mutex conns_mu_;
  std::map<uint64_t, Connection> conns_ FUNGUS_GUARDED_BY(conns_mu_);
  uint64_t next_conn_id_ FUNGUS_GUARDED_BY(conns_mu_) = 0;
};

}  // namespace fungusdb::server

#endif  // FUNGUSDB_SERVER_SERVER_H_
