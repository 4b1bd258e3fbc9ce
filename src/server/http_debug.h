#ifndef FUNGUSDB_SERVER_HTTP_DEBUG_H_
#define FUNGUSDB_SERVER_HTTP_DEBUG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "server/request_queue.h"
#include "server/socket.h"

namespace fungusdb::server {

struct HttpDebugOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Handlers serving requests concurrently. /tracez blocks for its
  /// capture window, so keep at least 2 or a capture starves scrapes.
  size_t handler_threads = 2;
  /// Accepted-but-unserved connections; past it connects are closed
  /// (clean EOF) — same explicit-backpressure story as the wire
  /// protocol's policy for excess connects.
  size_t queue_capacity = 64;
  /// Feeds the fungusdb.process.snapshot_age_seconds gauge. May be
  /// empty (no snapshot configured).
  std::string snapshot_path;
};

/// The HTTP observability plane: a dependency-free HTTP/1.1 server that
/// fungusd mounts next to the wire protocol so standard tooling —
/// Prometheus, load balancers, `curl`, Perfetto — can see a running
/// node without speaking FGWP. GET-only, Connection: close.
///
/// Endpoints (DESIGN.md §16):
///   /metrics            Prometheus text exposition (0.0.4), real
///                       cumulative histogram _bucket series
///   /healthz            200 while the process serves HTTP at all
///   /readyz             200 only when ready; 503 during startup
///                       replay and SIGTERM drain (balancer rotation)
///   /rotz[?table=T]     RotReport JSON per table
///   /storagez[?table=T] StorageStats JSON per table (fold ratio,
///                       frozen-tier strip come via /rotz)
///   /tracez?ms=N        enable the span tracer for N ms, return the
///                       captured Chrome trace-event JSON
///   /varz               build info, uptime, epoch/queue/worker gauges
///
/// Threading model: one acceptor thread pushes accepted sockets onto a
/// bounded RequestQueue drained by a small handler pool — no
/// per-connection threads, no locks of its own beyond the queue's.
/// Every database read holds the database's read lock
/// (RwLock::ReadLock, reentrant with the facade's own read locks); the
/// plane never touches Table or tier internals, only the public stats
/// structs (enforced by the `http-handler` lint rule).
///
/// Lifecycle: Start() before the Database exists is supported — the
/// pointer is atomic and endpoints that need it answer 503 until
/// SetDatabase(). Readiness is a separate tri-state so /readyz can flip
/// to draining while /metrics keeps answering during the drain window.
///
/// Exported metrics (on the Database's registry once attached):
/// fungusdb.http.requests (plus per-path series), fungusdb.http.errors
/// (per-status series), fungusdb.http.request_latency_us.
class HttpDebugServer {
 public:
  enum class Readiness { kStarting, kReady, kDraining };

  explicit HttpDebugServer(HttpDebugOptions options = {});
  ~HttpDebugServer();

  HttpDebugServer(const HttpDebugServer&) = delete;
  HttpDebugServer& operator=(const HttpDebugServer&) = delete;

  /// Binds, listens, and spawns the acceptor and handler threads.
  Status Start();

  /// Stops accepting, drains queued connections, joins every thread.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// The bound port (valid after Start(), also with options.port == 0).
  uint16_t port() const { return port_; }

  /// Attaches the database once it exists (after snapshot replay).
  /// May be called at most once; endpoints answer 503 before it.
  void SetDatabase(Database* db) {
    db_.store(db, std::memory_order_release);
  }

  /// Flips /readyz. fungusd drives: kStarting at boot, kReady once
  /// serving, kDraining on SIGTERM (before the wire server drains).
  void SetReadiness(Readiness r) {
    readiness_.store(static_cast<int>(r), std::memory_order_release);
  }
  Readiness readiness() const {
    return static_cast<Readiness>(
        readiness_.load(std::memory_order_acquire));
  }

 private:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  void AcceptLoop();
  void HandlerLoop();
  /// Parses one request off `fd`, routes it, writes the response.
  void Handle(int fd);
  Response Route(const std::string& path, const std::string& query);

  // Endpoint bodies. `db` is non-null (Route answers 503 otherwise).
  Response Metrics(Database& db);
  Response Varz(Database& db);
  Response Rotz(Database& db, const std::string& query);
  Response Storagez(Database& db, const std::string& query);
  Response Tracez(const std::string& query);
  Response Readyz();

  HttpDebugOptions options_;
  RequestQueue<UniqueFd> queue_;

  // Lifecycle state: written in Start() before any thread exists, read
  // by the acceptor/handlers afterwards (same contract as Server).
  UniqueFd listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;

  std::atomic<Database*> db_{nullptr};
  std::atomic<int> readiness_{0};  // Readiness::kStarting
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace fungusdb::server

#endif  // FUNGUSDB_SERVER_HTTP_DEBUG_H_
