#include "server/http_debug.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "common/process_stats.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace fungusdb::server {
namespace {

/// Largest request head we accept; debug-plane GETs are tiny.
constexpr size_t kMaxRequestBytes = 8192;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

/// Value of `key` in an application/x-www-form-urlencoded query string
/// ("table=t&ms=250"). No percent-decoding: every recognized value is
/// a table name or an integer. Empty when absent.
std::string QueryParam(const std::string& query, const std::string& key) {
  for (const std::string& pair : Split(query, '&')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (pair.substr(0, eq) == key) return pair.substr(eq + 1);
  }
  return "";
}

std::string StorageStatsJson(const std::string& name,
                             const StorageStats& st) {
  const double ratio = (st.frozen_segments > 0 && st.encoded_bytes > 0)
                           ? static_cast<double>(st.plain_bytes_before) /
                                 static_cast<double>(st.encoded_bytes)
                           : 0.0;
  std::ostringstream os;
  os << "{\"table\":\"" << JsonEscape(name) << "\""
     << ",\"total_segments\":" << st.total_segments
     << ",\"frozen_segments\":" << st.frozen_segments
     << ",\"encoded_bytes\":" << st.encoded_bytes
     << ",\"plain_bytes_before\":" << st.plain_bytes_before
     << ",\"compression_ratio\":" << ratio
     << ",\"segments_frozen_total\":" << st.segments_frozen_total
     << ",\"thaw_count\":" << st.thaw_count << "}";
  return os.str();
}

}  // namespace

HttpDebugServer::HttpDebugServer(HttpDebugOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity == 0 ? 1 : options_.queue_capacity) {}

HttpDebugServer::~HttpDebugServer() { Stop(); }

Status HttpDebugServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("http server already started");
  }
  FUNGUSDB_ASSIGN_OR_RETURN(listener_,
                            ListenTcp(options_.host, options_.port));
  FUNGUSDB_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  const size_t handlers =
      options_.handler_threads == 0 ? 1 : options_.handler_threads;
  handlers_.reserve(handlers);
  for (size_t i = 0; i < handlers; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpDebugServer::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stopping_.store(true);
  // Unblock accept(); queued connections still get answered.
  ::shutdown(listener_.get(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  queue_.Close();
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  listener_.Reset();
}

void HttpDebugServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;
    }
    // A full queue closes the connection (clean EOF) — the plane's
    // explicit backpressure, mirroring the wire server's policy for
    // excess connects.
    queue_.TryPush(UniqueFd(fd));
  }
}

void HttpDebugServer::HandlerLoop() {
  while (std::optional<UniqueFd> conn = queue_.Pop()) {
    Handle(conn->get());
  }
}

void HttpDebugServer::Handle(int fd) {
  // A stalled or dead client must not wedge a handler slot.
  struct timeval timeout = {};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // timeout, EOF or reset — nothing to answer
    request.append(buf, static_cast<size_t>(n));
  }

  const uint64_t start_us = Tracer::NowMicros();
  FUNGUS_TRACE_SPAN("http.request");

  Response response;
  std::string path = "?";
  const size_t line_end = request.find("\r\n");
  const std::vector<std::string> parts =
      Split(request.substr(0, line_end), ' ');
  if (parts.size() != 3) {
    response = {400, "text/plain; charset=utf-8", "malformed request\n"};
  } else if (parts[0] != "GET") {
    response = {405, "text/plain; charset=utf-8", "GET only\n"};
  } else {
    std::string target = parts[1];
    std::string query;
    if (const size_t q = target.find('?'); q != std::string::npos) {
      query = target.substr(q + 1);
      target.resize(q);
    }
    path = target;
    response = Route(target, query);
  }

  // The plane meters itself on the database's registry; before
  // SetDatabase there is nowhere to record (and nothing to scrape).
  if (Database* db = db_.load(std::memory_order_acquire)) {
    MetricsRegistry& metrics = db->metrics();
    metrics.IncrementCounter("fungusdb.http.requests");
    metrics.IncrementCounter("fungusdb.http.requests", "path=" + path);
    metrics.RecordHistogram(
        "fungusdb.http.request_latency_us",
        static_cast<int64_t>(Tracer::NowMicros() - start_us));
    if (response.status >= 400) {
      metrics.IncrementCounter("fungusdb.http.errors",
                               "status=" + std::to_string(response.status));
    }
  }

  std::ostringstream head;
  head << "HTTP/1.1 " << response.status << " "
       << ReasonPhrase(response.status) << "\r\n"
       << "Content-Type: " << response.content_type << "\r\n"
       << "Content-Length: " << response.body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  // Best-effort: the client may already be gone, which is fine.
  const Status written = WriteAll(fd, head.str(), response.body);
  (void)written;
}

HttpDebugServer::Response HttpDebugServer::Route(const std::string& path,
                                                 const std::string& query) {
  if (path == "/healthz") return {200, "text/plain; charset=utf-8", "ok\n"};
  if (path == "/readyz") return Readyz();
  if (path == "/tracez") return Tracez(query);

  const bool needs_db = path == "/metrics" || path == "/varz" ||
                        path == "/rotz" || path == "/storagez";
  if (!needs_db) {
    return {404, "text/plain; charset=utf-8", "no such endpoint\n"};
  }
  Database* db = db_.load(std::memory_order_acquire);
  if (db == nullptr) {
    // Known endpoint, no database yet (startup replay still running):
    // unavailable, not missing, so scrapers retry rather than give up.
    return {503, "text/plain; charset=utf-8", "database not ready\n"};
  }
  if (path == "/metrics") return Metrics(*db);
  if (path == "/varz") return Varz(*db);
  if (path == "/rotz") return Rotz(*db, query);
  return Storagez(*db, query);
}

HttpDebugServer::Response HttpDebugServer::Readyz() {
  switch (readiness()) {
    case Readiness::kReady:
      return {200, "text/plain; charset=utf-8", "ready\n"};
    case Readiness::kStarting:
      return {503, "text/plain; charset=utf-8", "starting\n"};
    case Readiness::kDraining:
      break;
  }
  return {503, "text/plain; charset=utf-8", "draining\n"};
}

HttpDebugServer::Response HttpDebugServer::Metrics(Database& db) {
  // Refresh point-in-time process gauges at scrape time so /metrics and
  // /varz render the same registry values — one source of truth.
  UpdateProcessGauges(db.metrics(), options_.snapshot_path);
  db.metrics().SetGauge("fungusdb.exec.epoch",
                        static_cast<double>(db.epoch()));
  return {200, "text/plain; version=0.0.4; charset=utf-8",
          db.metrics().PrometheusReport()};
}

HttpDebugServer::Response HttpDebugServer::Varz(Database& db) {
  UpdateProcessGauges(db.metrics(), options_.snapshot_path);
  MetricsRegistry& metrics = db.metrics();
  std::ostringstream os;
  os << "{\"build\":{\"name\":\"fungusd\",\"compiler\":\""
     << JsonEscape(__VERSION__) << "\"}"
     << ",\"uptime_seconds\":"
     << metrics.GetGauge("fungusdb.process.uptime_seconds")
     << ",\"rss_bytes\":" << metrics.GetGauge("fungusdb.process.rss_bytes")
     << ",\"open_fds\":" << metrics.GetGauge("fungusdb.process.open_fds")
     << ",\"threads\":" << metrics.GetGauge("fungusdb.process.threads")
     << ",\"snapshot_age_seconds\":"
     << metrics.GetGauge("fungusdb.process.snapshot_age_seconds")
     << ",\"readiness\":\""
     << (readiness() == Readiness::kReady
             ? "ready"
             : readiness() == Readiness::kStarting ? "starting"
                                                   : "draining")
     << "\"";
  {
    // One pin for the composed snapshot: epoch, virtual now and table
    // list all come from the same published epoch.
    EpochManager::ReadPin pin(db.epochs());
    os << ",\"epoch\":" << db.epoch() << ",\"virtual_now_us\":" << db.Now()
       << ",\"tables\":" << db.TableNames().size();
  }
  os << ",\"read_workers\":"
     << metrics.GetGauge("fungusdb.server.read_workers")
     << ",\"connections_active\":"
     << metrics.GetGauge("fungusdb.server.connections_active")
     << ",\"queue_depth_high_water\":"
     << metrics.GetGauge("fungusdb.server.queue_depth_high_water")
     << ",\"http_requests\":"
     << metrics.GetCounter("fungusdb.http.requests") << "}\n";
  return {200, "application/json", os.str()};
}

HttpDebugServer::Response HttpDebugServer::Rotz(Database& db,
                                                const std::string& query) {
  const std::string only = QueryParam(query, "table");
  // One pin across the whole composition: the table list and every
  // report come from one published epoch, and the inner facade pins
  // (RotReportFor) are reentrant under it.
  EpochManager::ReadPin pin(db.epochs());
  std::vector<std::string> names;
  if (!only.empty()) {
    names.push_back(only);
  } else {
    names = db.TableNames();
  }
  std::ostringstream os;
  os << "{\"now_us\":" << db.Now() << ",\"tables\":[";
  bool first = true;
  for (const std::string& name : names) {
    Result<RotReport> report = db.RotReportFor(name);
    if (!report.ok()) {
      return {404, "text/plain; charset=utf-8",
              report.status().ToString() + "\n"};
    }
    if (!first) os << ",";
    first = false;
    os << report->ToJson();
  }
  os << "]}\n";
  return {200, "application/json", os.str()};
}

HttpDebugServer::Response HttpDebugServer::Storagez(
    Database& db, const std::string& query) {
  const std::string only = QueryParam(query, "table");
  EpochManager::ReadPin pin(db.epochs());
  std::vector<std::string> names;
  if (!only.empty()) {
    names.push_back(only);
  } else {
    names = db.TableNames();
  }
  std::ostringstream os;
  os << "{\"tables\":[";
  bool first = true;
  for (const std::string& name : names) {
    Result<TableHandle> table = db.GetTable(name);
    if (!table.ok()) {
      return {404, "text/plain; charset=utf-8",
              table.status().ToString() + "\n"};
    }
    if (!first) os << ",";
    first = false;
    os << StorageStatsJson(name, table->storage_stats());
  }
  os << "]}\n";
  return {200, "application/json", os.str()};
}

HttpDebugServer::Response HttpDebugServer::Tracez(const std::string& query) {
  int64_t ms = 250;
  const std::string arg = QueryParam(query, "ms");
  if (!arg.empty()) {
    const std::optional<int64_t> parsed = ParseInteger<int64_t>(arg);
    if (!parsed.has_value() || *parsed < 0 || *parsed > 10000) {
      return {400, "text/plain; charset=utf-8",
              "ms must be an integer in [0, 10000]\n"};
    }
    ms = *parsed;
  }
  // A capture owns the tracer for its window; if a client (or the
  // FUNGUSDB_TRACE env) already enabled tracing, export the live ring
  // without clearing or disabling it.
  const bool was_enabled = Tracer::enabled();
  if (!was_enabled) {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  if (!was_enabled) Tracer::Global().Disable();
  return {200, "application/json", Tracer::Global().ExportChromeJson()};
}

}  // namespace fungusdb::server
