// fungusd — the FungusDB network daemon.
//
//   ./build/tools/fungusd --port 7464 --snapshot /var/lib/fungus.snap
//
// Serves the FungusDB wire protocol (see src/server/wire_format.h) over
// TCP. Clients connect with `fungusql --connect host:port` or the
// Client library. SIGTERM/SIGINT drain every admitted request, then
// snapshot (when --snapshot is given) and exit 0 — kill -TERM is the
// supported way to stop a production fungusd.
//
// Flags:
//   --host <addr>          bind address            (default 127.0.0.1)
//   --port <n>             TCP port; 0 = ephemeral (default 7464)
//   --port-file <path>     write the bound port here once listening
//                          (for scripts using --port 0)
//   --queue-capacity <n>   admitted-but-unexecuted request bound; a
//                          full queue answers E:2002 Overloaded
//   --max-connections <n>  simultaneous client connections
//   --read-workers <n>     read worker pool size, -1..64; -1 = auto
//                          (CPUs in the affinity mask, capped at 8),
//                          0 = writer-only execution
//   --snapshot <path>      load at boot when present; saved on shutdown
//   --http-port <n>        mount the HTTP observability plane here
//                          (0 = ephemeral); omitted = no HTTP plane.
//                          Serves /metrics /healthz /readyz /rotz
//                          /storagez /tracez /varz (DESIGN.md §16)
//   --http-port-file <path> write the bound HTTP port here
//   --drain-grace-ms <n>   on SIGTERM, keep serving (with /readyz 503)
//                          this long before draining the wire queues —
//                          the window a load balancer needs to rotate
//                          the node out (default 0)
//
// Environment: FUNGUSDB_TRACE (any value but "0") enables the span
// tracer at boot — same as a client sending \trace on. Dump the ring
// any time with `fungusql --connect ...` and `\trace dump <file>`, or
// capture a live window over HTTP with GET /tracez?ms=N.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "fungusdb/common.h"
#include "fungusdb/database.h"
#include "fungusdb/persist.h"
#include "server/http_debug.h"
#include "server/server.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host addr] [--port n] [--port-file path]\n"
               "          [--queue-capacity n] [--max-connections n]\n"
               "          [--read-workers n] [--snapshot path]\n"
               "          [--http-port n] [--http-port-file path]\n"
               "          [--drain-grace-ms n]\n",
               argv0);
  return 2;
}

/// Parses a flag's value into `out`; false on malformed, signed-unsigned
/// or out-of-range text, so the caller answers with the usage line.
template <typename T>
bool ParseFlag(const char* text, T& out) {
  const std::optional<T> value = fungusdb::ParseInteger<T>(text);
  if (value.has_value()) out = *value;
  return value.has_value();
}

bool WritePortFile(const std::string& path, uint16_t port) {
  std::ofstream out(path, std::ios::trunc);
  out << port << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  fungusdb::server::ServerOptions options;
  options.port = 7464;
  std::string port_file;
  std::optional<uint16_t> http_port;  // nullopt = HTTP plane disabled
  std::string http_port_file;
  uint32_t drain_grace_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--host" && has_value) {
      options.host = argv[++i];
    } else if (arg == "--port" && has_value) {
      if (!ParseFlag(argv[++i], options.port)) return Usage(argv[0]);
    } else if (arg == "--port-file" && has_value) {
      port_file = argv[++i];
    } else if (arg == "--queue-capacity" && has_value) {
      if (!ParseFlag(argv[++i], options.queue_capacity)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--max-connections" && has_value) {
      if (!ParseFlag(argv[++i], options.max_connections)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--read-workers" && has_value) {
      // -1 (auto) up to 64: each worker is an OS thread.
      if (!ParseFlag(argv[++i], options.read_workers) ||
          options.read_workers < -1 || options.read_workers > 64) {
        return Usage(argv[0]);
      }
    } else if (arg == "--snapshot" && has_value) {
      options.snapshot_path = argv[++i];
    } else if (arg == "--http-port" && has_value) {
      if (!ParseFlag(argv[++i], http_port.emplace())) return Usage(argv[0]);
    } else if (arg == "--http-port-file" && has_value) {
      http_port_file = argv[++i];
    } else if (arg == "--drain-grace-ms" && has_value) {
      if (!ParseFlag(argv[++i], drain_grace_ms)) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }

  if (const char* trace = std::getenv("FUNGUSDB_TRACE");
      trace != nullptr && std::strcmp(trace, "0") != 0) {
    fungusdb::Tracer::Global().Enable();
  }

  // Signals are handled synchronously via sigwait on the main thread;
  // block them BEFORE any server thread exists so the mask is
  // inherited and no worker ever takes the hit.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  // The HTTP plane comes up BEFORE snapshot replay so /healthz answers
  // (and /readyz reports "starting") while a large snapshot loads.
  std::unique_ptr<fungusdb::server::HttpDebugServer> http;
  if (http_port.has_value()) {
    fungusdb::server::HttpDebugOptions http_options;
    http_options.host = options.host;
    http_options.port = *http_port;
    http_options.snapshot_path = options.snapshot_path;
    http = std::make_unique<fungusdb::server::HttpDebugServer>(http_options);
    const fungusdb::Status http_started = http->Start();
    if (!http_started.ok()) {
      std::fprintf(stderr, "fungusd: http: %s\n",
                   http_started.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "fungusd: http plane on port %u\n", http->port());
    if (!http_port_file.empty() &&
        !WritePortFile(http_port_file, http->port())) {
      std::fprintf(stderr, "fungusd: cannot write %s\n",
                   http_port_file.c_str());
      return 1;
    }
  }

  std::unique_ptr<fungusdb::Database> db;
  if (!options.snapshot_path.empty() &&
      std::filesystem::exists(options.snapshot_path)) {
    auto loaded = fungusdb::LoadDatabaseSnapshot(options.snapshot_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "fungusd: cannot load snapshot %s: %s\n",
                   options.snapshot_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded).value();
    std::fprintf(stderr, "fungusd: restored snapshot %s\n",
                 options.snapshot_path.c_str());
  } else {
    db = std::make_unique<fungusdb::Database>();
  }

  const std::string snapshot_path = options.snapshot_path;
  fungusdb::server::Server server(std::move(db), std::move(options));
  const fungusdb::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "fungusd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "fungusd: listening on port %u\n", server.port());
  if (!port_file.empty() && !WritePortFile(port_file, server.port())) {
    std::fprintf(stderr, "fungusd: cannot write %s\n", port_file.c_str());
    server.Stop();
    return 1;
  }
  if (http != nullptr) {
    http->SetDatabase(&server.database());
    http->SetReadiness(
        fungusdb::server::HttpDebugServer::Readiness::kReady);
  }

  int caught = 0;
  sigwait(&signals, &caught);
  std::fprintf(stderr, "fungusd: %s — draining\n", strsignal(caught));
  if (http != nullptr) {
    // Flip /readyz to 503 first, then hold the grace window so load
    // balancers rotate the node out while it still answers cleanly.
    http->SetReadiness(
        fungusdb::server::HttpDebugServer::Readiness::kDraining);
    if (drain_grace_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(drain_grace_ms));
    }
  }
  server.Stop();
  if (http != nullptr) http->Stop();
  if (!snapshot_path.empty()) {
    std::fprintf(stderr, "fungusd: snapshot saved to %s\n",
                 snapshot_path.c_str());
  }
  std::fprintf(stderr, "fungusd: bye\n");
  return 0;
}
