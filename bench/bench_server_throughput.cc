// Experiment SRV — fungusd front-end throughput vs client count.
//
// Claim (concurrency PR): with the split execution model, read-only
// statements run on a pool of read workers under the database's read
// lock, so read throughput scales with the client count instead
// of being bounded by the single writer. Mutating statements still
// funnel through the one executor that owns the total order, so the
// mixed workload shows the old flat profile with overload answered as
// typed E:2002 refusals rather than latency collapse.
//
// Setup: per workload (read_only, mixed) and client count
// (1/4/16/64/256), a fresh in-process Server on an ephemeral loopback
// port. read_only runs filtered counts over a pre-populated table;
// mixed runs the historical 3:1 insert:select mix. Each client drives
// its own connection in lockstep request/response. Reported:
// wall-clock statements/sec, p50 and p99 per-statement worker latency
// (from the server's own histogram), and overload refusals.
//
// Scrape A/B (observability PR): the same 16-client read_only workload
// twice — once bare, once with the HTTP observability plane mounted
// and a client scraping GET /metrics at 1 Hz — to show the plane costs
// read throughput nothing material (CI bar: scrape_on/scrape_off
// >= 0.85; target is within 2%).

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "server/client.h"
#include "server/http_debug.h"
#include "server/server.h"

namespace fungusdb {
namespace {

constexpr int kStatementsPerClient = 200;
constexpr int kClientCounts[] = {1, 4, 16, 64, 256};
constexpr int kPrepopulatedRows = 2000;

struct Workload {
  const char* name;
  bool read_only;
};

constexpr Workload kWorkloads[] = {
    {"read_only", true},
    {"mixed", false},
};

std::string StatementFor(const Workload& workload, int client, int i) {
  if (workload.read_only) {
    // Filtered counts with a rotating predicate: every statement scans,
    // no two consecutive statements are byte-identical.
    return "SELECT count(*) AS n FROM t WHERE a < " +
           std::to_string((client * 37 + i * 13) % kPrepopulatedRows);
  }
  return i % 4 == 3 ? "SELECT count(*) AS n FROM t"
                    : "\\insert t " + std::to_string(client * 1000 + i);
}

/// One full GET /metrics scrape over a fresh connection, drained to
/// EOF like a real Prometheus client.
void ScrapeOnce(uint16_t http_port) {
  Result<server::UniqueFd> fd = server::ConnectTcp("127.0.0.1", http_port);
  if (!fd.ok()) return;
  const Status sent = server::WriteAll(
      fd.value().get(), "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n");
  (void)sent;
  char buffer[4096];
  while (::recv(fd.value().get(), buffer, sizeof(buffer), 0) > 0) {
  }
}

/// The 16-client read_only workload, long enough that a 1 Hz scraper
/// lands several full scrapes inside the measured window.
void RunScrapeLeg(bool with_scrape, bench::TablePrinter& printer) {
  constexpr int kClients = 16;
  constexpr int kStatements = 1500;
  const Workload& workload = kWorkloads[0];  // read_only

  server::ServerOptions options;
  options.queue_capacity = 2 * kClients + 8;
  options.max_connections = kClients + 8;
  auto srv = std::make_unique<server::Server>(std::make_unique<Database>(),
                                              options);
  FUNGUSDB_CHECK_OK(srv->database()
                        .CreateTable("t", Schema::Parse("(a int64)").value())
                        .status());
  for (int i = 0; i < kPrepopulatedRows; ++i) {
    FUNGUSDB_CHECK_OK(srv->database().Insert("t", {Value::Int64(i)}).status());
  }
  FUNGUSDB_CHECK_OK(srv->Start());

  server::HttpDebugServer http;
  std::atomic<bool> stop{false};
  std::thread scraper;
  if (with_scrape) {
    FUNGUSDB_CHECK_OK(http.Start());
    http.SetDatabase(&srv->database());
    http.SetReadiness(server::HttpDebugServer::Readiness::kReady);
    scraper = std::thread([&http, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        ScrapeOnce(http.port());
        for (int i = 0; i < 10 && !stop.load(std::memory_order_acquire);
             ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }
    });
  }

  std::mutex mu;
  uint64_t completed = 0;
  bench::Stopwatch clock;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::Client client =
          server::Client::Connect("127.0.0.1", srv->port()).value();
      uint64_t my_completed = 0;
      for (int i = 0; i < kStatements; ++i) {
        if (client.ExecuteOne(StatementFor(workload, c, i)).ok()) {
          ++my_completed;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      completed += my_completed;
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = clock.ElapsedMicros() / 1e6;

  if (with_scrape) {
    stop.store(true, std::memory_order_release);
    scraper.join();
    http.Stop();
  }

  const HistogramMetric* latency = srv->database().metrics().FindHistogram(
      "fungusdb.server.statement_latency_us");
  const double p50_us = latency != nullptr ? latency->Quantile(0.5) : 0.0;
  const double p99_us = latency != nullptr ? latency->Quantile(0.99) : 0.0;
  srv->Stop();

  const uint64_t total = static_cast<uint64_t>(kClients) * kStatements;
  printer.PrintRow({with_scrape ? "scrape_on" : "scrape_off",
                    bench::Fmt(static_cast<uint64_t>(kClients)),
                    bench::Fmt(total), bench::Fmt(seconds, 3),
                    bench::Fmt(completed / seconds, 0),
                    bench::Fmt(p50_us, 1), bench::Fmt(p99_us, 1),
                    bench::Fmt(uint64_t{0})});
}

void Run() {
  bench::Banner("SRV", "server throughput: statements/sec vs client count");
  bench::JsonReport report("server");

  bench::TablePrinter printer(
      {"workload", "clients", "statements", "seconds", "stmts_per_s",
       "latency_p50_us", "latency_p99_us", "overloaded"},
      16);
  printer.MirrorTo(&report);
  printer.PrintHeader();

  for (const Workload& workload : kWorkloads) {
    for (const int num_clients : kClientCounts) {
      server::ServerOptions options;
      options.queue_capacity = 2 * static_cast<size_t>(num_clients) + 8;
      options.max_connections = static_cast<size_t>(num_clients) + 8;
      auto srv = std::make_unique<server::Server>(
          std::make_unique<Database>(), options);
      FUNGUSDB_CHECK_OK(
          srv->database()
              .CreateTable("t", Schema::Parse("(a int64)").value())
              .status());
      if (workload.read_only) {
        for (int i = 0; i < kPrepopulatedRows; ++i) {
          FUNGUSDB_CHECK_OK(
              srv->database().Insert("t", {Value::Int64(i)}).status());
        }
      }
      FUNGUSDB_CHECK_OK(srv->Start());

      std::mutex mu;
      uint64_t completed = 0;
      uint64_t overloaded = 0;

      bench::Stopwatch clock;
      std::vector<std::thread> clients;
      clients.reserve(num_clients);
      for (int c = 0; c < num_clients; ++c) {
        clients.emplace_back([&, c] {
          server::Client client =
              server::Client::Connect("127.0.0.1", srv->port()).value();
          uint64_t my_completed = 0;
          uint64_t my_overloaded = 0;
          for (int i = 0; i < kStatementsPerClient; ++i) {
            const Result<ResultSet> result =
                client.ExecuteOne(StatementFor(workload, c, i));
            if (result.ok()) {
              ++my_completed;
            } else if (result.status().error_code() ==
                       ErrorCode::kOverloaded) {
              ++my_overloaded;
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          completed += my_completed;
          overloaded += my_overloaded;
        });
      }
      for (std::thread& t : clients) t.join();
      const double seconds = clock.ElapsedMicros() / 1e6;

      const HistogramMetric* latency =
          srv->database().metrics().FindHistogram(
              "fungusdb.server.statement_latency_us");
      const double p50_us = latency != nullptr ? latency->Quantile(0.5) : 0.0;
      const double p99_us =
          latency != nullptr ? latency->Quantile(0.99) : 0.0;
      srv->Stop();

      const uint64_t total =
          static_cast<uint64_t>(num_clients) * kStatementsPerClient;
      printer.PrintRow({workload.name,
                        bench::Fmt(static_cast<uint64_t>(num_clients)),
                        bench::Fmt(total), bench::Fmt(seconds, 3),
                        bench::Fmt(completed / seconds, 0),
                        bench::Fmt(p50_us, 1), bench::Fmt(p99_us, 1),
                        bench::Fmt(overloaded)});
    }
  }

  // Scrape A/B: same read path, with and without a live 1 Hz
  // Prometheus scraper against the mounted HTTP plane.
  RunScrapeLeg(/*with_scrape=*/false, printer);
  RunScrapeLeg(/*with_scrape=*/true, printer);

  report.Write();
}

}  // namespace
}  // namespace fungusdb

int main() {
  fungusdb::Run();
  return 0;
}
