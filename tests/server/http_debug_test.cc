#include "server/http_debug.h"

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <string>

#include "common/trace.h"
#include "core/database.h"
#include "server/socket.h"

namespace fungusdb::server {
namespace {

Schema SharedSchema() {
  return Schema::Make({{"a", DataType::kInt64, false}}).value();
}

struct HttpResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

/// One-shot HTTP GET: sends the request, reads to EOF (the plane always
/// answers Connection: close), splits status/headers/body.
HttpResponse Get(uint16_t port, const std::string& target) {
  UniqueFd fd = ConnectTcp("127.0.0.1", port).value();
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n";
  FUNGUSDB_CHECK_OK(WriteAll(fd.get(), request));

  std::string raw;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }

  HttpResponse response;
  // "HTTP/1.1 200 OK\r\n..."
  const size_t space = raw.find(' ');
  if (space != std::string::npos) {
    response.status = std::stoi(raw.substr(space + 1));
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    response.headers = raw.substr(0, split);
    response.body = raw.substr(split + 4);
  }
  return response;
}

TEST(HttpDebugTest, HealthzAlwaysOkReadyzTracksReadiness) {
  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());

  EXPECT_EQ(Get(http.port(), "/healthz").status, 200);
  // Boots in kStarting: not ready yet.
  EXPECT_EQ(Get(http.port(), "/readyz").status, 503);

  http.SetReadiness(HttpDebugServer::Readiness::kReady);
  EXPECT_EQ(Get(http.port(), "/readyz").status, 200);

  http.SetReadiness(HttpDebugServer::Readiness::kDraining);
  const HttpResponse draining = Get(http.port(), "/readyz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("draining"), std::string::npos);
  // Health stays green during the drain window so orchestrators don't
  // kill the process mid-drain; only rotation (readiness) flips.
  EXPECT_EQ(Get(http.port(), "/healthz").status, 200);
}

TEST(HttpDebugTest, DatabaseEndpointsAnswer503UntilAttached) {
  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());

  for (const char* path : {"/metrics", "/varz", "/rotz", "/storagez"}) {
    const HttpResponse response = Get(http.port(), path);
    EXPECT_EQ(response.status, 503) << path;
  }

  Database db;
  http.SetDatabase(&db);
  for (const char* path : {"/metrics", "/varz", "/rotz", "/storagez"}) {
    EXPECT_EQ(Get(http.port(), path).status, 200) << path;
  }

  // The uptime anchor binds at static init, so even the very first
  // process-gauge reader sees real process age, never ~0 or negative.
  const std::string varz = Get(http.port(), "/varz").body;
  EXPECT_NE(varz.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_EQ(varz.find("\"uptime_seconds\":-"), std::string::npos);
  EXPECT_EQ(varz.find("\"uptime_seconds\":0,"), std::string::npos);
}

TEST(HttpDebugTest, MetricsExportsCumulativeBucketSeries) {
  Database db;
  FUNGUSDB_CHECK_OK(db.CreateTable("t", SharedSchema()).status());
  FUNGUSDB_CHECK_OK(db.Insert("t", {Value::Int64(1)}).status());
  FUNGUSDB_CHECK_OK(db.ExecuteSql("SELECT count(*) AS n FROM t").status());
  // The embedded read path records no histograms (pin-wait attribution
  // lives in the server Session); seed one so the scrape has buckets.
  db.metrics().RecordHistogram("fungusdb.query.pin_wait_us", 100);

  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());
  http.SetDatabase(&db);

  const HttpResponse response = Get(http.port(), "/metrics");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  // Real histogram buckets, not quantile summaries.
  EXPECT_NE(response.body.find("_bucket{"), std::string::npos);
  EXPECT_NE(response.body.find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(response.body.find("quantile="), std::string::npos);
  // The process gauges are refreshed on every scrape.
  EXPECT_NE(response.body.find("fungusdb_process_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(response.body.find("fungusdb_process_rss_bytes"),
            std::string::npos);
  // Scrapes count themselves.
  const HttpResponse again = Get(http.port(), "/metrics");
  EXPECT_NE(
      again.body.find("fungusdb_http_requests{path=\"/metrics\"}"),
      std::string::npos);
}

TEST(HttpDebugTest, RotzAndStoragezReturnPerTableJson) {
  Database db;
  FUNGUSDB_CHECK_OK(db.CreateTable("t", SharedSchema()).status());
  for (int i = 0; i < 10; ++i) {
    FUNGUSDB_CHECK_OK(db.Insert("t", {Value::Int64(i)}).status());
  }
  FUNGUSDB_CHECK_OK(db.AdvanceTime(kHour).status());

  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());
  http.SetDatabase(&db);

  const HttpResponse rotz = Get(http.port(), "/rotz");
  ASSERT_EQ(rotz.status, 200);
  EXPECT_NE(rotz.headers.find("application/json"), std::string::npos);
  EXPECT_NE(rotz.body.find("\"table\":\"t\""), std::string::npos);
  EXPECT_NE(rotz.body.find("\"live_tuples\":10"), std::string::npos);
  EXPECT_NE(rotz.body.find("\"fold_ratio\""), std::string::npos);
  EXPECT_NE(rotz.body.find("\"tier_map\""), std::string::npos);

  const HttpResponse storagez = Get(http.port(), "/storagez");
  ASSERT_EQ(storagez.status, 200);
  EXPECT_NE(storagez.body.find("\"table\":\"t\""), std::string::npos);
  EXPECT_NE(storagez.body.find("\"total_segments\""), std::string::npos);
  EXPECT_NE(storagez.body.find("\"frozen_segments\""), std::string::npos);

  // The ?table= filter narrows, and misses are a 404 not an empty list.
  EXPECT_EQ(Get(http.port(), "/rotz?table=t").status, 200);
  EXPECT_EQ(Get(http.port(), "/rotz?table=nope").status, 404);
  EXPECT_EQ(Get(http.port(), "/storagez?table=nope").status, 404);
}

TEST(HttpDebugTest, TracezCapturesAWindowAndRestoresTracerState) {
  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());

  ASSERT_FALSE(Tracer::Global().enabled());
  const HttpResponse trace = Get(http.port(), "/tracez?ms=50");
  ASSERT_EQ(trace.status, 200);
  EXPECT_NE(trace.headers.find("application/json"), std::string::npos);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);
  // The capture window is transient: the tracer is off again after.
  EXPECT_FALSE(Tracer::Global().enabled());
  // The window is a whole integer in [0, 10000] ms.
  for (const char* bad : {"/tracez?ms=-1", "/tracez?ms=10001",
                          "/tracez?ms=99999999999999999999", "/tracez?ms=5x"}) {
    EXPECT_EQ(Get(http.port(), bad).status, 400) << bad;
  }
}

TEST(HttpDebugTest, RejectsUnknownPathsAndMethods) {
  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());

  EXPECT_EQ(Get(http.port(), "/nope").status, 404);

  UniqueFd fd = ConnectTcp("127.0.0.1", http.port()).value();
  FUNGUSDB_CHECK_OK(
      WriteAll(fd.get(), "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
  char chunk[512];
  std::string raw;
  while (true) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_NE(raw.find("405"), std::string::npos);
}

TEST(HttpDebugTest, StartStopIsIdempotentAndRestartIsRejected) {
  HttpDebugServer http;
  FUNGUSDB_CHECK_OK(http.Start());
  const uint16_t port = http.port();
  EXPECT_GT(port, 0);
  EXPECT_FALSE(http.Start().ok());  // already started
  http.Stop();
  http.Stop();  // idempotent
}

}  // namespace
}  // namespace fungusdb::server
