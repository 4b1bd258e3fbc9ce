#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/meta_commands.h"
#include "fungus/retention_fungus.h"
#include "persist/snapshot.h"
#include "server/client.h"

namespace fungusdb::server {
namespace {

Schema SharedSchema() {
  return Schema::Make({{"a", DataType::kInt64, false}}).value();
}

std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
  auto server =
      std::make_unique<Server>(std::make_unique<Database>(), options);
  FUNGUSDB_CHECK_OK(server->Start());
  return server;
}

Client ConnectTo(const Server& server) {
  return Client::Connect("127.0.0.1", server.port()).value();
}

TEST(ServerTest, ServesSqlOverTheWire) {
  std::unique_ptr<Server> server = StartServer();
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  FUNGUSDB_CHECK_OK(
      server->database().Insert("t", {Value::Int64(41)}).status());

  Client client = ConnectTo(*server);
  const ResultSet rs =
      client.ExecuteOne("SELECT count(*) AS n FROM t").value();
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 1);
}

TEST(ServerTest, ErrorsCarryStableCodesAcrossTheWire) {
  std::unique_ptr<Server> server = StartServer();
  Client client = ConnectTo(*server);

  const Status missing =
      client.ExecuteOne("SELECT * FROM nope").status();
  EXPECT_EQ(missing.error_code(), ErrorCode::kTableNotFound);
  EXPECT_EQ(missing.ErrorLabel(), "E:1203 TableNotFound");

  const Status parse = client.ExecuteOne("SELEC oops").status();
  EXPECT_EQ(parse.code(), StatusCode::kParseError);
}

TEST(ServerTest, MetaCommandsRunRemotely) {
  std::unique_ptr<Server> server = StartServer();
  Client client = ConnectTo(*server);

  EXPECT_TRUE(client.ExecuteOne("\\create t (a int64, b string null)").ok());
  const ResultSet inserted =
      client.ExecuteOne("\\insert t 7,spore").value();
  EXPECT_EQ(inserted.at(0, 0).AsInt64(), 0);  // first row id

  const ResultSet tables = client.ExecuteOne("\\tables").value();
  ASSERT_EQ(tables.num_rows(), 1u);
  EXPECT_EQ(tables.at(0, 0).AsString(), "t");
  EXPECT_EQ(tables.at(0, 2).AsInt64(), 1);

  const ResultSet health = client.ExecuteOne("\\health").value();
  EXPECT_NE(health.at(0, 0).AsString().find("table t"), std::string::npos);

  EXPECT_TRUE(client.ExecuteOne("\\advance 2h").ok());
  const ResultSet now = client.ExecuteOne("\\now").value();
  EXPECT_EQ(now.at(0, 0).AsString(), "2h");

  EXPECT_TRUE(client.ExecuteOne("\\fsck").ok());
  const Status unknown = client.ExecuteOne("\\nosuchcommand").status();
  EXPECT_EQ(unknown.error_code(), ErrorCode::kInvalidArgument);
}

TEST(ServerTest, BatchKeepsPerStatementResultsAligned) {
  std::unique_ptr<Server> server = StartServer();
  Client client = ConnectTo(*server);

  const std::vector<Result<ResultSet>> results =
      client
          .Execute({"\\create t (a int64)", "SELECT * FROM nope",
                    "\\insert t 5", "SELECT count(*) AS n FROM t"})
          .value();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().error_code(), ErrorCode::kTableNotFound);
  EXPECT_TRUE(results[2].ok());  // the batch continued past the failure
  EXPECT_EQ(results[3].value().at(0, 0).AsInt64(), 1);
}

TEST(ServerTest, FullQueueAnswersTypedOverload) {
  ServerOptions options;
  options.queue_capacity = 0;  // every request finds the queue full
  std::unique_ptr<Server> server = StartServer(options);
  Client client = ConnectTo(*server);

  const std::vector<Result<ResultSet>> results =
      client.Execute({"SELECT 1", "\\now"}).value();
  ASSERT_EQ(results.size(), 2u);  // one typed refusal per statement
  for (const Result<ResultSet>& result : results) {
    EXPECT_EQ(result.status().error_code(), ErrorCode::kOverloaded);
  }
  EXPECT_GE(server->database().metrics().GetCounter(
                "fungusdb.server.requests_overloaded"),
            1);
}

TEST(ServerTest, ExpiredDeadlineAnswersTypedTimeout) {
  std::unique_ptr<Server> server = StartServer();
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  Client client = ConnectTo(*server);

  // A 1-microsecond budget cannot cover 64 statements; the deadline is
  // re-checked before each one, so the tail must come back kTimeout.
  // The insert batch is one run on the writer: the deadline is checked
  // per row while parsing, and a row past it is not appended.
  std::vector<std::string> inserts;
  for (int i = 0; i < 64; ++i) {
    inserts.push_back("\\insert t " + std::to_string(i));
  }
  const std::vector<std::string> selects(64, "SELECT count(*) FROM t");
  int64_t timeouts = 0;
  for (const bool insert_batch : {false, true}) {
    const std::vector<std::string>& statements =
        insert_batch ? inserts : selects;
    const std::vector<Result<ResultSet>> results =
        client.Execute(statements, /*deadline_micros=*/1).value();
    ASSERT_EQ(results.size(), statements.size());
    EXPECT_EQ(results.back().status().error_code(), ErrorCode::kTimeout);
    EXPECT_EQ(server->database().metrics().GetCounter(
                  "fungusdb.server.requests_timeout"),
              ++timeouts);
    int64_t ok = 0;
    for (const Result<ResultSet>& result : results) ok += result.ok() ? 1 : 0;
    const ResultSet count =
        client.ExecuteOne("SELECT count(*) AS n FROM t").value();
    EXPECT_EQ(count.at(0, 0).AsInt64(), insert_batch ? ok : 0);
  }
}

TEST(ServerTest, MalformedPayloadGetsWireFormatAnswer) {
  std::unique_ptr<Server> server = StartServer();
  UniqueFd fd = ConnectTcp("127.0.0.1", server->port()).value();
  // A correctly framed request whose payload is garbage.
  FUNGUSDB_CHECK_OK(
      WriteFrame(fd.get(), FrameType::kStatementRequest, "not a request"));
  const Frame frame = ReadFrame(fd.get()).value();
  const StatementResponse response =
      DecodeStatementResponse(frame.payload).value();
  EXPECT_EQ(response.request_id, 0u);
  ASSERT_EQ(response.results.size(), 1u);
  EXPECT_FALSE(response.results[0].ok());
  // The server then drops the connection: the stream is untrusted.
  EXPECT_FALSE(ReadFrame(fd.get()).ok());
}

TEST(ServerTest, GarbageBytesDropTheConnection) {
  std::unique_ptr<Server> server = StartServer();
  UniqueFd fd = ConnectTcp("127.0.0.1", server->port()).value();
  FUNGUSDB_CHECK_OK(WriteAll(fd.get(), std::string(64, 'Z')));
  EXPECT_FALSE(ReadFrame(fd.get()).ok());

  // And the server is still healthy for well-behaved clients.
  Client client = ConnectTo(*server);
  EXPECT_TRUE(client.ExecuteOne("\\now").ok());
}

TEST(ServerTest, StopDrainsThenSnapshots) {
  const std::string path = ::testing::TempDir() + "/fungusd_stop.snap";
  ServerOptions options;
  options.snapshot_path = path;
  std::unique_ptr<Server> server = StartServer(options);
  Client client = ConnectTo(*server);
  FUNGUSDB_CHECK_OK(client.ExecuteOne("\\create t (a int64)").status());
  FUNGUSDB_CHECK_OK(client.ExecuteOne("\\insert t 11").status());
  FUNGUSDB_CHECK_OK(client.ExecuteOne("\\insert t 12").status());
  server->Stop();

  // Everything acknowledged before Stop() is in the snapshot.
  std::unique_ptr<Database> restored =
      LoadDatabaseSnapshot(path).value();
  EXPECT_EQ(restored->GetTable("t").value().live_rows(), 2u);

  // The dead server answers nothing.
  EXPECT_FALSE(client.ExecuteOne("\\now").ok());
}

// The acceptance smoke: 64 clients x 100 statements against one
// shared table, with decay ticks interleaved and a read worker pool
// serving the SELECTs concurrently with the writer. Every response
// must arrive on the right connection (the client checks request ids),
// no insert may be lost or duplicated (row ids are checked for global
// uniqueness), and the database must pass Fsck() afterwards. Run
// under TSan with FUNGUSDB_CHECK_AFTER_TICK=1 in CI's server job.
TEST(ServerSmokeTest, SixtyFourClientsHundredStatements) {
  constexpr int kClients = 64;
  constexpr int kStatements = 100;

  ServerOptions options;
  options.queue_capacity = 2 * kClients;  // never overload: one
                                          // outstanding request per client
  options.read_workers = 4;  // SELECTs race the writer's decay ticks
  std::unique_ptr<Server> server = StartServer(options);
  Database& db = server->database();
  FUNGUSDB_CHECK_OK(db.CreateTable("shared", SharedSchema()).status());
  // A fungus that never kills anything, so every tick exercises the
  // decay machinery (and CHECK AFTER TICK, when armed) without
  // invalidating the row-count ledger.
  FUNGUSDB_CHECK_OK(db.AttachFungus(
                          "shared",
                          std::make_unique<RetentionFungus>(365 * kDay),
                          /*period=*/kSecond)
                        .status());

  std::mutex mu;
  std::set<int64_t> row_ids;
  std::vector<std::string> failures;
  uint64_t inserts_acked = 0;

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<Client> client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        failures.push_back(client.status().ToString());
        return;
      }
      for (int i = 0; i < kStatements; ++i) {
        const bool tick = i % 10 == 9;
        const bool select = i % 10 == 4;  // read path, racing the ticks
        const std::string statement =
            tick ? "\\advance 1s"
            : select
                ? "SELECT count(*) AS n FROM shared"
                : "\\insert shared " + std::to_string(c * 1000 + i);
        Result<ResultSet> result = client.value().ExecuteOne(statement);
        std::lock_guard<std::mutex> lock(mu);
        if (!result.ok()) {
          failures.push_back(statement + ": " + result.status().ToString());
          return;
        }
        if (select) {
          // Nothing ever dies (retention is a year), so a pinned count
          // can never exceed the inserts acknowledged so far.
          const auto n =
              static_cast<uint64_t>(result.value().at(0, 0).AsInt64());
          if (n > inserts_acked + kClients) {
            failures.push_back("count " + std::to_string(n) +
                               " exceeds acked inserts " +
                               std::to_string(inserts_acked));
            return;
          }
        } else if (!tick) {
          ++inserts_acked;
          const int64_t row_id = result.value().at(0, 0).AsInt64();
          if (!row_ids.insert(row_id).second) {
            failures.push_back("duplicate row id " +
                               std::to_string(row_id));
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_TRUE(failures.empty())
      << failures.size() << " failures, first: " << failures[0];
  EXPECT_EQ(inserts_acked, static_cast<uint64_t>(kClients) * 80);
  EXPECT_EQ(row_ids.size(), inserts_acked);  // none lost, none duplicated

  // One more client confirms the server-side ledger agrees.
  Client auditor = ConnectTo(*server);
  const ResultSet count =
      auditor.ExecuteOne("SELECT count(*) AS n FROM shared").value();
  EXPECT_EQ(static_cast<uint64_t>(count.at(0, 0).AsInt64()), inserts_acked);
  EXPECT_TRUE(auditor.ExecuteOne("\\fsck").ok());

  server->Stop();
  EXPECT_TRUE(db.Fsck().violations.empty());
  EXPECT_EQ(db.GetTable("shared").value().live_rows(), inserts_acked);
  // The SELECTs really took the read path.
  EXPECT_GE(db.metrics().GetCounter("fungusdb.server.requests_read_path"),
            1);
  EXPECT_GE(db.metrics().GetCounter("fungusdb.server.statements_total",
                                    "worker=writer"),
            1);
}

TEST(ServerReadWorkerTest, ZeroWorkersFallsBackToTheWriter) {
  ServerOptions options;
  options.read_workers = 0;  // the pre-split single-executor model
  std::unique_ptr<Server> server = StartServer(options);
  EXPECT_EQ(server->num_read_workers(), 0u);
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  FUNGUSDB_CHECK_OK(
      server->database().Insert("t", {Value::Int64(1)}).status());

  Client client = ConnectTo(*server);
  const ResultSet rs =
      client.ExecuteOne("SELECT count(*) AS n FROM t").value();
  EXPECT_EQ(rs.at(0, 0).AsInt64(), 1);
  EXPECT_EQ(server->database().metrics().GetCounter(
                "fungusdb.server.requests_read_path"),
            0);
}

// Both executors hand the statement text and their queue wait to the
// one execute body: every SQL statement of a batch logs one slow-query
// line quoting it, whether a read worker, the writer running the
// classifier's parse or the writer parsing it itself ran it.
TEST(ServerReadWorkerTest, EveryExecutorWritesTheSlowQueryLine) {
  for (const int read_workers : {0, 2}) {
    ServerOptions options;
    options.read_workers = read_workers;
    auto server =
        std::make_unique<Server>(std::make_unique<Database>(), options);
    Database& db = server->database();
    FUNGUSDB_CHECK_OK(db.CreateTable("t", SharedSchema()).status());
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < 20000; ++i) rows.push_back({Value::Int64(i)});
    for (const Result<RowId>& id : db.Insert("t", rows)) {
      FUNGUSDB_CHECK_OK(id.status());
    }
    db.set_slow_query_micros(1);
    FUNGUSDB_CHECK_OK(server->Start());

    const std::vector<std::string> read = {
        "SELECT count(*) AS n FROM t WHERE a >= 0"};
    const std::vector<std::string> mixed = {
        "SELECT count(*) AS n FROM t WHERE a >= 1",
        "CONSUME SELECT * FROM t WHERE a < 10",
        "SELECT count(*) AS n FROM t WHERE a >= 2"};
    testing::internal::CaptureStderr();
    {
      Client client = ConnectTo(*server);
      const std::vector<Result<ResultSet>> read_answers =
          client.Execute(read).value();
      const std::vector<Result<ResultSet>> mixed_answers =
          client.Execute(mixed).value();
      ASSERT_TRUE(read_answers[0].ok());
      EXPECT_EQ(read_answers[0]->at(0, 0).AsInt64(), 20000);
      ASSERT_EQ(mixed_answers.size(), 3u);
      for (const Result<ResultSet>& answer : mixed_answers) {
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      }
      EXPECT_EQ(mixed_answers[0]->at(0, 0).AsInt64(), 19999);
      EXPECT_EQ(mixed_answers[1]->num_rows(), 10u);
      EXPECT_EQ(mixed_answers[2]->at(0, 0).AsInt64(), 19990);
    }
    server->Stop();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(db.metrics().GetCounter("fungusdb.query.slow", "table=t"), 4)
        << "read_workers=" << read_workers;
    for (const std::vector<std::string>* batch : {&read, &mixed}) {
      for (const std::string& sql : *batch) {
        const size_t at = log.find(" sql=" + sql + "\n");
        ASSERT_NE(at, std::string::npos) << sql << "\n" << log;
        const size_t line = log.rfind("slow-query ", at);
        ASSERT_NE(line, std::string::npos);
        EXPECT_NE(log.find(" queue_us=", line), std::string::npos);
      }
    }
  }
}

TEST(ServerReadWorkerTest, ReadOnlyBatchesRouteToTheReadPool) {
  ServerOptions options;
  options.read_workers = 2;
  std::unique_ptr<Server> server = StartServer(options);
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  FUNGUSDB_CHECK_OK(
      server->database().Insert("t", {Value::Int64(7)}).status());

  Client client = ConnectTo(*server);
  // All read-only: SQL and read-only registry meta commands.
  const std::vector<Result<ResultSet>> reads =
      client
          .Execute({"SELECT count(*) AS n FROM t", "\\now", "\\health",
                    "\\tables"})
          .value();
  for (const Result<ResultSet>& r : reads) EXPECT_TRUE(r.ok());
  // One mutating statement sends the whole batch to the writer.
  const std::vector<Result<ResultSet>> mixed =
      client
          .Execute({"SELECT count(*) AS n FROM t", "\\insert t 8"})
          .value();
  for (const Result<ResultSet>& r : mixed) EXPECT_TRUE(r.ok());

  MetricsRegistry& metrics = server->database().metrics();
  EXPECT_EQ(metrics.GetCounter("fungusdb.server.requests_read_path"), 1);
  const int64_t read_statements =
      metrics.GetCounter("fungusdb.server.statements_total",
                         "worker=read-0") +
      metrics.GetCounter("fungusdb.server.statements_total",
                         "worker=read-1");
  EXPECT_EQ(read_statements, 4);
  EXPECT_EQ(metrics.GetCounter("fungusdb.server.statements_total",
                               "worker=writer"),
            2);
  EXPECT_GE(metrics.GetGauge("fungusdb.exec.epoch"), 1.0);
}

TEST(ServerReadWorkerTest, ConcurrentReadersSeeMonotoneCounts) {
  ServerOptions options;
  options.read_workers = 4;
  options.queue_capacity = 64;
  std::unique_ptr<Server> server = StartServer(options);
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 50;
  constexpr int kWrites = 100;
  std::atomic<bool> bad_count{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Client client = ConnectTo(*server);
      // Counts only ever grow (nothing decays here), and a reader's
      // statements are lockstep, so its counts must be nondecreasing —
      // a regression would mean a torn or time-traveling snapshot.
      int64_t last = -1;
      for (int i = 0; i < kReadsPerReader; ++i) {
        const Result<ResultSet> rs =
            client.ExecuteOne("SELECT count(*) AS n FROM t");
        if (!rs.ok()) continue;  // overload is legal under pressure
        const int64_t n = rs.value().at(0, 0).AsInt64();
        if (n < last) bad_count.store(true);
        last = n;
      }
    });
  }
  Client writer = ConnectTo(*server);
  for (int i = 0; i < kWrites; ++i) {
    FUNGUSDB_CHECK_OK(
        writer.ExecuteOne("\\insert t " + std::to_string(i)).status());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(bad_count.load());

  const ResultSet final_count =
      writer.ExecuteOne("SELECT count(*) AS n FROM t").value();
  EXPECT_EQ(final_count.at(0, 0).AsInt64(), kWrites);
}

// One answer, rendered so two servers' answers compare as strings: the
// error's code and message, or the rows (row ids, counts) of an ok.
std::string Render(const Result<ResultSet>& result) {
  if (!result.ok()) {
    return result.status().ErrorLabel() + " " + result.status().message();
  }
  return "ok\n" + result.value().ToString(/*max_rows=*/SIZE_MAX);
}

// The writer takes consecutive \insert statements into one table as one
// run. Its answers must equal those of the same statements sent one
// request each: per statement, the final tables and the server's
// statement and error counters.
TEST(ServerInsertRunTest, RunsMatchOneStatementPerRequest) {
  const std::vector<std::string> setup = {
      "\\create a (id int64, v float64)",
      "\\create b (id int64, name string null)"};
  const std::vector<std::string> batch = {
      "\\insert a 1,1.5",
      "\\insert a 2,2.5",
      "\\insert a 3",          // wrong field count
      "\\insert a x,1.0",      // unparseable value
      "\\insert a 4,4.5",
      "\\insert ghost 1,2",    // unknown table, a run of two
      "\\insert ghost 3,4",
      "\\insert b 10,ten",     // alternating tables: runs of one
      "\\insert a 5,5.5",
      "\\insert b 11,",        // null name
      "\\insert a 6,6.5",
      "\\insert b 12,\"x,y\"",
      "\\advance 1s",          // ends the run; later rows are newer
      "\\insert a 7,7.5",
      "SELECT count(*) AS n FROM a",  // sees exactly the rows before it
      "\\insert a",            // usage
      "  \\insert   a   8,8.5  ",
      "\\insert a 9,nine",
      "\\insert b 13,thirteen",
      "SELECT id, name FROM b WHERE id > 11",
      "\\insert a 10,10.5"};

  std::unique_ptr<Server> batched = StartServer();
  std::unique_ptr<Server> single = StartServer();
  Client batched_client = ConnectTo(*batched);
  Client single_client = ConnectTo(*single);
  for (Client* client : {&batched_client, &single_client}) {
    const std::vector<Result<ResultSet>> created =
        client->Execute(setup).value();
    for (const Result<ResultSet>& r : created) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  const std::vector<Result<ResultSet>> run_answers =
      batched_client.Execute(batch).value();
  std::vector<Result<ResultSet>> one_by_one;
  for (const std::string& statement : batch) {
    one_by_one.push_back(single_client.ExecuteOne(statement));
  }
  ASSERT_EQ(run_answers.size(), batch.size());
  int errors = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(Render(run_answers[i]), Render(one_by_one[i])) << batch[i];
    errors += run_answers[i].ok() ? 0 : 1;
  }
  EXPECT_EQ(errors, 6);

  batched->Stop();
  single->Stop();
  Database& run_db = batched->database();
  Database& single_db = single->database();
  for (const char* table : {"a", "b"}) {
    const std::string sql = std::string("SELECT *, __ts FROM ") + table;
    EXPECT_EQ(Render(run_db.ExecuteSql(sql)),
              Render(single_db.ExecuteSql(sql)))
        << table;
  }
  EXPECT_EQ(run_db.GetTable("a").value().live_rows(), 8u);
  MetricsRegistry& run_metrics = run_db.metrics();
  MetricsRegistry& single_metrics = single_db.metrics();
  EXPECT_EQ(run_metrics.GetCounter("fungusdb.server.statements_total"),
            single_metrics.GetCounter("fungusdb.server.statements_total"));
  EXPECT_EQ(run_metrics.GetCounter("fungusdb.ingest.rows"),
            single_metrics.GetCounter("fungusdb.ingest.rows"));
  for (const ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kParseError,
        ErrorCode::kTableNotFound}) {
    const std::string label =
        "code=" + std::to_string(static_cast<int>(code));
    EXPECT_GE(run_metrics.GetCounter("fungusdb.server.errors", label), 1)
        << label;
    EXPECT_EQ(run_metrics.GetCounter("fungusdb.server.errors", label),
              single_metrics.GetCounter("fungusdb.server.errors", label))
        << label;
  }
}

// A run is one write section, so it publishes one epoch: a reader sees
// all of a 500-row batch or none of it, never a prefix.
TEST(ServerInsertRunTest, ReadersSeeWholeRunsOnly) {
  constexpr int kBatches = 20;
  constexpr int kBatchRows = 500;
  ServerOptions options;
  options.read_workers = 2;
  std::unique_ptr<Server> server = StartServer(options);
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());

  std::atomic<bool> writing{true};
  std::vector<int64_t> seen;
  std::thread reader([&] {
    Client client = ConnectTo(*server);
    while (writing.load()) {
      const Result<ResultSet> rs =
          client.ExecuteOne("SELECT count(*) AS n FROM t");
      if (rs.ok()) seen.push_back(rs.value().at(0, 0).AsInt64());
    }
  });
  Client writer = ConnectTo(*server);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::string> batch;
    for (int i = 0; i < kBatchRows; ++i) {
      batch.push_back("\\insert t " + std::to_string(b * kBatchRows + i));
    }
    const std::vector<Result<ResultSet>> ids = writer.Execute(batch).value();
    for (const Result<ResultSet>& r : ids) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  writing.store(false);
  reader.join();

  ASSERT_FALSE(seen.empty());
  const auto torn = std::find_if(seen.begin(), seen.end(), [](int64_t n) {
    return n % kBatchRows != 0;
  });
  EXPECT_TRUE(torn == seen.end()) << "a reader saw " << *torn << " rows";
  const ResultSet final_count =
      writer.ExecuteOne("SELECT count(*) AS n FROM t").value();
  EXPECT_EQ(final_count.at(0, 0).AsInt64(), kBatches * kBatchRows);
}

// `\insert`'s grammar as the writer's runs see it: any whitespace between
// words, and a statement without fields stays in the run and answers its
// usage error in its own slot.
TEST(ServerInsertRunTest, GrammarPins) {
  std::unique_ptr<Server> server = StartServer();
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  Client client = ConnectTo(*server);
  const uint64_t epoch_before = server->database().epochs().epoch();
  const std::vector<Result<ResultSet>> results =
      client
          .Execute({"\\insert t 1", "\\insert t", "\\insert\tt\t2",
                    "  \\insert   t \t 3 \r\n", "\\insert t \t"})
          .value();
  // One run is one write section.
  EXPECT_EQ(server->database().epochs().epoch(), epoch_before + 1);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].value().at(0, 0).AsInt64(), 0);
  EXPECT_EQ(results[2].value().at(0, 0).AsInt64(), 1);
  EXPECT_EQ(results[3].value().at(0, 0).AsInt64(), 2);
  for (const size_t usage : {1, 4}) {
    EXPECT_EQ(results[usage].status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(results[usage].status().message(),
              "usage: \\insert <table> <csv fields>");
  }
  const ResultSet sum =
      client.ExecuteOne("SELECT sum(a) AS s FROM t").value();
  EXPECT_EQ(sum.at(0, 0).AsInt64(), 6);
}

// Golden wire bytes: fungusd's answers to these requests, pinned by the
// FNV-1a hash of the response payload as the server encoded it before
// insert runs wrote their acks straight into the payload.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return hash;
}

std::string RawResponse(const Server& server, uint64_t request_id,
                        std::vector<std::string> statements,
                        uint64_t deadline_micros = 0) {
  UniqueFd fd = ConnectTcp("127.0.0.1", server.port()).value();
  StatementRequest request;
  request.request_id = request_id;
  request.deadline_micros = deadline_micros;
  request.statements = std::move(statements);
  FUNGUSDB_CHECK_OK(WriteFrame(fd.get(), FrameType::kStatementRequest,
                               EncodeStatementRequest(request)));
  const Frame frame = ReadFrame(fd.get()).value();
  EXPECT_EQ(frame.header.type, FrameType::kStatementResponse);
  return frame.payload;
}

TEST(WireGoldenTest, FiveHundredAcks) {
  std::unique_ptr<Server> server = StartServer();
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  std::vector<std::string> inserts;
  StatementResponse expected;
  expected.request_id = 41;
  for (int i = 0; i < 500; ++i) {
    inserts.push_back("\\insert t " + std::to_string(i));
    expected.results.push_back(RowIdResult(static_cast<RowId>(i)));
  }
  const std::string payload = RawResponse(*server, 41, inserts);
  EXPECT_EQ(payload.size(), 30012u);
  EXPECT_EQ(Fnv1a(payload), 0xfd4d435d20e4bdcbull);
  EXPECT_EQ(payload, EncodeStatementResponse(expected));
}

TEST(WireGoldenTest, MixedBatchAnswersInOrder) {
  std::unique_ptr<Server> server = StartServer();
  const Schema schema = Schema::Make({{"a", DataType::kInt64, false},
                                      {"s", DataType::kString, true}})
                            .value();
  FUNGUSDB_CHECK_OK(server->database().CreateTable("t", schema).status());
  const std::string payload = RawResponse(
      *server, 42,
      {"\\insert t 1,one", "\\insert t 2,", "\\insert t x,bad",
       "\\insert t 3", "\\insert t 4,\"f,o\"\"ur\"",
       "SELECT count(*) AS n, max(a) AS m FROM t", "\\insert t 5,five",
       "\\insert ghost 6,six", "\\insert t", "\\insert t 7,seven\r"});
  EXPECT_EQ(Fnv1a(payload), 0x6f0fe02e25805f1cull);
  const StatementResponse response = DecodeStatementResponse(payload).value();
  ASSERT_EQ(response.results.size(), 10u);
  EXPECT_EQ(response.results[4].value().at(0, 0).AsInt64(), 2);
  EXPECT_EQ(response.results[5].value().at(0, 0).AsInt64(), 3);
  EXPECT_EQ(response.results[6].value().at(0, 0).AsInt64(), 3);
  EXPECT_EQ(response.results[7].status().error_code(),
            ErrorCode::kTableNotFound);
  EXPECT_EQ(response.results[9].value().at(0, 0).AsInt64(), 4);
}

TEST(WireGoldenTest, OverloadedAnswerIsUnchanged) {
  ServerOptions options;
  options.queue_capacity = 0;
  std::unique_ptr<Server> server = StartServer(options);
  const std::string payload =
      RawResponse(*server, 43, {"SELECT 1", "\\now"});
  const std::string message = "request queue is full; retry later";
  std::string answer("\x00\xd2\x07\x00\x00", 5);  // failed, E:2002
  answer += std::string("\x22\0\0\0\0\0\0\0", 8) + message;
  EXPECT_EQ(payload, std::string("\x2b\0\0\0\0\0\0\0\x02\0\0\0", 12) +
                         answer + answer);
  EXPECT_EQ(Fnv1a(payload), 0xd294a554a2ce7912ull);
}

TEST(WireGoldenTest, TimeoutAnswerIsUnchanged) {
  std::unique_ptr<Server> server = StartServer();
  FUNGUSDB_CHECK_OK(
      server->database().CreateTable("t", SharedSchema()).status());
  std::vector<std::string> inserts;
  for (int i = 0; i < 64; ++i) inserts.push_back("\\insert t 1");
  const std::string payload =
      RawResponse(*server, 44, inserts, /*deadline_micros=*/1);
  const std::string message = "deadline exceeded before execution";
  const std::string answer = std::string("\x00\xd3\x07\x00\x00", 5) +
                             std::string("\x22\0\0\0\0\0\0\0", 8) + message;
  ASSERT_GE(payload.size(), 12 + answer.size());
  EXPECT_EQ(payload.substr(0, 12),
            std::string("\x2c\0\0\0\0\0\0\0\x40\0\0\0", 12));
  EXPECT_EQ(payload.substr(payload.size() - answer.size()), answer);
}

}  // namespace
}  // namespace fungusdb::server
