// Local/remote parity of the meta-command registry: every entry runs
// once on an embedded Database and once through Server + Client, and
// both must answer the same. The cases are generated from the registry,
// so a new command without a sample fails here.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/meta_commands.h"
#include "server/client.h"
#include "server/server.h"

namespace fungusdb::server {
namespace {

/// Builds the state every sample runs against.
const std::vector<std::string> kPrologue = {
    "\\create t (a int64, b string null)",
    "\\insert t 1,spore",
    "\\insert t 2,hypha",
};

/// One invocation per registry command, run in registry order. Commands
/// whose answer depends on process-wide state (metrics, the tracer) are
/// compared by column names only.
const std::map<std::string, std::string>& Samples() {
  static const std::map<std::string, std::string> samples = {
      {"\\tables", "\\tables"},
      {"\\create", "\\create u (x int64, y float64 null)"},
      {"\\insert", "\\insert t 3,mold"},
      {"\\attach", "\\attach retention t 1h 1d"},
      {"\\advance", "\\advance 2h"},
      {"\\freeze", "\\freeze t 2"},
      {"\\now", "\\now"},
      {"\\health", "\\health"},
      {"\\fsck", "\\fsck"},
      {"\\analyze", "\\analyze t"},
      {"\\rot", "\\rot t"},
      {"\\storage", "\\storage"},
      {"\\cellar", "\\cellar"},
      {"\\metrics", "\\metrics prom"},
      {"\\trace", "\\trace dump"},
      {"\\slowlog", "\\slowlog 0"},
  };
  return samples;
}

bool ColumnsOnly(std::string_view command) {
  return command == "\\metrics" || command == "\\trace";
}

std::unique_ptr<Server> StartServer() {
  auto server = std::make_unique<Server>(std::make_unique<Database>());
  FUNGUSDB_CHECK_OK(server->Start());
  return server;
}

Client ConnectTo(const Server& server) {
  return Client::Connect("127.0.0.1", server.port()).value();
}

void ExpectSameAnswer(const Result<ResultSet>& local,
                      const Result<ResultSet>& remote, bool columns_only,
                      const std::string& statement) {
  ASSERT_EQ(local.ok(), remote.ok())
      << statement << ": local " << local.status().ToString() << " vs remote "
      << remote.status().ToString();
  if (!local.ok()) {
    EXPECT_EQ(local.status().error_code(), remote.status().error_code())
        << statement;
    return;
  }
  EXPECT_EQ(local->column_names, remote->column_names) << statement;
  if (columns_only) return;
  ASSERT_EQ(local->num_rows(), remote->num_rows()) << statement;
  for (size_t r = 0; r < local->num_rows(); ++r) {
    for (size_t c = 0; c < local->num_columns(); ++c) {
      EXPECT_TRUE(local->at(r, c).Equals(remote->at(r, c)))
          << statement << " row " << r << " col " << c << ": "
          << local->at(r, c).ToString() << " vs "
          << remote->at(r, c).ToString();
    }
  }
}

TEST(MetaParityTest, EveryCommandHasASample) {
  for (const MetaCommand& command : MetaCommands()) {
    EXPECT_EQ(Samples().count(std::string(command.name)), 1u)
        << command.name << " has no parity sample";
  }
  EXPECT_EQ(Samples().size(), MetaCommands().size());
}

TEST(MetaParityTest, EveryCommandAnswersTheSameLocallyAndRemotely) {
  Database local;
  std::unique_ptr<Server> server = StartServer();
  Client client = ConnectTo(*server);
  for (const std::string& statement : kPrologue) {
    ExpectSameAnswer(ExecuteStatement(local, statement),
                     client.ExecuteOne(statement), false, statement);
  }
  for (const MetaCommand& command : MetaCommands()) {
    const std::string& sample = Samples().at(std::string(command.name));
    const Result<ResultSet> here = ExecuteStatement(local, sample);
    EXPECT_TRUE(here.ok()) << sample << ": " << here.status().ToString();
    ExpectSameAnswer(here, client.ExecuteOne(sample),
                     ColumnsOnly(command.name), sample);
  }
}

TEST(MetaParityTest, ErrorsAnswerTheSameLocallyAndRemotely) {
  Database local;
  std::unique_ptr<Server> server = StartServer();
  Client client = ConnectTo(*server);
  for (const std::string& statement : kPrologue) {
    ASSERT_TRUE(ExecuteStatement(local, statement).ok()) << statement;
    ASSERT_TRUE(client.ExecuteOne(statement).ok()) << statement;
  }
  for (const MetaCommand& command : MetaCommands()) {
    // A wrong argument count or an unknown table, per command.
    for (const std::string& statement :
         {std::string(command.name) + " nosuch a b c d e",
          std::string(command.name) + " nosuch"}) {
      const Result<ResultSet> here = ExecuteStatement(local, statement);
      ExpectSameAnswer(here, client.ExecuteOne(statement),
                       ColumnsOnly(command.name), statement);
    }
  }
  for (const char* statement : {"\\nosuchcommand", "\\insert"}) {
    const Result<ResultSet> here = ExecuteStatement(local, statement);
    EXPECT_EQ(here.status().error_code(), ErrorCode::kInvalidArgument);
    ExpectSameAnswer(here, client.ExecuteOne(statement), false, statement);
  }
}

TEST(MetaParityTest, ReadOnlyCommandsTakeTheReadPath) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_GT(server->num_read_workers(), 0u);
  Client client = ConnectTo(*server);
  for (const std::string& statement : kPrologue) {
    ASSERT_TRUE(client.ExecuteOne(statement).ok()) << statement;
  }
  const MetricsRegistry& metrics = server->database().metrics();
  for (const MetaCommand& command : MetaCommands()) {
    const int64_t before =
        metrics.GetCounter("fungusdb.server.requests_read_path");
    const std::string& sample = Samples().at(std::string(command.name));
    EXPECT_TRUE(client.ExecuteOne(sample).ok()) << sample;
    EXPECT_EQ(metrics.GetCounter("fungusdb.server.requests_read_path") -
                  before,
              command.read_only ? 1 : 0)
        << sample;
  }
}

TEST(MetaParityTest, ReadOnlyCommandsRaceTheWriter) {
  // Every read-only entry runs on read workers while the writer inserts,
  // ticks a retention fungus and freezes full segments: under TSan this
  // checks that read_only is true to its word.
  std::unique_ptr<Server> server = StartServer();
  Client writer = ConnectTo(*server);
  for (const std::string& statement :
       {std::string("\\create t (a int64, b string null)"),
        std::string("\\attach retention t 1s 1h"),
        std::string("\\freeze t 1")}) {
    ASSERT_TRUE(writer.ExecuteOne(statement).ok()) << statement;
  }
  std::vector<std::string> reads;
  for (const MetaCommand& command : MetaCommands()) {
    if (command.read_only && command.name != "\\trace") {
      reads.push_back(Samples().at(std::string(command.name)));
    }
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Client client = ConnectTo(*server);
      while (!done.load()) {
        for (const std::string& read : reads) {
          if (!client.ExecuteOne(read).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 40; ++i) {
    std::vector<std::string> batch;
    for (int j = 0; j < 200; ++j) {
      batch.push_back("\\insert t " + std::to_string(i * 200 + j) + ",x");
    }
    batch.push_back("\\advance 1s");
    const std::vector<Result<ResultSet>> results =
        writer.Execute(batch).value();
    for (const Result<ResultSet>& result : results) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(writer.ExecuteOne("\\fsck").ok());
  // Full idle segments froze, so the readers also decoded frozen ones.
  const ResultSet storage = writer.ExecuteOne("\\storage t").value();
  EXPECT_GT(storage.at(0, 2).AsInt64(), 0);
}

// Integers from outside input are parsed whole and in range; each of
// these was once accepted (a sign wrapped, or an overflow saturated).
class IntegerInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = StartServer();
    client_ = std::make_unique<Client>(ConnectTo(*server_));
    for (const std::string& statement : kPrologue) {
      ASSERT_TRUE(ExecuteStatement(local_, statement).ok());
      ASSERT_TRUE(client_->ExecuteOne(statement).ok());
    }
  }

  /// Rejected with `code` on the embedded database and on the server.
  void ExpectRejected(const std::string& statement, ErrorCode code) {
    EXPECT_EQ(ExecuteStatement(local_, statement).status().error_code(), code)
        << statement;
    EXPECT_EQ(client_->ExecuteOne(statement).status().error_code(), code)
        << statement;
  }

  Database local_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(IntegerInputTest, FreezeRejectsANegativeTickCount) {
  ExpectRejected("\\freeze t -1", ErrorCode::kInvalidArgument);
}

TEST_F(IntegerInputTest, AttachRejectsANegativeWindow) {
  ExpectRejected("\\attach window t 1h -5", ErrorCode::kParseError);
}

TEST_F(IntegerInputTest, SlowlogRejectsAnOutOfRangeThreshold) {
  ExpectRejected("\\slowlog 99999999999999999999",
                 ErrorCode::kInvalidArgument);
}

TEST_F(IntegerInputTest, InsertRejectsAnOutOfRangeInt64) {
  ExpectRejected("\\insert t 99999999999999999999,x", ErrorCode::kParseError);
  const ResultSet count =
      client_->ExecuteOne("SELECT count(*) AS n FROM t").value();
  EXPECT_EQ(count.at(0, 0).AsInt64(), 2);
}

}  // namespace
}  // namespace fungusdb::server
