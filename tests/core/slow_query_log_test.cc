// The one statement-execution path: the writer's SQL, Database::Execute,
// a CONSUME and a Session read all run through one body, so each is
// counted once, stamped with its epoch and written to one slow-query
// line with the same fields.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "query/parser.h"

namespace fungusdb {
namespace {

constexpr int64_t kRows = 20000;

std::unique_ptr<Database> SeededDatabase() {
  auto db = std::make_unique<Database>();
  FUNGUSDB_CHECK_OK(
      db->CreateTable("t", Schema::Make({{"a", DataType::kInt64, false},
                                         {"v", DataType::kFloat64, false}})
                               .value())
          .status());
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int64(i), Value::Float64(static_cast<double>(i))});
  }
  for (const Result<RowId>& id : db->Insert("t", rows)) {
    FUNGUSDB_CHECK_OK(id.status());
  }
  return db;
}

/// The single slow-query line in `captured`; fails the test otherwise.
std::string OnlySlowLine(const std::string& captured) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < captured.size()) {
    size_t end = captured.find('\n', begin);
    if (end == std::string::npos) end = captured.size();
    const std::string line = captured.substr(begin, end - begin);
    if (line.find("slow-query ") != std::string::npos) lines.push_back(line);
    begin = end + 1;
  }
  EXPECT_EQ(lines.size(), 1u) << captured;
  return lines.empty() ? std::string() : lines[0];
}

/// The `key=` names of a slow-query line, in order, up to `sql=`.
std::vector<std::string> FieldNames(const std::string& line) {
  std::vector<std::string> names;
  const std::regex field(R"(([a-z_]+)=)");
  const std::string head = line.substr(0, line.find(" sql="));
  for (auto it = std::sregex_iterator(head.begin(), head.end(), field);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  names.push_back("sql");
  return names;
}

/// The value of `key=` in a slow-query line.
std::string Field(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return "<missing " + key + ">";
  const size_t begin = at + key.size() + 2;
  if (key == "sql") return line.substr(begin);
  return line.substr(begin, line.find(' ', begin) - begin);
}

struct LoggedRun {
  Result<ResultSet> result = Status::Internal("not run");
  std::string line;
};

/// Runs `execute` with stderr captured and checks the bookkeeping every
/// path shares: one `executed`, one `slow{table=t}`, one log line.
template <typename Fn>
LoggedRun Logged(Database& db, Fn execute) {
  const int64_t executed = db.metrics().GetCounter("fungusdb.query.executed");
  const int64_t slow = db.metrics().GetCounter("fungusdb.query.slow", "table=t");
  testing::internal::CaptureStderr();
  LoggedRun run;
  run.result = execute();
  const std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(run.result.ok()) << run.result.status().ToString();
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.query.executed"), executed + 1);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.query.slow", "table=t"),
            slow + 1);
  run.line = OnlySlowLine(captured);
  return run;
}

TEST(SlowQueryLogTest, EveryPathWritesOneLineWithTheSameFields) {
  std::unique_ptr<Database> db = SeededDatabase();
  db->set_slow_query_micros(1);
  Session session(db.get());
  const std::string select = "SELECT count(*) AS n FROM t WHERE v >= 0.5";
  const std::string consume = "CONSUME SELECT * FROM t WHERE a < 100";
  const Query select_query = ParseQuery(select).value();

  // Writer SQL: no queue wait, quotes the text.
  uint64_t epoch = db->epoch();
  const LoggedRun writer_sql = Logged(*db, [&] { return db->ExecuteSql(select); });
  EXPECT_EQ(Field(writer_sql.line, "sql"), select);
  EXPECT_EQ(Field(writer_sql.line, "queue_us"), "0");
  EXPECT_EQ(writer_sql.result->stats.epoch, epoch);
  EXPECT_EQ(db->epoch(), epoch + 1);  // the write section published

  // Database::Execute(const Query&): logs the query's rendering.
  epoch = db->epoch();
  const LoggedRun execute = Logged(*db, [&] { return db->Execute(select_query); });
  EXPECT_EQ(Field(execute.line, "sql"), select_query.ToString());
  EXPECT_EQ(Field(execute.line, "queue_us"), "0");
  EXPECT_EQ(execute.result->stats.epoch, epoch);

  // A CONSUME with the queue wait its caller measured.
  epoch = db->epoch();
  const LoggedRun consumed = Logged(*db, [&] {
    return db->Execute(ParseQuery(consume).value(), consume, 1234);
  });
  EXPECT_EQ(consumed.result->stats.rows_consumed, 100u);
  EXPECT_EQ(Field(consumed.line, "queue_us"), "1234");
  EXPECT_EQ(Field(consumed.line, "rows_consumed"), "100");
  EXPECT_EQ(Field(consumed.line, "sql"), consume);
  EXPECT_EQ(consumed.result->stats.epoch, epoch);

  // A Session read: the read-locked epoch, the same line.
  epoch = db->epoch();
  const LoggedRun read = Logged(
      *db, [&] { return session.ExecuteRead(select_query, select, 4321); });
  EXPECT_EQ(Field(read.line, "queue_us"), "4321");
  EXPECT_EQ(Field(read.line, "sql"), select);
  EXPECT_EQ(read.result->stats.epoch, epoch);
  EXPECT_EQ(db->epoch(), epoch);  // a read publishes nothing
  EXPECT_EQ(read.result->at(0, 0).AsInt64(), kRows - 100);

  const std::vector<std::string> fields = FieldNames(writer_sql.line);
  EXPECT_EQ(fields, (std::vector<std::string>{
                        "t", "table", "us", "queue_us", "lock_wait_us",
                        "epoch", "rows_scanned", "rows_pruned",
                        "segments_scanned", "segments_pruned",
                        "rows_matched", "rows_consumed", "sql"}));
  for (const LoggedRun* run : {&execute, &consumed, &read}) {
    EXPECT_EQ(FieldNames(run->line), fields) << run->line;
    EXPECT_EQ(Field(run->line, "table"), "t");
    EXPECT_EQ(Field(run->line, "epoch"),
              std::to_string(run->result->stats.epoch));
  }
  EXPECT_EQ(Field(writer_sql.line, "epoch"),
            std::to_string(writer_sql.result->stats.epoch));
}

TEST(SlowQueryLogTest, ReadsRecordPinWaitAndWritesDoNot) {
  std::unique_ptr<Database> db = SeededDatabase();
  Session session(db.get());
  FUNGUSDB_CHECK_OK(db->ExecuteSql("SELECT count(*) AS n FROM t").status());
  EXPECT_EQ(db->metrics().FindHistogram("fungusdb.query.pin_wait_us"),
            nullptr);
  FUNGUSDB_CHECK_OK(session.ExecuteRead("SELECT count(*) AS n FROM t").status());
  const HistogramMetric* pin_wait =
      db->metrics().FindHistogram("fungusdb.query.pin_wait_us", "table=t");
  ASSERT_NE(pin_wait, nullptr);
  EXPECT_EQ(pin_wait->count(), 1);
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.exec.read_statements"), 1);
}

TEST(SlowQueryLogTest, ZeroThresholdLogsNothing) {
  std::unique_ptr<Database> db = SeededDatabase();
  db->set_slow_query_micros(0);
  Session session(db.get());
  testing::internal::CaptureStderr();
  FUNGUSDB_CHECK_OK(db->ExecuteSql("SELECT count(*) AS n FROM t").status());
  FUNGUSDB_CHECK_OK(session.ExecuteRead("SELECT count(*) AS n FROM t").status());
  EXPECT_EQ(testing::internal::GetCapturedStderr().find("slow-query"),
            std::string::npos);
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.query.slow", "table=t"), 0);
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.query.executed"), 2);
}

TEST(SlowQueryLogTest, ThresholdStartsFromTheEnvironment) {
  const char* saved = std::getenv("FUNGUSDB_SLOW_QUERY_US");
  const std::string restore = saved == nullptr ? "" : saved;
  for (const auto& [text, expected] :
       std::vector<std::pair<std::string, int64_t>>{
           {"250", 250},
           {"12x", 0},
           {"-5", 0},
           {"99999999999999999999", 0},
           {"", 0}}) {
    ASSERT_EQ(setenv("FUNGUSDB_SLOW_QUERY_US", text.c_str(), 1), 0);
    EXPECT_EQ(Database().slow_query_micros(), expected) << text;
  }
  if (saved == nullptr) {
    unsetenv("FUNGUSDB_SLOW_QUERY_US");
  } else {
    setenv("FUNGUSDB_SLOW_QUERY_US", restore.c_str(), 1);
  }
}

// Run under TSan in CI: Sessions and the writer share the execute body,
// the metrics it bumps and the slow-query log.
TEST(SlowQueryLogTest, ReadersAndWriterShareTheBodyConcurrently) {
  std::unique_ptr<Database> db = SeededDatabase();
  db->set_slow_query_micros(1);
  constexpr int kReaders = 2;
  constexpr int kReads = 100;
  constexpr int kConsumes = 20;
  std::atomic<int> failures{0};
  testing::internal::CaptureStderr();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Session session(db.get());
      uint64_t last_epoch = 0;
      for (int i = 0; i < kReads; ++i) {
        const Result<ResultSet> rs =
            session.ExecuteRead("SELECT count(*) AS n FROM t WHERE v >= 0");
        if (!rs.ok() || rs->stats.epoch < last_epoch) {
          failures.fetch_add(1);
          return;
        }
        last_epoch = rs->stats.epoch;
      }
    });
  }
  for (int i = 0; i < kConsumes; ++i) {
    const std::string sql = "CONSUME SELECT * FROM t WHERE a >= " +
                            std::to_string(i * 10) + " AND a < " +
                            std::to_string(i * 10 + 10);
    const Result<ResultSet> rs =
        db->Execute(ParseQuery(sql).value(), sql, /*queue_wait_us=*/i);
    if (!rs.ok() || rs->stats.rows_consumed != 10) failures.fetch_add(1);
  }
  for (std::thread& t : readers) t.join();
  const std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.query.executed"),
            kReaders * kReads + kConsumes);
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.exec.read_statements"),
            kReaders * kReads);
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.query.consuming"), kConsumes);
  EXPECT_GT(db->metrics().GetCounter("fungusdb.query.slow", "table=t"), 0);
  EXPECT_NE(captured.find("slow-query "), std::string::npos);
}

}  // namespace
}  // namespace fungusdb
