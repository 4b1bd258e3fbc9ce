#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/result_set.h"

namespace fungusdb {
namespace {

// Morsel-driven parallel scans must be invisible to the caller: the same
// query returns the same rows in the same order regardless of thread
// count, and consuming queries kill exactly the serial kill set.

Schema TwoColumnSchema() {
  return Schema::Make({{"id", DataType::kInt64, false},
                       {"temp", DataType::kFloat64, false}})
      .value();
}

/// 512 rows over 32 segments — comfortably past the 8-segment parallel
/// cutoff — with a value pattern every predicate below can bite on.
std::unique_ptr<Database> MakeDatabase(size_t num_threads) {
  DatabaseOptions opts;
  opts.num_threads = num_threads;
  auto db = std::make_unique<Database>(opts);
  TableOptions t_opts;
  t_opts.rows_per_segment = 16;
  EXPECT_TRUE(db->CreateTable("readings", TwoColumnSchema(), t_opts).ok());
  for (int64_t i = 0; i < 512; ++i) {
    EXPECT_TRUE(db->Insert("readings",
                           {Value::Int64(i),
                            Value::Float64(static_cast<double>(i % 97))})
                    .ok());
  }
  return db;
}

std::vector<std::vector<Value>> Rows(Database& db, const std::string& sql) {
  Result<ResultSet> rs = db.ExecuteSql(sql);
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  return rs.value().rows;
}

void ExpectSameRows(const std::vector<std::vector<Value>>& a,
                    const std::vector<std::vector<Value>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    for (size_t c = 0; c < a[r].size(); ++c) {
      EXPECT_TRUE(a[r][c].Equals(b[r][c]))
          << "row " << r << " col " << c << ": " << a[r][c].ToString()
          << " vs " << b[r][c].ToString();
    }
  }
}

TEST(ParallelScanTest, SelectMatchesSerialResults) {
  std::unique_ptr<Database> serial = MakeDatabase(1);
  std::unique_ptr<Database> parallel = MakeDatabase(4);
  const std::string sql = "SELECT id FROM readings WHERE temp > 50";
  ExpectSameRows(Rows(*serial, sql), Rows(*parallel, sql));
  // The parallel engine actually fanned out.
  EXPECT_GT(parallel->metrics().GetCounter(
                "fungusdb.parallel.morsels_dispatched"),
            0);
  EXPECT_EQ(
      serial->metrics().GetCounter("fungusdb.parallel.morsels_dispatched"),
      0);
}

TEST(ParallelScanTest, FullScanPreservesInsertionOrder) {
  std::unique_ptr<Database> parallel = MakeDatabase(8);
  // `temp >= 0` matches every row and compiles to the fast predicate, so
  // this drives the morsel path over the whole table.
  std::vector<std::vector<Value>> rows =
      Rows(*parallel, "SELECT id FROM readings WHERE temp >= 0");
  ASSERT_EQ(rows.size(), 512u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rows[i][0].Equals(Value::Int64(static_cast<int64_t>(i))));
  }
}

TEST(ParallelScanTest, ScanStatsMatchSerial) {
  std::unique_ptr<Database> serial = MakeDatabase(1);
  std::unique_ptr<Database> parallel = MakeDatabase(4);
  const std::string sql = "SELECT id FROM readings WHERE temp < 10";
  ResultSet rs_serial = serial->ExecuteSql(sql).value();
  ResultSet rs_parallel = parallel->ExecuteSql(sql).value();
  EXPECT_EQ(rs_parallel.stats.rows_scanned, rs_serial.stats.rows_scanned);
  EXPECT_EQ(rs_parallel.stats.rows_matched, rs_serial.stats.rows_matched);
}

TEST(ParallelScanTest, ConsumingQueryKillsSerialKillSet) {
  std::unique_ptr<Database> serial = MakeDatabase(1);
  std::unique_ptr<Database> parallel = MakeDatabase(4);
  const std::string sql =
      "CONSUME SELECT id FROM readings WHERE temp > 80";
  ExpectSameRows(Rows(*serial, sql), Rows(*parallel, sql));

  // Law 2 atomicity: R became A ∪ (R − σ_P(R)) identically in both.
  const Table* ts = &serial->GetTable("readings").value().table();
  const Table* tp = &parallel->GetTable("readings").value().table();
  ASSERT_EQ(tp->live_rows(), ts->live_rows());
  ts->ForEachLive([&](RowId row) { EXPECT_TRUE(tp->IsLive(row)); });

  // A second consuming pass over the survivors also agrees.
  const std::string again =
      "CONSUME SELECT id FROM readings WHERE temp > 60";
  ExpectSameRows(Rows(*serial, again), Rows(*parallel, again));
  EXPECT_EQ(tp->live_rows(), ts->live_rows());
}

TEST(ParallelScanTest, LimitAppliesAfterMerge) {
  std::unique_ptr<Database> serial = MakeDatabase(1);
  std::unique_ptr<Database> parallel = MakeDatabase(4);
  const std::string sql =
      "SELECT id FROM readings WHERE temp > 20 LIMIT 7";
  std::vector<std::vector<Value>> rs = Rows(*serial, sql);
  std::vector<std::vector<Value>> rp = Rows(*parallel, sql);
  ASSERT_EQ(rp.size(), 7u);
  ExpectSameRows(rs, rp);
}

TEST(ParallelScanTest, TinyTableStaysSerial) {
  DatabaseOptions opts;
  opts.num_threads = 4;
  Database db(opts);
  TableOptions t_opts;
  t_opts.rows_per_segment = 16;  // 2 segments < 8-segment cutoff
  EXPECT_TRUE(db.CreateTable("readings", TwoColumnSchema(), t_opts).ok());
  for (int64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(db.Insert("readings",
                          {Value::Int64(i), Value::Float64(1.0)})
                    .ok());
  }
  std::vector<std::vector<Value>> rows =
      Rows(db, "SELECT id FROM readings");
  EXPECT_EQ(rows.size(), 32u);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.parallel.morsels_dispatched"),
            0);
}

}  // namespace
}  // namespace fungusdb
