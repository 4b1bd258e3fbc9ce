#include "core/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/database.h"
#include "fungus/retention_fungus.h"

namespace fungusdb {
namespace {

Schema ReadingSchema() {
  return Schema::Make({{"sensor", DataType::kInt64, false},
                       {"temp", DataType::kFloat64, false}})
      .value();
}

std::unique_ptr<Database> SeededDatabase() {
  auto db = std::make_unique<Database>();
  FUNGUSDB_CHECK_OK(db->CreateTable("r", ReadingSchema()).status());
  for (int i = 0; i < 20; ++i) {
    FUNGUSDB_CHECK_OK(
        db->Insert("r", {Value::Int64(i % 4), Value::Float64(i * 1.5)})
            .status());
  }
  return db;
}

TEST(SessionTest, ReadResultsMatchTheWriterPath) {
  std::unique_ptr<Database> db = SeededDatabase();
  Session session(db.get());
  for (const char* sql : {
           "SELECT count(*) AS n FROM r",
           "SELECT sensor, count(*) AS n FROM r GROUP BY sensor "
           "ORDER BY sensor",
           "SELECT temp FROM r WHERE sensor = 2 ORDER BY temp",
           "SELECT avg(temp) AS m FROM r WHERE __freshness > 0.0",
       }) {
    const ResultSet via_session = session.ExecuteRead(sql).value();
    const ResultSet via_writer = db->ExecuteSql(sql).value();
    ASSERT_EQ(via_session.num_rows(), via_writer.num_rows()) << sql;
    for (size_t row = 0; row < via_session.num_rows(); ++row) {
      for (size_t col = 0; col < via_session.column_names.size(); ++col) {
        EXPECT_TRUE(
            via_session.at(row, col).Equals(via_writer.at(row, col)))
            << sql << " row " << row << " col " << col;
      }
    }
  }
}

TEST(SessionTest, RefusesConsumingQueries) {
  std::unique_ptr<Database> db = SeededDatabase();
  Session session(db.get());
  const Status refused =
      session.ExecuteRead("CONSUME SELECT * FROM r").status();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  // Nothing was consumed by the refused statement.
  EXPECT_EQ(db->GetTable("r").value().live_rows(), 20u);
}

TEST(SessionTest, RefusesTrackAccessTables) {
  auto db = std::make_unique<Database>();
  TableOptions topts;
  topts.track_access = true;
  FUNGUSDB_CHECK_OK(
      db->CreateTable("hot", ReadingSchema(), topts).status());
  FUNGUSDB_CHECK_OK(
      db->Insert("hot", {Value::Int64(1), Value::Float64(1.0)}).status());
  Session session(db.get());
  // The classifier routes these to the writer; executing one here would
  // silently skip the access-counter bumps that feed ImportanceFungus.
  const Status refused =
      session.ExecuteRead("SELECT * FROM hot").status();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, SurfacesEngineErrors) {
  std::unique_ptr<Database> db = SeededDatabase();
  Session session(db.get());
  EXPECT_EQ(session.ExecuteRead("SELEC * FROM r").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.ExecuteRead("SELECT * FROM ghost").status().code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, PinnedEpochAdvancesWithDecayTicks) {
  std::unique_ptr<Database> db = SeededDatabase();
  FUNGUSDB_CHECK_OK(db->AttachFungus(
                          "r", std::make_unique<RetentionFungus>(kMinute),
                          /*period=*/kSecond)
                        .status());
  Session session(db.get());

  const uint64_t before =
      session.ExecuteRead("SELECT count(*) AS n FROM r").value().stats.epoch;
  EXPECT_EQ(before, db->epoch());

  // 5 ticks publish 5 per-tick epochs plus the section's own.
  FUNGUSDB_CHECK_OK(db->AdvanceTime(5 * kSecond).status());
  const uint64_t after =
      session.ExecuteRead("SELECT count(*) AS n FROM r").value().stats.epoch;
  EXPECT_EQ(after, db->epoch());
  EXPECT_GE(after, before + 6);
}

TEST(SessionTest, CountsReadStatementsInMetrics) {
  std::unique_ptr<Database> db = SeededDatabase();
  Session session(db.get());
  const int64_t executed_before =
      db->metrics().GetCounter("fungusdb.query.executed");
  FUNGUSDB_CHECK_OK(
      session.ExecuteRead("SELECT count(*) AS n FROM r").status());
  EXPECT_EQ(db->metrics().GetCounter("fungusdb.query.executed"),
            executed_before + 1);
  EXPECT_GE(db->metrics().GetCounter("fungusdb.exec.read_statements"), 1);
}

}  // namespace
}  // namespace fungusdb
