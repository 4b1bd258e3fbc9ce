#include "core/database.h"

#include <gtest/gtest.h>
#include <sched.h>

#include "fungus/retention_fungus.h"
#include "summary/count_min_sketch.h"
#include "core/internal_access.h"

namespace fungusdb {
namespace {

Schema ReadingSchema() {
  return Schema::Make({{"sensor", DataType::kInt64, false},
                       {"temp", DataType::kFloat64, false}})
      .value();
}

TEST(DatabaseTest, CreateGetDropTable) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  EXPECT_TRUE(db.GetTable("r").ok());
  EXPECT_EQ(db.CreateTable("r", ReadingSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateTable("", ReadingSchema()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.TableNames().size(), 1u);
  ASSERT_TRUE(db.DropTable("r").ok());
  EXPECT_EQ(db.GetTable("r").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.DropTable("r").code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, InsertStampsVirtualTime) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  ASSERT_TRUE(db.AdvanceTime(5 * kSecond).ok());
  const RowId row =
      db.Insert("r", {Value::Int64(1), Value::Float64(20.0)}).value();
  const Table& t = db.GetTable("r").value().table();
  EXPECT_EQ(t.InsertTime(row).value(), 5 * kSecond);
}

TEST(DatabaseTest, ManyRowInsertIsOneEpochAndKeepsGoodRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  const std::vector<std::vector<Value>> rows = {
      {Value::Int64(1), Value::Float64(1.0)},
      {Value::Int64(2)},                          // wrong arity
      {Value::Int64(3), Value::String("warm")},   // wrong type
      {Value::Int64(4), Value::Float64(4.0)},
  };
  const uint64_t epoch_before = db.epoch();
  const std::vector<Result<RowId>> ids = db.Insert("r", rows);
  EXPECT_EQ(db.epoch(), epoch_before + 1);  // one write section
  ASSERT_EQ(ids.size(), rows.size());
  EXPECT_EQ(ids[0].value(), 0u);
  EXPECT_EQ(ids[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ids[2].status().code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(ids[3].value(), 1u);  // the bad rows took no row id
  EXPECT_EQ(db.GetTable("r").value().live_rows(), 2u);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.ingest.rows"), 2);

  // An unknown table fails every row, still in one section.
  const std::vector<Result<RowId>> missing = db.Insert("nope", rows);
  ASSERT_EQ(missing.size(), rows.size());
  for (const Result<RowId>& id : missing) {
    EXPECT_EQ(id.status().error_code(), ErrorCode::kTableNotFound);
  }
  EXPECT_EQ(db.epoch(), epoch_before + 2);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.ingest.rows"), 2);
}

TEST(DatabaseTest, AdvanceTimeRunsAttachedFungi) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  ASSERT_TRUE(db.Insert("r", {Value::Int64(1), Value::Float64(1.0)}).ok());
  ASSERT_TRUE(db.AttachFungus("r",
                              std::make_unique<RetentionFungus>(kMinute),
                              /*period=*/kSecond)
                  .ok());
  const uint64_t ticks = db.AdvanceTime(2 * kMinute).value();
  EXPECT_EQ(ticks, 120u);
  EXPECT_EQ(db.GetTable("r").value().live_rows(), 0u);
}

TEST(DatabaseTest, AttachFungusToUnknownTableFails) {
  Database db;
  EXPECT_EQ(db.AttachFungus("ghost",
                            std::make_unique<RetentionFungus>(kDay), kHour)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, NegativeTimeAdvanceRejected) {
  Database db;
  EXPECT_EQ(db.AdvanceTime(-1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, ExecuteSqlEndToEnd) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Insert("r", {Value::Int64(i % 2), Value::Float64(i * 1.0)})
            .ok());
  }
  ResultSet rs =
      db.ExecuteSql("SELECT sensor, count(*) AS n FROM r GROUP BY sensor "
                    "ORDER BY sensor")
          .value();
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.at(0, 1).AsInt64(), 5);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.query.executed"), 1);
}

TEST(DatabaseTest, SqlErrorsSurface) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  EXPECT_EQ(db.ExecuteSql("SELEC * FROM r").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(db.ExecuteSql("SELECT * FROM ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.ExecuteSql("SELECT ghost_col FROM r").status().code(),
            StatusCode::kNotFound);
}

TEST(DatabaseTest, IngestFromSource) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  VectorSource source(ReadingSchema(),
                      {{Value::Int64(1), Value::Float64(1.0)},
                       {Value::Int64(2), Value::Float64(2.0)}});
  EXPECT_EQ(db.Ingest("r", source, 10).value(), 2u);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.ingest.rows"), 2);
}

TEST(DatabaseTest, IngestPacedRunsDueDecay) {
  DatabaseOptions opts;
  Database db(opts);
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  ASSERT_TRUE(db.AttachFungus("r",
                              std::make_unique<RetentionFungus>(kSecond),
                              /*period=*/kSecond)
                  .ok());
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({Value::Int64(i), Value::Float64(1.0)});
  }
  VectorSource source(ReadingSchema(), rows);
  ASSERT_TRUE(db.IngestPaced("r", source, 5, kSecond).ok());
  // Rows arrive 1s apart with 1s retention: only the newest survives
  // each tick; the table stays bounded rather than growing to 5.
  EXPECT_LE(db.GetTable("r").value().live_rows(), 2u);
}

TEST(DatabaseTest, ConsumingQueryCooksIntoCellar) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        db.Insert("r", {Value::Int64(i % 3), Value::Float64(i)}).ok());
  }
  CookSpec spec;
  spec.table_name = "r";
  spec.trigger = CookTrigger::kOnRot;
  spec.cellar_name = "sensors_seen";
  spec.column = "sensor";
  spec.factory = [] { return std::make_unique<CountMinSketch>(64, 4); };
  ASSERT_TRUE(db.AddCookSpec(spec).ok());

  ResultSet rs =
      db.ExecuteSql("CONSUME SELECT * FROM r WHERE sensor = 0").value();
  EXPECT_EQ(rs.stats.rows_consumed, 2u);
  const Summary* cooked = db.cellar().Find("sensors_seen");
  ASSERT_NE(cooked, nullptr);
  EXPECT_EQ(cooked->observations(), 2u);
  EXPECT_EQ(db.metrics().GetCounter("fungusdb.query.rows_consumed"), 2);
}

TEST(DatabaseTest, AddCookSpecRequiresTable) {
  Database db;
  CookSpec spec;
  spec.table_name = "ghost";
  spec.cellar_name = "x";
  spec.column = "c";
  spec.factory = [] { return std::make_unique<CountMinSketch>(8, 2); };
  EXPECT_EQ(db.AddCookSpec(spec).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, HealthReport) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", ReadingSchema()).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Insert("r", {Value::Int64(i), Value::Float64(i)}).ok());
  }
  ASSERT_TRUE(internal::DatabaseInternal::MutableTable(db, "r")
                  .value()
                  ->SetFreshness(0, 0.5)
                  .ok());
  HealthReport health = db.Health();
  ASSERT_EQ(health.tables.size(), 1u);
  EXPECT_EQ(health.tables[0].live_rows, 4u);
  EXPECT_NEAR(health.tables[0].mean_freshness, 0.875, 1e-9);
  EXPECT_NE(health.ToString().find("table r"), std::string::npos);
}

TEST(DatabaseTest, StartTimeOption) {
  DatabaseOptions opts;
  opts.start_time = 42 * kDay;
  Database db(opts);
  EXPECT_EQ(db.Now(), 42 * kDay);
}

TEST(DatabaseTest, DefaultPoolWidthFollowsTheAffinityMask) {
  // Pinned to one CPU, num_threads = 0 must build a 1-wide pool, not
  // one as wide as the host.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  size_t width = 0;
  {
    DatabaseOptions opts;
    opts.num_threads = 0;
    Database db(opts);
    width = db.thread_pool().num_threads();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(width, 1u);
}

}  // namespace
}  // namespace fungusdb
