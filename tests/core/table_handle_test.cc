#include "core/table_handle.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "core/database.h"
#include "fungus/retention_fungus.h"

namespace fungusdb {
namespace {

Schema TwoColumnSchema() {
  return Schema::Make({{"id", DataType::kInt64, false},
                       {"note", DataType::kString, true}})
      .value();
}

TEST(TableHandleTest, DefaultHandleIsInvalid) {
  TableHandle handle;
  EXPECT_FALSE(handle.valid());
}

TEST(TableHandleTest, CreateTableReturnsLiveHandle) {
  Database db;
  const TableHandle handle =
      db.CreateTable("readings", TwoColumnSchema()).value();
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.name(), "readings");
  EXPECT_EQ(handle.schema().num_fields(), 2u);
  EXPECT_EQ(handle.live_rows(), 0u);
}

TEST(TableHandleTest, GetTableReturnsSameUnderlyingTable) {
  Database db;
  FUNGUSDB_CHECK_OK(db.CreateTable("readings", TwoColumnSchema()).status());
  const TableHandle handle = db.GetTable("readings").value();
  ASSERT_TRUE(handle.valid());

  FUNGUSDB_CHECK_OK(
      db.Insert("readings", {Value::Int64(1), Value::String("spore")})
          .status());
  // The handle observes mutations made through the facade.
  EXPECT_EQ(handle.live_rows(), 1u);
  EXPECT_EQ(handle.total_appended(), 1u);
}

TEST(TableHandleTest, GetTableForMissingTableIsTypedError) {
  Database db;
  const Result<TableHandle> missing = db.GetTable("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().error_code(), ErrorCode::kTableNotFound);
}

TEST(TableHandleTest, StatisticsTrackDecay) {
  Database db;
  const TableHandle handle =
      db.CreateTable("readings", TwoColumnSchema()).value();
  FUNGUSDB_CHECK_OK(db.AttachFungus("readings",
                                    std::make_unique<RetentionFungus>(kDay),
                                    /*period=*/kHour)
                        .status());
  for (int64_t i = 0; i < 4; ++i) {
    FUNGUSDB_CHECK_OK(
        db.Insert("readings", {Value::Int64(i), Value::Null()}).status());
  }
  EXPECT_EQ(handle.live_rows(), 4u);
  FUNGUSDB_CHECK_OK(db.AdvanceTime(3 * kDay).status());
  EXPECT_EQ(handle.live_rows(), 0u);
  EXPECT_EQ(handle.rows_killed(), 4u);
  EXPECT_EQ(handle.total_appended(), 4u);
}

}  // namespace
}  // namespace fungusdb
