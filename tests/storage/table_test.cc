#include "storage/table.h"

#include <gtest/gtest.h>

namespace fungusdb {
namespace {

Schema ReadingSchema() {
  return Schema::Make({{"sensor", DataType::kInt64, false},
                       {"temp", DataType::kFloat64, true}})
      .value();
}

Table MakeSmallTable(size_t rows_per_segment = 4) {
  TableOptions opts;
  opts.rows_per_segment = rows_per_segment;
  return Table("t", ReadingSchema(), opts);
}

std::vector<Value> Row(int64_t sensor, double temp) {
  return {Value::Int64(sensor), Value::Float64(temp)};
}

TEST(TableTest, AppendAssignsSequentialRowIds) {
  Table t = MakeSmallTable();
  EXPECT_EQ(t.Append(Row(1, 1.0), 10).value(), 0u);
  EXPECT_EQ(t.Append(Row(2, 2.0), 20).value(), 1u);
  EXPECT_EQ(t.total_appended(), 2u);
  EXPECT_EQ(t.live_rows(), 2u);
}

TEST(TableTest, AppendValidatesArity) {
  Table t = MakeSmallTable();
  Result<RowId> r = t.Append({Value::Int64(1)}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendValidatesTypes) {
  Table t = MakeSmallTable();
  Result<RowId> r = t.Append({Value::String("no"), Value::Float64(1.0)}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch);
}

TEST(TableTest, AppendValidatesNullability) {
  Table t = MakeSmallTable();
  // temp is nullable, sensor is not.
  EXPECT_TRUE(t.Append({Value::Int64(1), Value::Null()}, 0).ok());
  Result<RowId> r = t.Append({Value::Null(), Value::Float64(1.0)}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, FreshnessLifecycle) {
  Table t = MakeSmallTable();
  const RowId row = t.Append(Row(1, 1.0), 0).value();
  EXPECT_DOUBLE_EQ(t.Freshness(row), 1.0);
  ASSERT_TRUE(t.SetFreshness(row, 0.4).ok());
  EXPECT_DOUBLE_EQ(t.Freshness(row), 0.4);
  ASSERT_TRUE(t.DecayFreshness(row, 0.3).ok());
  EXPECT_NEAR(t.Freshness(row), 0.1, 1e-12);
  ASSERT_TRUE(t.DecayFreshness(row, 0.5).ok());
  EXPECT_FALSE(t.IsLive(row));
  EXPECT_DOUBLE_EQ(t.Freshness(row), 0.0);
  EXPECT_EQ(t.live_rows(), 0u);
  EXPECT_EQ(t.rows_killed(), 1u);
}

TEST(TableTest, MutationsOnDeadRowsFail) {
  Table t = MakeSmallTable();
  const RowId row = t.Append(Row(1, 1.0), 0).value();
  ASSERT_TRUE(t.Kill(row).ok());
  EXPECT_EQ(t.SetFreshness(row, 0.5).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.DecayFreshness(row, 0.1).code(),
            StatusCode::kFailedPrecondition);
  // Kill on dead is OK (idempotent) but does not double count.
  EXPECT_TRUE(t.Kill(row).ok());
  EXPECT_EQ(t.rows_killed(), 1u);
}

TEST(TableTest, NegativeDecayRejected) {
  Table t = MakeSmallTable();
  const RowId row = t.Append(Row(1, 1.0), 0).value();
  EXPECT_EQ(t.DecayFreshness(row, -0.1).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, UnknownRowsFail) {
  Table t = MakeSmallTable();
  EXPECT_FALSE(t.IsLive(99));
  EXPECT_EQ(t.SetFreshness(99, 0.5).code(), StatusCode::kNotFound);
  EXPECT_FALSE(t.InsertTime(99).ok());
  EXPECT_FALSE(t.GetValue(99, 0).ok());
}

TEST(TableTest, GetValueAndByName) {
  Table t = MakeSmallTable();
  const RowId row = t.Append(Row(7, 21.5), 1234).value();
  EXPECT_EQ(t.GetValue(row, 0).value().AsInt64(), 7);
  EXPECT_DOUBLE_EQ(t.GetValue(row, 1).value().AsFloat64(), 21.5);
  EXPECT_EQ(t.GetValueByName(row, "sensor").value().AsInt64(), 7);
  EXPECT_EQ(t.GetValueByName(row, "__ts").value().AsTimestamp(), 1234);
  EXPECT_DOUBLE_EQ(t.GetValueByName(row, "__freshness").value().AsFloat64(),
                   1.0);
  EXPECT_FALSE(t.GetValueByName(row, "nope").ok());
  EXPECT_FALSE(t.GetValue(row, 5).ok());
}

TEST(TableTest, SpansMultipleSegments) {
  Table t = MakeSmallTable(/*rows_per_segment=*/4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Append(Row(i, i * 1.0), i).ok());
  }
  EXPECT_EQ(t.num_segments(), 3u);
  EXPECT_EQ(t.live_rows(), 10u);
  EXPECT_EQ(t.GetValue(9, 0).value().AsInt64(), 9);
}

TEST(TableTest, OldestAndNewestLive) {
  Table t = MakeSmallTable();
  EXPECT_FALSE(t.OldestLive().has_value());
  for (int i = 0; i < 6; ++i) t.Append(Row(i, 0.0), i).value();
  EXPECT_EQ(t.OldestLive().value(), 0u);
  EXPECT_EQ(t.NewestLive().value(), 5u);
  ASSERT_TRUE(t.Kill(0).ok());
  ASSERT_TRUE(t.Kill(5).ok());
  EXPECT_EQ(t.OldestLive().value(), 1u);
  EXPECT_EQ(t.NewestLive().value(), 4u);
}

TEST(TableTest, PrevNextLiveSkipDead) {
  Table t = MakeSmallTable(/*rows_per_segment=*/3);
  for (int i = 0; i < 9; ++i) t.Append(Row(i, 0.0), i).value();
  // Kill rows 3, 4, 5 (a whole middle segment).
  for (RowId r : {3, 4, 5}) ASSERT_TRUE(t.Kill(r).ok());
  EXPECT_EQ(t.NextLive(2).value(), 6u);
  EXPECT_EQ(t.PrevLive(6).value(), 2u);
  EXPECT_EQ(t.NextLive(8), std::nullopt);
  EXPECT_EQ(t.PrevLive(0), std::nullopt);
}

TEST(TableTest, PrevNextLiveAfterReclaim) {
  Table t = MakeSmallTable(/*rows_per_segment=*/3);
  for (int i = 0; i < 9; ++i) t.Append(Row(i, 0.0), i).value();
  for (RowId r : {3, 4, 5}) ASSERT_TRUE(t.Kill(r).ok());
  EXPECT_EQ(t.ReclaimDeadSegments(), 1u);
  EXPECT_EQ(t.num_segments(), 2u);
  EXPECT_FALSE(t.Contains(4));
  EXPECT_EQ(t.NextLive(2).value(), 6u);
  EXPECT_EQ(t.PrevLive(6).value(), 2u);
}

TEST(TableTest, ForEachLiveVisitsInInsertionOrder) {
  Table t = MakeSmallTable(/*rows_per_segment=*/4);
  for (int i = 0; i < 10; ++i) t.Append(Row(i, 0.0), i).value();
  ASSERT_TRUE(t.Kill(2).ok());
  ASSERT_TRUE(t.Kill(7).ok());
  std::vector<RowId> seen;
  t.ForEachLive([&](RowId row) { seen.push_back(row); });
  const std::vector<RowId> expected{0, 1, 3, 4, 5, 6, 8, 9};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(t.LiveRows(), expected);
}

TEST(TableTest, ReclaimOnlyFullDeadSegments) {
  Table t = MakeSmallTable(/*rows_per_segment=*/4);
  for (int i = 0; i < 6; ++i) t.Append(Row(i, 0.0), i).value();
  // Segment 0 holds rows 0-3 (full), segment 1 holds rows 4-5 (open).
  for (RowId r : {4, 5}) ASSERT_TRUE(t.Kill(r).ok());
  // Open tail segment is never reclaimed even when fully dead.
  EXPECT_EQ(t.ReclaimDeadSegments(), 0u);
  for (RowId r : {0, 1, 2, 3}) ASSERT_TRUE(t.Kill(r).ok());
  EXPECT_EQ(t.ReclaimDeadSegments(), 1u);
  EXPECT_EQ(t.num_segments(), 1u);
}

TEST(TableTest, LiveSegmentsListsInsertionOrder) {
  Table t = MakeSmallTable(/*rows_per_segment=*/2);
  for (int i = 0; i < 12; ++i) t.Append(Row(i, 0.0), i).value();
  ASSERT_TRUE(t.Kill(4).ok());
  ASSERT_TRUE(t.Kill(5).ok());  // segment 2 fully dead (not reclaimed yet)
  const std::vector<const Segment*> segs = t.LiveSegments();
  ASSERT_EQ(segs.size(), 5u);
  for (size_t i = 0; i < segs.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(segs[i]->first_row(), segs[i - 1]->first_row());
    }
    EXPECT_GT(segs[i]->live_count(), 0u);
  }
}

TEST(TableTest, MemoryShrinksAfterReclaim) {
  Table t = MakeSmallTable(/*rows_per_segment=*/256);
  for (int i = 0; i < 2048; ++i) t.Append(Row(i, 1.0), i).value();
  const size_t before = t.MemoryUsage();
  for (RowId r = 0; r < 1024; ++r) ASSERT_TRUE(t.Kill(r).ok());
  t.ReclaimDeadSegments();
  EXPECT_LT(t.MemoryUsage(), before);
}

TEST(TableTest, AccessTracking) {
  TableOptions opts;
  opts.rows_per_segment = 4;
  opts.track_access = true;
  Table t("t", ReadingSchema(), opts);
  const RowId row = t.Append(Row(1, 1.0), 0).value();
  t.RecordAccess(row);
  t.RecordAccess(row);
  EXPECT_EQ(t.AccessCount(row), 2u);
}

TEST(TableTest, KillConservation) {
  // live_rows + rows_killed == total_appended, always.
  Table t = MakeSmallTable(/*rows_per_segment=*/8);
  for (int i = 0; i < 64; ++i) t.Append(Row(i, 0.0), i).value();
  for (RowId r = 0; r < 64; r += 3) ASSERT_TRUE(t.Kill(r).ok());
  EXPECT_EQ(t.live_rows() + t.rows_killed(), t.total_appended());
  t.ReclaimDeadSegments();
  EXPECT_EQ(t.live_rows() + t.rows_killed(), t.total_appended());
}

}  // namespace
}  // namespace fungusdb
