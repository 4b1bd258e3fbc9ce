#include "verify/invariant_checker.h"

#include <cstdlib>
#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "core/database.h"
#include "fungus/retention_fungus.h"
#include "verify/corruptor.h"

namespace fungusdb {
namespace {

using verify::InvariantChecker;
using verify::Report;
using verify::Violation;

Schema TwoColSchema() {
  return Schema::Make({{"k", DataType::kInt64, false},
                       {"v", DataType::kString, true}})
      .value();
}

/// A small sharded table with known geometry: 4 rows per segment,
/// 2 shards, 16 rows → segments 0..3, dealt 0,2 → shard 0 and
/// 1,3 → shard 1.
Table MakeTable() {
  TableOptions options;
  options.rows_per_segment = 4;
  options.num_shards = 2;
  Table table("t", TwoColSchema(), options);
  for (int i = 0; i < 16; ++i) {
    table
        .Append({Value::Int64(i), Value::String("r" + std::to_string(i))},
                /*now=*/static_cast<Timestamp>(i))
        .value();
  }
  return table;
}

/// First violation matching `invariant`, if any.
std::optional<Violation> FindViolation(const Report& report,
                                       const std::string& invariant) {
  for (const Violation& v : report.violations) {
    if (v.invariant == invariant) return v;
  }
  return std::nullopt;
}

TEST(InvariantCheckerTest, CleanTablePasses) {
  Table table = MakeTable();
  // Exercise the mutation paths the checker audits: decay, kills, and
  // a reclaimed segment.
  for (RowId row = 0; row < 4; ++row) {
    ASSERT_TRUE(table.Kill(row).ok());
  }
  ASSERT_TRUE(table.SetFreshness(7, 0.5).ok());
  ASSERT_TRUE(table.DecayFreshness(9, 0.25).ok());
  EXPECT_EQ(table.ReclaimDeadSegments(), 1u);

  const Report report = InvariantChecker().CheckTable(table);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.tables_checked, 1u);
  EXPECT_EQ(report.segments_checked, 3u);
  EXPECT_TRUE(report.ToStatus().ok());
}

TEST(InvariantCheckerTest, DetectsCorruptFreshnessWithCoordinates) {
  Table table = MakeTable();
  // Row 9 lives in segment 2 (9 / 4), which round-robins to shard 0.
  ASSERT_TRUE(TestCorruptor::CorruptFreshness(table, 9, 1.5).ok());

  const Report report = InvariantChecker().CheckTable(table);
  ASSERT_FALSE(report.ok());
  const auto v = FindViolation(report, "freshness-range");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->shard, 0);
  EXPECT_EQ(v->segment, 2);
  EXPECT_EQ(v->row, 9);
  EXPECT_FALSE(report.ToStatus().ok());
}

TEST(InvariantCheckerTest, DetectsResurrectedRowWithCoordinates) {
  Table table = MakeTable();
  // Kill row 6 (segment 1 → shard 1), then flip its alive flag back.
  ASSERT_TRUE(table.Kill(6).ok());
  ASSERT_TRUE(TestCorruptor::ResurrectRow(table, 6).ok());

  const Report report = InvariantChecker().CheckTable(table);
  const auto v = FindViolation(report, "resurrected-row");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->shard, 1);
  EXPECT_EQ(v->segment, 1);
  EXPECT_EQ(v->row, 6);
}

TEST(InvariantCheckerTest, DetectsMisassignedSegment) {
  Table table = MakeTable();
  // Segment 3 belongs to shard 1 (3 % 2); move it to shard 0.
  ASSERT_TRUE(TestCorruptor::MisassignSegment(table, 3).ok());

  const Report report = InvariantChecker().CheckTable(table);
  const auto v = FindViolation(report, "shard-round-robin");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->shard, 0);  // the shard it was found in
  EXPECT_EQ(v->segment, 3);
}

TEST(InvariantCheckerTest, DetectsColumnLengthMismatch) {
  Table table = MakeTable();
  // Overfill user column 1 of segment 2 (shard 0) with a phantom cell.
  ASSERT_TRUE(TestCorruptor::OverfillColumn(table, 2, 1).ok());

  const Report report = InvariantChecker().CheckTable(table);
  const auto v = FindViolation(report, "column-length");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->shard, 0);
  EXPECT_EQ(v->segment, 2);
  EXPECT_EQ(v->column, 1);
}

TEST(InvariantCheckerTest, DetectsStaleZoneMapWithCoordinates) {
  Table table = MakeTable();
  // Narrow segment 2's insertion-time bounds past its stored rows — the
  // staleness a missed widening would leave, which would make the
  // pruning planner skip rows that should match.
  ASSERT_TRUE(TestCorruptor::StaleZoneMap(table, 2).ok());

  const Report report = InvariantChecker().CheckTable(table);
  const auto v = FindViolation(report, "zone-map-bounds");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->shard, 0);
  EXPECT_EQ(v->segment, 2);
}

TEST(InvariantCheckerTest, RecomputeRepairsStaleZoneMap) {
  Table table = MakeTable();
  ASSERT_TRUE(TestCorruptor::StaleZoneMap(table, 2).ok());
  ASSERT_FALSE(InvariantChecker().CheckTable(table).ok());
  table.RecomputeZoneMaps();
  const Report report = InvariantChecker().CheckTable(table);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantCheckerTest, ZoneMapRuleToleratesConservativeBounds) {
  // Widened-but-not-tight bounds are legal (the maintenance contract is
  // "cover", not "exact"): decayed freshness leaves max_f at 1.0 until
  // a recount, and the checker must not flag that.
  Table table = MakeTable();
  for (RowId row = 4; row < 8; ++row) {
    ASSERT_TRUE(table.SetFreshness(row, 0.3).ok());
  }
  const Report report = InvariantChecker().CheckTable(table);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantCheckerTest, CorruptionBreaksMultipleAccountingRules) {
  Table table = MakeTable();
  // A resurrected row also desynchronizes the cached live counts and
  // the live-iteration count — the checker reports those too, so a
  // single root cause shows up at every level it violates.
  ASSERT_TRUE(table.Kill(6).ok());
  ASSERT_TRUE(TestCorruptor::ResurrectRow(table, 6).ok());

  const Report report = InvariantChecker().CheckTable(table);
  EXPECT_TRUE(FindViolation(report, "segment-live-count").has_value())
      << report.ToString();
}

TEST(InvariantCheckerTest, ViolationListIsCapped) {
  Table table = MakeTable();
  for (RowId row = 0; row < 16; ++row) {
    ASSERT_TRUE(TestCorruptor::CorruptFreshness(table, row, 2.0).ok());
  }
  InvariantChecker::Options options;
  options.max_violations = 3;
  const Report report = InvariantChecker(options).CheckTable(table);
  EXPECT_EQ(report.violations.size(), 3u);
  EXPECT_TRUE(report.truncated);
}

TEST(InvariantCheckerTest, ViolationToStringCarriesCoordinates) {
  Table table = MakeTable();
  ASSERT_TRUE(TestCorruptor::CorruptFreshness(table, 9, -0.5).ok());
  const Report report = InvariantChecker().CheckTable(table);
  const auto v = FindViolation(report, "freshness-range");
  ASSERT_TRUE(v.has_value());
  const std::string text = v->ToString();
  EXPECT_NE(text.find("'t'"), std::string::npos) << text;
  EXPECT_NE(text.find("segment 2"), std::string::npos) << text;
  EXPECT_NE(text.find("row 9"), std::string::npos) << text;
  EXPECT_NE(text.find("freshness-range"), std::string::npos) << text;
}

TEST(InvariantCheckerTest, DatabaseFsckCoversAllTablesAndCellar) {
  Database db;
  db.CreateTable("a", TwoColSchema()).value();
  db.CreateTable("b", TwoColSchema()).value();
  db.Insert("a", {Value::Int64(1), Value::Null()}).value();

  const Report report = db.Fsck();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.tables_checked, 2u);
  EXPECT_EQ(report.rows_checked, 1u);
}

TEST(InvariantCheckerTest, CheckAfterTickStaysCleanThroughDecay) {
  // With the post-tick hook armed, every decay tick re-verifies the
  // table; any violation aborts the process, so reaching the end of
  // this test proves the full decay/reclaim path preserves invariants.
  DatabaseOptions options;
  Database db(options);
  db.EnableCheckAfterTick();
  TableOptions topts;
  topts.rows_per_segment = 8;
  topts.num_shards = 4;
  db.CreateTable("events", TwoColSchema(), topts).value();
  db.AttachFungus("events", std::make_unique<RetentionFungus>(4 * kHour),
                  kHour)
      .value();
  for (int i = 0; i < 64; ++i) {
    db.Insert("events",
              {Value::Int64(i), Value::String(std::to_string(i))})
        .value();
    db.AdvanceTime(30 * kMinute).value();
  }
  EXPECT_LT(db.GetTable("events").value().live_rows(), 64u);
  EXPECT_TRUE(db.Fsck().ok());
}

TEST(InvariantCheckerTest, DetectsCorruptPendingDecayWithCoordinates) {
  Table table = MakeTable();
  // Segment 1 (rows 4..7) round-robins to shard 1.
  ASSERT_TRUE(TestCorruptor::CorruptPendingDecay(table, 1).ok());

  const Report report = InvariantChecker().CheckTable(table);
  ASSERT_FALSE(report.ok());
  const auto v = FindViolation(report, "decay-epoch");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->shard, 1);
  EXPECT_EQ(v->segment, 1);
  // The seeded corruption trips both arms: the segment's epoch runs
  // ahead of its shard's counter, and the oversized decrement defers a
  // death past the fold barrier.
  size_t decay_epoch_violations = 0;
  for (const Violation& violation : report.violations) {
    if (violation.invariant == "decay-epoch") ++decay_epoch_violations;
  }
  EXPECT_EQ(decay_epoch_violations, 2u) << report.ToString();
}

TEST(InvariantCheckerTest, LegitimateFoldPassesDecayEpochRule) {
  Table table = MakeTable();
  // A real fold through the apply-phase API: epoch advanced first, a
  // decrement the zone map proves safe, rows untouched.
  table.AdvanceDecayEpochs();
  ASSERT_TRUE(table.TryFoldUniformDecay(/*seg_no=*/1, /*delta=*/0.25));

  const Report report = InvariantChecker().CheckTable(table);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(InvariantCheckerTest, StringDictionaryRuleCatchesEachDamage) {
  using Damage = TestCorruptor::DictionaryDamage;
  struct Case {
    Damage damage;
    const char* detail;  // a phrase the violation must carry
    int64_t row;         // expected row coordinate
  };
  // Segment 1 holds rows 4..7; row 5 is null (see below). Segment 3 is
  // the open tail, whose column still has its append index.
  for (const uint64_t seg_no : {1u, 3u}) {
    const RowId first = seg_no * 4;
    for (const Case& c :
         {Case{Damage::kCodeOutOfRange, "escapes", static_cast<int64_t>(first)},
          Case{Damage::kDuplicateEntry, "repeats", -1},
          Case{Damage::kNullNotEmpty, "null cell",
               static_cast<int64_t>(first + 1)}}) {
      TableOptions options;
      options.rows_per_segment = 4;
      options.num_shards = 2;
      Table table("t", TwoColSchema(), options);
      for (int i = 0; i < 15; ++i) {
        const Value v = i % 4 == 1 ? Value::Null()
                                   : Value::String(i % 2 ? "odd" : "even");
        table.Append({Value::Int64(i), v}, static_cast<Timestamp>(i)).value();
      }
      ASSERT_TRUE(InvariantChecker().CheckTable(table).ok());
      ASSERT_TRUE(
          TestCorruptor::CorruptStringDictionary(table, seg_no, 1, c.damage)
              .ok());

      const Report report = InvariantChecker().CheckTable(table);
      const auto v = FindViolation(report, "string-dictionary");
      ASSERT_TRUE(v.has_value()) << c.detail << "\n" << report.ToString();
      EXPECT_EQ(v->segment, static_cast<int64_t>(seg_no));
      EXPECT_EQ(v->column, 1);
      EXPECT_EQ(v->row, c.row) << v->ToString();
      EXPECT_NE(v->detail.find(c.detail), std::string::npos) << v->detail;
    }
  }
}

TEST(InvariantCheckerTest, StringDictionarySeederRefusesWrongTargets) {
  Table table = MakeTable();
  using Damage = TestCorruptor::DictionaryDamage;
  // Column 0 is int64; no cell of column 1 is null.
  EXPECT_FALSE(TestCorruptor::CorruptStringDictionary(
                   table, 0, 0, Damage::kCodeOutOfRange)
                   .ok());
  EXPECT_FALSE(TestCorruptor::CorruptStringDictionary(table, 0, 1,
                                                      Damage::kNullNotEmpty)
                   .ok());
  ASSERT_EQ(table.FreezeColdSegments(0), 4u);
  EXPECT_FALSE(TestCorruptor::CorruptStringDictionary(
                   table, 0, 1, Damage::kCodeOutOfRange)
                   .ok());
}

TEST(InvariantCheckerTest, SchedulerReportsInstalledHook) {
  Database db;
  // FUNGUSDB_CHECK_AFTER_TICK=1 (the sanitizer-job configuration) arms
  // the hook from the constructor; without it, arming is explicit.
  const char* env = std::getenv("FUNGUSDB_CHECK_AFTER_TICK");
  const bool armed_by_env =
      env != nullptr && *env != '\0' && std::string(env) != "0";
  EXPECT_EQ(db.scheduler().has_post_tick_check(), armed_by_env);
  db.EnableCheckAfterTick();
  EXPECT_TRUE(db.scheduler().has_post_tick_check());
}

}  // namespace
}  // namespace fungusdb
