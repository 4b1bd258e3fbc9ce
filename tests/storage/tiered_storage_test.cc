// Tiered compressed segments (DESIGN.md §15): freezing a cold segment
// into the encoded tier and thawing it on a mutating touch must be
// invisible to every observer — same cell values, same freshness, same
// query answers, same snapshot bytes after normalization. These suites
// pin that contract four ways: direct freeze/thaw round-trips, a
// randomized freeze-on/off differential, snapshot format coverage
// (v2 compat, v3 frozen blocks, incremental splicing), and fsck
// detection of corrupted encoded blocks. The *TieredStorage* suite
// names are load-bearing: CI's TSan job selects them by regex.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_io.h"
#include "common/random.h"
#include "core/database.h"
#include "core/session.h"
#include "fungus/retention_fungus.h"
#include "fungus/rot_analysis.h"
#include "persist/fsck.h"
#include "persist/snapshot.h"
#include "query/engine.h"
#include "query/parser.h"
#include "storage/encode/frozen.h"
#include "storage/table.h"
#include "storage/value_serde.h"
#include "verify/corruptor.h"
#include "verify/invariant_checker.h"

namespace fungusdb {
namespace {

using verify::InvariantChecker;
using verify::Report;
using verify::Violation;

Schema MixedSchema() {
  return Schema::Make({{"k", DataType::kInt64, false},
                       {"s", DataType::kString, true},
                       {"v", DataType::kFloat64, false}})
      .value();
}

/// 16 rows over 4 full segments (4 rows each), every column
/// kind the encoder special-cases: int64 (FOR), string (dict + RLE,
/// with nulls), float64 (raw).
Table MakeFreezableTable() {
  TableOptions options;
  options.rows_per_segment = 4;
  Table table("t", MixedSchema(), options);
  for (int i = 0; i < 16; ++i) {
    std::vector<Value> row = {
        Value::Int64(i * 1000),
        i % 5 == 0 ? Value::Null()
                   : Value::String("unit-" + std::to_string(i % 3)),
        Value::Float64(i * 0.25)};
    table.Append(row, /*now=*/static_cast<Timestamp>(i)).value();
  }
  return table;
}

/// Full per-row observable state, tier-independent: one rendered line
/// per live row. Comparing these proves bit-identity without caring
/// which representation a segment currently uses.
std::vector<std::string> ObservableRows(const Table& table) {
  std::vector<std::string> out;
  table.ForEachLive([&](RowId row) {
    std::string line = std::to_string(row) + "|" +
                       std::to_string(table.InsertTime(row).value()) +
                       "|" + std::to_string(table.Freshness(row));
    for (size_t c = 0; c < table.schema().num_fields(); ++c) {
      line += "|" + table.GetValue(row, c).value().ToString();
    }
    out.push_back(std::move(line));
  });
  return out;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------
// Direct freeze/thaw round-trips on a bare table.

TEST(TieredStorageTest, FreezeThawRoundTripIsBitIdentical) {
  Table table = MakeFreezableTable();
  ASSERT_TRUE(table.Kill(5).ok());
  ASSERT_TRUE(table.SetFreshness(9, 0.375).ok());
  const std::vector<std::string> before = ObservableRows(table);

  EXPECT_EQ(table.FreezeColdSegments(0), 4u);
  const StorageStats frozen = table.GetStorageStats();
  EXPECT_EQ(frozen.frozen_segments, 4u);
  EXPECT_GT(frozen.encoded_bytes, 0u);
  // No compression claim at 4-row toy segments — the encoding's fixed
  // structs dominate there. bench_t9/bench_t1 pin the ratio at real
  // segment sizes; this suite pins correctness.
  EXPECT_GT(frozen.plain_bytes_before, 0u);
  EXPECT_EQ(ObservableRows(table), before);
  EXPECT_TRUE(InvariantChecker().CheckTable(table).ok());

  // Any mutating touch thaws transparently; the plain tier that comes
  // back must be the one that went in.
  ASSERT_TRUE(table.SetFreshness(1, 0.5).ok());
  ASSERT_TRUE(table.Kill(14).ok());
  const StorageStats thawed = table.GetStorageStats();
  EXPECT_EQ(thawed.frozen_segments, 2u);
  EXPECT_EQ(thawed.thaw_count, 2u);
  EXPECT_DOUBLE_EQ(table.Freshness(1), 0.5);
  EXPECT_FALSE(table.IsLive(14));
  EXPECT_TRUE(InvariantChecker().CheckTable(table).ok());
}

TEST(TieredStorageTest, QueriesScanFrozenSegmentsWithoutThawing) {
  Table table = MakeFreezableTable();
  ASSERT_EQ(table.FreezeColdSegments(0), 4u);

  QueryEngine engine{QueryEngineOptions{}};
  struct Case {
    const char* sql;
    int64_t want;
  };
  const Case cases[] = {
      // Full decode over every frozen segment.
      {"SELECT count(*) AS n FROM t WHERE k >= 0", 16},
      // FOR zone maps prune all but the last segment without decoding.
      {"SELECT count(*) AS n FROM t WHERE k >= 12000", 4},
      // Dictionary path: string equality over RLE codes. i%3==1 gives
      // rows {1,4,7,10,13}; row 10 is null (i%5==0), leaving 4.
      {"SELECT count(*) AS n FROM t WHERE s = 'unit-1'", 4},
  };
  for (const Case& c : cases) {
    Query q = ParseQuery(c.sql).value();
    ResultSet rs = engine.Execute(q, table, 0).value();
    EXPECT_EQ(rs.at(0, 0).AsInt64(), c.want) << c.sql;
  }

  // Reads are not touches: everything is still frozen, nothing thawed.
  const StorageStats st = table.GetStorageStats();
  EXPECT_EQ(st.frozen_segments, 4u);
  EXPECT_EQ(st.thaw_count, 0u);
}

// ---------------------------------------------------------------------
// Randomized differential: a database with the freeze policy on must be
// observably bit-identical to one with it off, across inserts, decay
// ticks (which kill and therefore thaw), queries, and snapshots.

std::unique_ptr<Database> MakeDb(bool freeze) {
  auto db = std::make_unique<Database>();
  TableOptions opts;
  opts.rows_per_segment = 8;
  opts.freeze_after_idle_ticks = freeze ? 1 : 0;
  FUNGUSDB_CHECK_OK(db->CreateTable("r", MixedSchema(), opts).status());
  FUNGUSDB_CHECK_OK(
      db->AttachFungus("r", std::make_unique<RetentionFungus>(8 * kHour),
                       /*interval=*/kHour)
          .status());
  return db;
}

const Table& TableOf(Database& db) {
  return db.GetTable("r").value().table();
}

void ExpectSameAnswers(Database& frozen, Database& plain) {
  static const char* const kQueries[] = {
      "SELECT k, s, v FROM r",
      "SELECT k FROM r WHERE __freshness > 0.6",
      "SELECT count(*) AS n FROM r WHERE v >= 0.5",
      "SELECT count(*) AS n FROM r WHERE s = 'unit-1'",
  };
  for (const char* sql : kQueries) {
    ResultSet a = frozen.ExecuteSql(sql).value();
    ResultSet b = plain.ExecuteSql(sql).value();
    ASSERT_EQ(a.num_rows(), b.num_rows()) << sql;
    for (size_t i = 0; i < a.num_rows(); ++i) {
      for (size_t j = 0; j < a.num_columns(); ++j) {
        ASSERT_TRUE(a.at(i, j).Equals(b.at(i, j)))
            << sql << " row " << i << " col " << j;
      }
    }
  }
}

/// Snapshots of the two sides are NOT byte-identical — one writes
/// frozen blocks, the other flat rows. Loading normalizes (everything
/// loads plain), so serialize(load(x)) is the canonical form.
void ExpectNormalizedSnapshotsIdentical(Database& frozen, Database& plain) {
  BufferWriter raw_frozen, raw_plain;
  SerializeDatabase(frozen, raw_frozen);
  SerializeDatabase(plain, raw_plain);

  BufferReader read_frozen(raw_frozen.buffer());
  BufferReader read_plain(raw_plain.buffer());
  std::unique_ptr<Database> a = DeserializeDatabase(read_frozen).value();
  std::unique_ptr<Database> b = DeserializeDatabase(read_plain).value();
  BufferWriter norm_a, norm_b;
  SerializeDatabase(*a, norm_a);
  SerializeDatabase(*b, norm_b);
  ASSERT_EQ(norm_a.buffer(), norm_b.buffer());
}

TEST(TieredStorageTest, FrozenMemoryUsageCountsEachStructOnce) {
  // `ts`, `alive` and every column's validity and payload are inline
  // members, inside their owner's sizeof: with every buffer empty the
  // image holds its own struct and the column array's slots, no more.
  encode::FrozenSegment fz;
  fz.columns.resize(4);
  fz.columns[1].type = DataType::kFloat64;
  fz.columns[2].type = DataType::kString;
  fz.columns[3].type = DataType::kBool;
  EXPECT_EQ(fz.MemoryUsage(),
            sizeof(encode::FrozenSegment) +
                fz.columns.capacity() * sizeof(encode::FrozenColumn));
}

TEST(TieredStorageDifferentialTest, FreezeOnVsOffIsBitIdentical) {
  for (const uint64_t seed : {7ull, 99ull, 20260808ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::unique_ptr<Database> frozen = MakeDb(true);
    std::unique_ptr<Database> plain = MakeDb(false);

    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint64_t op = rng.NextBounded(100);
      if (op < 40) {
        const int batch = static_cast<int>(rng.NextBounded(8)) + 1;
        for (int i = 0; i < batch; ++i) {
          const int64_t k = rng.NextInt(0, 9);
          std::vector<Value> row = {
              Value::Int64(k),
              k == 0 ? Value::Null()
                     : Value::String("unit-" + std::to_string(k % 3)),
              Value::Float64(rng.NextDouble())};
          FUNGUSDB_CHECK_OK(frozen->Insert("r", row).status());
          FUNGUSDB_CHECK_OK(plain->Insert("r", row).status());
        }
      } else if (op < 80) {
        // Multi-tick jumps age segments past the idle threshold (so the
        // frozen side really freezes) and past the retention horizon
        // (so decay kills force thaws).
        const Duration d =
            static_cast<Duration>(rng.NextBounded(6) + 1) * kHour;
        FUNGUSDB_CHECK_OK(frozen->AdvanceTime(d).status());
        FUNGUSDB_CHECK_OK(plain->AdvanceTime(d).status());
      } else if (op < 92) {
        ExpectSameAnswers(*frozen, *plain);
      } else {
        ExpectNormalizedSnapshotsIdentical(*frozen, *plain);
      }
      ASSERT_EQ(ObservableRows(TableOf(*frozen)),
                ObservableRows(TableOf(*plain)));
    }

    EXPECT_TRUE(frozen->Fsck().ok());
    EXPECT_TRUE(plain->Fsck().ok());

    // Logical rot analysis is tier-blind; only the physical tier
    // annotation may differ between the two sides.
    const RotReport fr =
        BuildRotReport(TableOf(*frozen), &frozen->scheduler());
    const RotReport pr =
        BuildRotReport(TableOf(*plain), &plain->scheduler());
    EXPECT_EQ(fr.structure.live_tuples, pr.structure.live_tuples);
    EXPECT_EQ(fr.structure.dead_tuples, pr.structure.dead_tuples);
    EXPECT_EQ(fr.freshness_histogram, pr.freshness_histogram);
    EXPECT_EQ(fr.oldest_live_ts, pr.oldest_live_ts);
    EXPECT_EQ(fr.heatmap, pr.heatmap);

    // The mechanisms must actually have diverged: the freeze side froze
    // (and, via retention kills, thawed) segments; the off side never
    // touched the encoded tier.
    const StorageStats fs = TableOf(*frozen).GetStorageStats();
    const StorageStats ps = TableOf(*plain).GetStorageStats();
    EXPECT_GT(fs.segments_frozen_total, 0u);
    EXPECT_GT(fs.thaw_count, 0u);
    EXPECT_EQ(ps.segments_frozen_total, 0u);
    EXPECT_EQ(ps.frozen_segments, 0u);
  }
}

// ---------------------------------------------------------------------
// Snapshot format coverage.

class TieredStorageSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    base_path_ = TempPath(name + ".base.fgdb");
    next_path_ = TempPath(name + ".next.fgdb");
  }
  void TearDown() override {
    std::remove(base_path_.c_str());
    std::remove(next_path_.c_str());
  }

  /// A database whose freeze policy has demonstrably fired: 32 rows,
  /// 4-row segments, one idle tick to freeze the cold prefix.
  std::unique_ptr<Database> MakeFrozenDb() {
    auto db = std::make_unique<Database>();
    TableOptions opts;
    opts.rows_per_segment = 4;
    opts.freeze_after_idle_ticks = 1;
    FUNGUSDB_CHECK_OK(db->CreateTable("r", MixedSchema(), opts).status());
    for (int i = 0; i < 32; ++i) {
      FUNGUSDB_CHECK_OK(
          db->Insert("r", {Value::Int64(i),
                           i % 7 == 0
                               ? Value::Null()
                               : Value::String("unit-" +
                                               std::to_string(i % 3)),
                           Value::Float64(i * 0.5)})
              .status());
    }
    // A horizon far past the test keeps every row alive; the ticks
    // exist to advance the decay epoch and run the freeze pass.
    FUNGUSDB_CHECK_OK(
        db->AttachFungus("r",
                         std::make_unique<RetentionFungus>(1000 * kHour),
                         /*interval=*/kHour)
            .status());
    FUNGUSDB_CHECK_OK(db->AdvanceTime(2 * kHour).status());
    EXPECT_GT(TableOf(*db).GetStorageStats().frozen_segments, 0u);
    return db;
  }

  std::string base_path_;
  std::string next_path_;
};

TEST_F(TieredStorageSnapshotTest, V3RoundTripPreservesFrozenData) {
  std::unique_ptr<Database> db = MakeFrozenDb();
  const std::vector<std::string> want = ObservableRows(TableOf(*db));
  ASSERT_TRUE(SaveDatabaseSnapshot(*db, base_path_).ok());

  // funguscheck's snapshot audit must accept a v3 file with frozen
  // blocks and find the restored database fsck-clean.
  const SnapshotAudit audit = AuditSnapshotFile(base_path_).value();
  EXPECT_EQ(audit.tables, 1u);
  EXPECT_TRUE(audit.fsck.ok()) << audit.fsck.ToString();

  std::unique_ptr<Database> loaded =
      LoadDatabaseSnapshot(base_path_).value();
  EXPECT_EQ(ObservableRows(TableOf(*loaded)), want);
  // Everything loads into the plain tier; the policy refreezes later.
  EXPECT_EQ(TableOf(*loaded).GetStorageStats().frozen_segments, 0u);
  EXPECT_TRUE(loaded->Fsck().ok());
}

TEST_F(TieredStorageSnapshotTest, FullSaveWritesEachBlockAsSerialized) {
  // A full save serializes each frozen block straight into the file and
  // patches its length in; the chunk must hold exactly the bytes and
  // the CRC that FrozenSegment::Serialize and the freeze produced.
  std::unique_ptr<Database> db = MakeFrozenDb();
  ASSERT_TRUE(SaveDatabaseSnapshot(*db, base_path_).ok());
  const SnapshotBlockIndex blocks =
      IndexSnapshotBlocks(SlurpFile(base_path_)).value();
  const Table& table = TableOf(*db);
  EXPECT_EQ(blocks.size(), table.GetStorageStats().frozen_segments);
  for (const auto& [seg_no, seg] : table.segments()) {
    if (!seg->is_frozen()) continue;
    SCOPED_TRACE("segment " + std::to_string(seg_no));
    auto it = blocks.find({"r", seg->first_row()});
    ASSERT_NE(it, blocks.end());
    BufferWriter want;
    seg->frozen().Serialize(want);
    EXPECT_EQ(it->second.payload, want.buffer());
    EXPECT_EQ(it->second.crc, seg->frozen().checksum);
    EXPECT_EQ(it->second.crc, encode::Crc32(it->second.payload));
  }
}

TEST_F(TieredStorageSnapshotTest, V2FlatSnapshotStillLoads) {
  // Hand-build a version-2 file: flat live-row list, no chunks. This is
  // the format PRs 1..8 wrote; upgrades must keep reading it.
  BufferWriter out;
  out.WriteString(std::string_view("FGDB", 4));
  out.WriteU32(2);
  out.WriteI64(0);        // virtual clock
  out.WriteDouble(0.05);  // cellar eviction threshold
  out.WriteBool(false);   // record_access
  out.WriteU64(1);        // one table
  out.WriteString("r");
  WriteSchema(out, MixedSchema());
  out.WriteU64(8);       // rows_per_segment
  out.WriteBool(false);  // track_access
  out.WriteU64(2);       // num_shards
  out.WriteU64(3);       // flat live-row count
  for (int i = 0; i < 3; ++i) {
    out.WriteI64(i);          // insert time
    out.WriteDouble(1.0);     // freshness
    WriteValue(out, Value::Int64(i));
    WriteValue(out, i == 1 ? Value::Null() : Value::String("unit-0"));
    WriteValue(out, Value::Float64(i * 2.0));
  }
  Database empty;  // a fresh cellar serializes the trailing section
  empty.cellar().Serialize(out);

  BufferReader in(out.buffer());
  std::unique_ptr<Database> db = DeserializeDatabase(in).value();
  const Table& t = TableOf(*db);
  EXPECT_EQ(t.live_rows(), 3u);
  EXPECT_TRUE(t.GetValue(1, 1).value().is_null());
  EXPECT_TRUE(
      t.GetValue(2, 1).value().Equals(Value::String("unit-0")));
  EXPECT_TRUE(db->Fsck().ok());
}

TEST_F(TieredStorageSnapshotTest, IncrementalSnapshotSplicesFrozenBlocks) {
  std::unique_ptr<Database> db = MakeFrozenDb();
  ASSERT_TRUE(SaveDatabaseSnapshot(*db, base_path_).ok());
  const uint64_t frozen_before =
      TableOf(*db).GetStorageStats().frozen_segments;

  // New appends land in new plain segments; the frozen prefix is
  // untouched, so the incremental save must splice every frozen block
  // from the base file instead of re-encoding it.
  for (int i = 0; i < 8; ++i) {
    FUNGUSDB_CHECK_OK(
        db->Insert("r", {Value::Int64(100 + i), Value::String("unit-9"),
                         Value::Float64(9.0)})
            .status());
  }
  const IncrementalSnapshotStats stats =
      SaveIncrementalSnapshot(*db, next_path_, base_path_).value();
  EXPECT_EQ(stats.frozen_blocks_reused, frozen_before);
  EXPECT_EQ(stats.frozen_blocks_rewritten, 0u);
  EXPECT_GT(stats.plain_chunks, 0u);

  // The spliced output is byte-identical to a from-scratch full save.
  const std::string incremental = SlurpFile(next_path_);
  ASSERT_TRUE(SaveDatabaseSnapshot(*db, base_path_).ok());
  EXPECT_EQ(incremental, SlurpFile(base_path_));

  std::unique_ptr<Database> loaded =
      LoadDatabaseSnapshot(next_path_).value();
  EXPECT_EQ(ObservableRows(TableOf(*loaded)), ObservableRows(TableOf(*db)));
}

// ---------------------------------------------------------------------
// fsck: corrupted encoded blocks must be named, not crashed on.

std::optional<Violation> FindViolation(const Report& report,
                                       const std::string& invariant) {
  for (const Violation& v : report.violations) {
    if (v.invariant == invariant) return v;
  }
  return std::nullopt;
}

TEST(TieredStorageFsckTest, DetectsCorruptedFrozenChecksum) {
  Table table = MakeFreezableTable();
  ASSERT_EQ(table.FreezeColdSegments(0), 4u);
  ASSERT_TRUE(TestCorruptor::CorruptFrozenChecksum(table, 1).ok());

  const Report report = InvariantChecker().CheckTable(table);
  ASSERT_FALSE(report.ok());
  const auto v = FindViolation(report, "encoded-segment");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->table, "t");
  EXPECT_EQ(v->segment, 1);
}

TEST(TieredStorageFsckTest, DetectsEscapedDictionaryCode) {
  Table table = MakeFreezableTable();
  ASSERT_EQ(table.FreezeColdSegments(0), 4u);
  ASSERT_TRUE(
      TestCorruptor::CorruptFrozenDictionaryCode(table, 2, 1).ok());

  const Report report = InvariantChecker().CheckTable(table);
  ASSERT_FALSE(report.ok());
  const auto v = FindViolation(report, "encoded-segment");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->segment, 2);
  EXPECT_NE(v->detail.find("dictionary"), std::string::npos)
      << v->detail;
}

TEST(TieredStorageFsckTest, ShortCodeStreamIsReportedNotDecoded) {
  // The string-dictionary rule decodes codes; a stream shorter than the
  // segment is encoded-segment's to report and must not be read past.
  Table table = MakeFreezableTable();
  ASSERT_EQ(table.FreezeColdSegments(0), 4u);
  ASSERT_TRUE(TestCorruptor::TruncateFrozenStringCodes(table, 2, 1).ok());

  const Report report = InvariantChecker().CheckTable(table);
  ASSERT_FALSE(report.ok());
  const auto v = FindViolation(report, "encoded-segment");
  ASSERT_TRUE(v.has_value()) << report.ToString();
  EXPECT_EQ(v->segment, 2);
  EXPECT_NE(v->detail.find("spans"), std::string::npos) << v->detail;
  EXPECT_FALSE(FindViolation(report, "string-dictionary").has_value())
      << report.ToString();
}

TEST(TieredStorageFsckTest, SeedersRefusePlainSegments) {
  Table table = MakeFreezableTable();
  EXPECT_FALSE(TestCorruptor::CorruptFrozenChecksum(table, 0).ok());
  EXPECT_FALSE(
      TestCorruptor::CorruptFrozenDictionaryCode(table, 0, 1).ok());
  EXPECT_FALSE(TestCorruptor::TruncateFrozenStringCodes(table, 0, 1).ok());
}

// ---------------------------------------------------------------------
// TSan target: epoch-pinned readers scan while ticks freeze idle
// segments ("stable") and retention kills thaw frozen ones ("churn").
// Any representation swap a pinned reader can observe mid-scan is a
// race this test exists to surface.

TEST(TieredStorageConcurrencyTest, ReadersRaceFreezeThawTicks) {
  constexpr int kRows = 2048;
  constexpr int kCohort = 64;
  constexpr int kTicks = 50;
  constexpr int kReaders = 4;

  Database db;
  TableOptions opts;
  opts.rows_per_segment = 64;
  opts.freeze_after_idle_ticks = 1;
  FUNGUSDB_CHECK_OK(db.CreateTable("stable", MixedSchema(), opts).status());
  FUNGUSDB_CHECK_OK(db.CreateTable("churn", MixedSchema(), opts).status());

  // Stagger churn inserts across virtual minutes so the retention
  // horizon kills one cohort per tick later — each kill thaws the
  // frozen segment holding it, each following tick refreezes idle ones.
  for (int i = 0; i < kRows; ++i) {
    std::vector<Value> row = {Value::Int64(i),
                              Value::String("unit-" + std::to_string(i % 3)),
                              Value::Float64(i * 0.001)};
    FUNGUSDB_CHECK_OK(db.Insert("stable", row).status());
    FUNGUSDB_CHECK_OK(db.Insert("churn", row).status());
    if (i % kCohort == kCohort - 1) {
      FUNGUSDB_CHECK_OK(db.AdvanceTime(kMinute).status());
    }
  }
  FUNGUSDB_CHECK_OK(
      db.AttachFungus("stable",
                      std::make_unique<RetentionFungus>(1000 * kHour),
                      /*interval=*/kMinute)
          .status());
  FUNGUSDB_CHECK_OK(
      db.AttachFungus("churn",
                      std::make_unique<RetentionFungus>(40 * kMinute),
                      /*interval=*/kMinute)
          .status());
  FUNGUSDB_CHECK_OK(db.AdvanceTime(kMinute).status());

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Session session(&db);
      while (!writer_done.load(std::memory_order_acquire)) {
        // Nothing in `stable` ever dies: every pinned snapshot must see
        // the full table no matter how many segments froze since.
        const Result<ResultSet> stable = session.ExecuteRead(
            "SELECT count(*) AS n FROM stable WHERE k >= 0");
        if (!stable.ok() ||
            stable.value().at(0, 0).AsInt64() != kRows) {
          failures.fetch_add(1);
          return;
        }
        // `churn` shrinks tick by tick; a pinned read sees some
        // published epoch's prefix-free suffix, never a torn mix.
        const Result<ResultSet> churn = session.ExecuteRead(
            "SELECT count(*) AS n FROM churn WHERE s = 'unit-1'");
        if (!churn.ok() ||
            churn.value().at(0, 0).AsInt64() > kRows / 3 + 1) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  for (int k = 0; k < kTicks; ++k) {
    FUNGUSDB_CHECK_OK(db.AdvanceTime(kMinute).status());
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The race must actually have exercised both tier transitions.
  const StorageStats stable_stats =
      db.GetTable("stable").value().table().GetStorageStats();
  const StorageStats churn_stats =
      db.GetTable("churn").value().table().GetStorageStats();
  EXPECT_GT(stable_stats.segments_frozen_total, 0u);
  EXPECT_EQ(stable_stats.thaw_count, 0u);
  EXPECT_GT(churn_stats.segments_frozen_total, 0u);
  EXPECT_GT(churn_stats.thaw_count, 0u);
  EXPECT_TRUE(db.Fsck().ok());
}

}  // namespace
}  // namespace fungusdb
