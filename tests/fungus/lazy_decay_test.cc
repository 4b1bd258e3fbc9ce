// Differential test for the lazy-decay protocol: a database ticking
// with lazy_decay on must be observably bit-identical to one ticking
// eagerly — same effective freshness, same death sets, same query
// answers, same snapshot bytes — across a randomized mix of inserts,
// time advances (decay ticks), queries, and snapshot round-trips.
// The only permitted divergence is the fold bookkeeping itself
// (segments_folded / rows_materialized / fold_ratio).

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_io.h"
#include "common/random.h"
#include "core/database.h"
#include "core/session.h"
#include "fungus/retention_fungus.h"
#include "fungus/rot_analysis.h"
#include "persist/snapshot.h"

namespace fungusdb {
namespace {

Schema EventSchema() {
  return Schema::Make({{"k", DataType::kInt64, false},
                       {"v", DataType::kFloat64, false}})
      .value();
}

std::unique_ptr<Database> MakeDb(bool lazy) {
  auto db = std::make_unique<Database>();
  TableOptions opts;
  opts.rows_per_segment = 8;
  opts.lazy_decay = lazy;
  FUNGUSDB_CHECK_OK(db->CreateTable("r", EventSchema(), opts).status());
  FUNGUSDB_CHECK_OK(
      db->AttachFungus("r", std::make_unique<RetentionFungus>(8 * kHour),
                       /*interval=*/kHour)
          .status());
  return db;
}

const Table& TableOf(Database& db) {
  return db.GetTable("r").value().table();
}

/// Effective freshness and death sets must match bit for bit — no
/// tolerance. This is the heart of the lazy-decay contract.
void ExpectTablesBitIdentical(const Table& lazy, const Table& eager) {
  ASSERT_EQ(lazy.total_appended(), eager.total_appended());
  for (RowId row = 0; row < lazy.total_appended(); ++row) {
    ASSERT_EQ(lazy.Contains(row), eager.Contains(row)) << "row " << row;
    if (!lazy.Contains(row)) continue;
    ASSERT_EQ(lazy.IsLive(row), eager.IsLive(row)) << "row " << row;
    ASSERT_EQ(lazy.Freshness(row), eager.Freshness(row)) << "row " << row;
  }
}

/// Query answers must match value for value. Pruning *statistics* are
/// deliberately not compared: eager ticks widen freshness zones
/// loosely while lazy folds keep them exact, so the two modes may
/// prune different segment counts — but both bounds are conservative,
/// so the answer sets are identical.
void ExpectSameAnswers(Database& lazy, Database& eager) {
  static const char* const kQueries[] = {
      "SELECT k, v FROM r",
      "SELECT k FROM r WHERE __freshness > 0.6",
      "SELECT k FROM r WHERE __freshness < 0.4",
      "SELECT count(*) AS n FROM r WHERE v >= 0.5",
  };
  for (const char* sql : kQueries) {
    ResultSet a = lazy.ExecuteSql(sql).value();
    ResultSet b = eager.ExecuteSql(sql).value();
    ASSERT_EQ(a.num_rows(), b.num_rows()) << sql;
    ASSERT_EQ(a.column_names, b.column_names) << sql;
    for (size_t i = 0; i < a.num_rows(); ++i) {
      for (size_t j = 0; j < a.num_columns(); ++j) {
        ASSERT_TRUE(a.at(i, j).Equals(b.at(i, j)))
            << sql << " row " << i << " col " << j;
      }
    }
  }
}

/// Live rows as (k, v, freshness) triples in row order. The snapshot
/// format compacts reclaimed segments and renumbers rows on load, so
/// round-trip comparisons go through this renumbering-proof view.
std::vector<std::tuple<int64_t, double, double>> LiveRows(
    const Table& table) {
  std::vector<std::tuple<int64_t, double, double>> out;
  table.ForEachLive([&](RowId row) {
    out.emplace_back(table.GetValue(row, 0).value().AsInt64(),
                     table.GetValue(row, 1).value().AsFloat64(),
                     table.Freshness(row));
  });
  return out;
}

/// Serializes both databases (which materializes any pending decay)
/// and requires byte-identical snapshots; then loads one back and
/// requires the reloaded live rows to match the source bit for bit.
void ExpectSnapshotsBitIdentical(Database& lazy, Database& eager) {
  BufferWriter lazy_bytes;
  BufferWriter eager_bytes;
  SerializeDatabase(lazy, lazy_bytes);
  SerializeDatabase(eager, eager_bytes);
  ASSERT_EQ(lazy_bytes.buffer(), eager_bytes.buffer());

  BufferReader reader(lazy_bytes.buffer());
  std::unique_ptr<Database> reloaded = DeserializeDatabase(reader).value();
  EXPECT_EQ(LiveRows(TableOf(*reloaded)), LiveRows(TableOf(eager)));
}

TEST(LazyDecayDifferentialTest, RandomizedMixedWorkloadIsBitIdentical) {
  for (const uint64_t seed : {1ull, 42ull, 20260808ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::unique_ptr<Database> lazy = MakeDb(true);
    std::unique_ptr<Database> eager = MakeDb(false);

    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const uint64_t op = rng.NextBounded(100);
      if (op < 45) {
        const int batch = static_cast<int>(rng.NextBounded(8)) + 1;
        for (int i = 0; i < batch; ++i) {
          const int64_t k = rng.NextInt(0, 9);
          const double v = rng.NextDouble();
          FUNGUSDB_CHECK_OK(
              lazy->Insert("r", {Value::Int64(k), Value::Float64(v)})
                  .status());
          FUNGUSDB_CHECK_OK(
              eager->Insert("r", {Value::Int64(k), Value::Float64(v)})
                  .status());
        }
      } else if (op < 80) {
        // Anything from a sub-interval nudge to a multi-tick jump.
        const Duration d =
            static_cast<Duration>(rng.NextBounded(5) + 1) * 30 * kMinute;
        FUNGUSDB_CHECK_OK(lazy->AdvanceTime(d).status());
        FUNGUSDB_CHECK_OK(eager->AdvanceTime(d).status());
      } else if (op < 92) {
        ExpectSameAnswers(*lazy, *eager);
      } else {
        ExpectSnapshotsBitIdentical(*lazy, *eager);
      }
      ExpectTablesBitIdentical(TableOf(*lazy), TableOf(*eager));
    }

    // Both sides stay fsck-clean (zone maps conservative, no deferred
    // deaths, decay epochs ordered).
    EXPECT_TRUE(lazy->Fsck().ok());
    EXPECT_TRUE(eager->Fsck().ok());

    // RotReports agree on everything except the fold bookkeeping.
    const RotReport lr = BuildRotReport(TableOf(*lazy), &lazy->scheduler());
    const RotReport er =
        BuildRotReport(TableOf(*eager), &eager->scheduler());
    EXPECT_EQ(lr.structure.live_tuples, er.structure.live_tuples);
    EXPECT_EQ(lr.structure.dead_tuples, er.structure.dead_tuples);
    EXPECT_EQ(lr.structure.reclaimed_tuples, er.structure.reclaimed_tuples);
    EXPECT_EQ(lr.structure.spot_lengths, er.structure.spot_lengths);
    EXPECT_EQ(lr.freshness_histogram, er.freshness_histogram);
    EXPECT_EQ(lr.oldest_live_ts, er.oldest_live_ts);
    EXPECT_EQ(lr.estimated_ticks_to_death, er.estimated_ticks_to_death);
    EXPECT_EQ(lr.decay_ticks, er.decay_ticks);
    EXPECT_EQ(lr.heatmap, er.heatmap);
    // The modes must actually have diverged in mechanism: the lazy side
    // folded at least one segment, the eager side never folds.
    EXPECT_GT(lr.segments_folded, 0u);
    EXPECT_EQ(er.segments_folded, 0u);
  }
}

// TSan target: read-locked readers reconstruct effective freshness
// (stored - pending) while the writer's ticks keep folding new pending
// decrements into the same segments. Any unsynchronized access between
// the writer's fold and a reader's replay of pending_decay() is a
// race this test exists to surface.
TEST(LazyDecayConcurrencyTest, ReadersRaceFoldingTicks) {
  constexpr int kRows = 2048;
  constexpr int kTicks = 50;
  constexpr int kReaders = 4;

  Database db;
  TableOptions opts;
  opts.rows_per_segment = 64;  // 32 segments
  opts.lazy_decay = true;
  FUNGUSDB_CHECK_OK(db.CreateTable("r", EventSchema(), opts).status());
  for (int i = 0; i < kRows; ++i) {
    FUNGUSDB_CHECK_OK(
        db.Insert("r", {Value::Int64(i), Value::Float64(i * 0.001)})
            .status());
  }
  // Retention far beyond the test horizon: every tick after the first
  // is a uniform decrement the zone map proves fold-safe, and the
  // freshness floor stays far above the query threshold.
  FUNGUSDB_CHECK_OK(
      db.AttachFungus("r", std::make_unique<RetentionFungus>(1000 * kHour),
                      /*interval=*/kMinute)
          .status());
  FUNGUSDB_CHECK_OK(db.AdvanceTime(kMinute).status());  // formula pass

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Session session(&db);
      while (!writer_done.load(std::memory_order_acquire)) {
        const Result<ResultSet> rs = session.ExecuteRead(
            "SELECT count(*) AS n FROM r WHERE __freshness > 0.1");
        // Nothing ever dies and effective freshness stays near 1.0, so
        // every read-locked snapshot must see the full table.
        if (!rs.ok() || rs.value().at(0, 0).AsInt64() != kRows) {
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

  // The race must actually have exercised the fold path.
  const auto info = db.scheduler().StatsForTable(&TableOf(db));
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->decay.segments_folded, 0u);
}

}  // namespace
}  // namespace fungusdb
