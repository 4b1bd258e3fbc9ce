#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/database.h"
#include "fungus/egi_fungus.h"
#include "fungus/exponential_fungus.h"
#include "fungus/retention_fungus.h"

namespace fungusdb {
namespace {

// Decay outcomes never depend on the database's pool width (an
// execution property): ticks run serially on the writer, and the pool
// only fans out scans. These tests run the same workload at 1, 2, and 8
// threads and require bit-identical live-row sets and freshness values.

constexpr size_t kThreadCounts[] = {1, 2, 8};

Schema OneColumnSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

using Fingerprint = std::map<RowId, double>;  // live row -> freshness

Fingerprint FingerprintTable(const Table& t) {
  Fingerprint fp;
  t.ForEachLive([&](RowId row) { fp[row] = t.Freshness(row); });
  return fp;
}

enum class Kind { kEgi, kExponential, kRetention };

std::unique_ptr<Fungus> MakeFungus(Kind kind) {
  switch (kind) {
    case Kind::kEgi: {
      EgiFungus::Params p;
      p.seeds_per_tick = 3.0;
      p.decay_step = 0.2;
      p.spread_probability = 0.8;
      p.rng_seed = 0xBADF00D;
      return std::make_unique<EgiFungus>(p);
    }
    case Kind::kExponential:
      return std::make_unique<ExponentialFungus>(
          ExponentialFungus::FromHalfLife(20 * kSecond));
    case Kind::kRetention:
      return std::make_unique<RetentionFungus>(60 * kSecond);
  }
  return nullptr;
}

/// Builds a database with `num_threads`, runs `ticks` one-second decay
/// ticks of `kind` over a 32-segment table, and fingerprints the result.
Fingerprint RunWorkload(Kind kind, size_t num_threads, uint64_t ticks) {
  DatabaseOptions db_opts;
  db_opts.num_threads = num_threads;
  Database db(db_opts);
  TableOptions t_opts;
  t_opts.rows_per_segment = 16;
  db.CreateTable("t", OneColumnSchema(), t_opts).value();
  const Table* table = &db.GetTable("t").value().table();
  // Spread insertions along the time axis (8 batches, 5 s apart) so
  // age-sensitive fungi see a real age spectrum, not one cohort.
  for (int64_t i = 0; i < 512; ++i) {
    if (i > 0 && i % 64 == 0) {
      EXPECT_TRUE(db.AdvanceTime(5 * kSecond).ok());
    }
    EXPECT_TRUE(db.Insert("t", {Value::Int64(i)}).ok());
  }
  EXPECT_TRUE(
      db.AttachFungus("t", MakeFungus(kind), /*period=*/kSecond).ok());
  EXPECT_TRUE(db.AdvanceTime(static_cast<Duration>(ticks) * kSecond).ok());
  return FingerprintTable(*table);
}

void ExpectIdenticalAcrossThreadCounts(Kind kind, uint64_t ticks) {
  const Fingerprint baseline = RunWorkload(kind, /*num_threads=*/1, ticks);
  EXPECT_FALSE(baseline.empty());
  for (size_t threads : kThreadCounts) {
    if (threads == 1) continue;
    const Fingerprint fp = RunWorkload(kind, threads, ticks);
    ASSERT_EQ(fp.size(), baseline.size())
        << "live-row count diverged at " << threads << " threads";
    auto it = baseline.begin();
    for (const auto& [row, freshness] : fp) {
      EXPECT_EQ(row, it->first)
          << "live-row set diverged at " << threads << " threads";
      EXPECT_EQ(freshness, it->second)
          << "freshness of row " << row << " diverged at " << threads
          << " threads";
      ++it;
    }
  }
}

TEST(ParallelDeterminismTest, EgiIdenticalAt1_2_8Threads) {
  // EGI exercises the hardest case: RNG-driven seeding plus
  // neighbour-spread that crosses segment boundaries.
  ExpectIdenticalAcrossThreadCounts(Kind::kEgi, /*ticks=*/25);
}

TEST(ParallelDeterminismTest, ExponentialIdenticalAt1_2_8Threads) {
  ExpectIdenticalAcrossThreadCounts(Kind::kExponential, /*ticks=*/40);
}

TEST(ParallelDeterminismTest, RetentionIdenticalAt1_2_8Threads) {
  // 35 s of insertion spread + 40 ticks: the oldest batches cross the
  // 60 s retention horizon, the youngest survive with partial freshness.
  ExpectIdenticalAcrossThreadCounts(Kind::kRetention, /*ticks=*/40);
}

TEST(ParallelDeterminismTest, EgiDecayActuallyHappened) {
  // Guard against vacuous determinism (nothing decayed anywhere).
  const Fingerprint fp = RunWorkload(Kind::kEgi, /*num_threads=*/2, 25);
  EXPECT_LT(fp.size(), 512u);  // some rows rotted away...
  EXPECT_FALSE(fp.empty());    // ...but not all of them
  bool any_decayed = false;
  for (const auto& [row, freshness] : fp) {
    if (freshness < 1.0) any_decayed = true;
  }
  EXPECT_TRUE(any_decayed);
}

TEST(ParallelDeterminismTest, EgiSpreadCrossesSegmentBoundaries) {
  // With rows_per_segment=1 every row's direct time-axis neighbours live
  // in other segments, so any spread at all proves infection crosses
  // segment boundaries.
  DatabaseOptions db_opts;
  db_opts.num_threads = 2;
  Database db(db_opts);
  TableOptions t_opts;
  t_opts.rows_per_segment = 1;
  db.CreateTable("t", OneColumnSchema(), t_opts).value();
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int64(i)}).ok());
  }
  EgiFungus::Params p;
  p.seeds_per_tick = 1.0;
  p.decay_step = 0.05;
  p.spread_probability = 1.0;  // deterministic bidirectional growth
  auto fungus = std::make_unique<EgiFungus>(p);
  EgiFungus* egi = fungus.get();
  ASSERT_TRUE(db.AttachFungus("t", std::move(fungus), kSecond).ok());
  ASSERT_TRUE(db.AdvanceTime(6 * kSecond).ok());

  const std::set<RowId>& infected = egi->infected();
  ASSERT_GT(infected.size(), 1u);
  std::set<uint64_t> segments_touched;
  for (RowId row : infected) {
    segments_touched.insert(row / t_opts.rows_per_segment);
  }
  EXPECT_GT(segments_touched.size(), 1u)
      << "infection never left its seed segment";
}

}  // namespace
}  // namespace fungusdb
