// Readers race decay ticks: N Sessions run SELECT count(*) in a loop
// while the writer replays AdvanceTime ticks that kill row cohorts.
// Every observation is an (epoch, count) pair; the test replays the
// same scripted writer serially and demands that each concurrent
// observation matches the serial replay's count at that epoch exactly.
// A half-applied tick (a count that exists at no epoch boundary) or a
// torn read fails the map lookup. Run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "fungus/retention_fungus.h"

namespace fungusdb {
namespace {

constexpr int kCohorts = 20;
constexpr int kRowsPerCohort = 5;
constexpr int kConcurrentTicks = 30;
constexpr Duration kRetention = 10 * kSecond;

Schema OneColumnSchema() {
  return Schema::Make({{"v", DataType::kInt64, false}}).value();
}

/// The scripted prefix both phases share: a table with a retention
/// fungus and kCohorts insert batches spread along the time axis, so
/// the concurrent ticks kill one cohort at a time.
std::unique_ptr<Database> BuildDatabase() {
  auto db = std::make_unique<Database>();
  FUNGUSDB_CHECK_OK(db->CreateTable("t", OneColumnSchema()).status());
  FUNGUSDB_CHECK_OK(db->AttachFungus(
                          "t", std::make_unique<RetentionFungus>(kRetention),
                          /*period=*/kSecond)
                        .status());
  for (int cohort = 0; cohort < kCohorts; ++cohort) {
    for (int i = 0; i < kRowsPerCohort; ++i) {
      FUNGUSDB_CHECK_OK(
          db->Insert("t", {Value::Int64(cohort * 100 + i)}).status());
    }
    FUNGUSDB_CHECK_OK(db->AdvanceTime(kSecond).status());
  }
  return db;
}

TEST(SessionConcurrencyTest, ReadersRacingDecayMatchSerialReplay) {
  // Phase A — serial replay: record the count at every epoch boundary
  // the writer script can produce. Counting goes through the handle
  // (a read-locked read), not ExecuteSql, so it does not perturb the epoch
  // sequence.
  std::map<uint64_t, uint64_t> count_at_epoch;
  {
    std::unique_ptr<Database> db = BuildDatabase();
    count_at_epoch[db->epoch()] = db->GetTable("t").value().live_rows();
    for (int k = 0; k < kConcurrentTicks; ++k) {
      FUNGUSDB_CHECK_OK(db->AdvanceTime(kSecond).status());
      count_at_epoch[db->epoch()] = db->GetTable("t").value().live_rows();
    }
    // The script must actually decay something, in steps.
    EXPECT_EQ(db->GetTable("t").value().live_rows(), 0u);
    ASSERT_GT(count_at_epoch.size(), 2u);
  }

  // Phase B — the race: same prefix, same ticks, but readers lock and
  // count concurrently with the writer.
  std::unique_ptr<Database> db = BuildDatabase();
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  constexpr int kReaders = 4;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> observed(
      kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Session session(db.get());
      while (!writer_done.load(std::memory_order_acquire)) {
        const Result<ResultSet> rs =
            session.ExecuteRead("SELECT count(*) AS n FROM t");
        if (!rs.ok()) {
          failures.fetch_add(1);
          return;
        }
        observed[r].emplace_back(
            rs.value().stats.epoch,
            static_cast<uint64_t>(rs.value().at(0, 0).AsInt64()));
      }
    });
  }

  for (int k = 0; k < kConcurrentTicks; ++k) {
    FUNGUSDB_CHECK_OK(db->AdvanceTime(kSecond).status());
    // A breath between ticks so readers actually interleave epochs.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);

  size_t total_observations = 0;
  std::map<uint64_t, int> distinct_epochs;
  for (int r = 0; r < kReaders; ++r) {
    uint64_t last_epoch = 0;
    for (const auto& [epoch, count] : observed[r]) {
      ++total_observations;
      ++distinct_epochs[epoch];
      // Epochs are monotone per reader: reads happen in program order.
      EXPECT_GE(epoch, last_epoch);
      last_epoch = epoch;
      // The heart of the test: the read-locked view equals the serial
      // replay at that epoch — never a half-applied tick.
      const auto it = count_at_epoch.find(epoch);
      ASSERT_NE(it, count_at_epoch.end())
          << "reader pinned epoch " << epoch
          << " which no writer boundary produced";
      EXPECT_EQ(count, it->second)
          << "epoch " << epoch << ": concurrent count " << count
          << " != serial replay count " << it->second;
    }
  }
  ASSERT_GT(total_observations, 0u);
  // The race was real: readers saw the world move underneath them.
  EXPECT_GE(distinct_epochs.size(), 2u);
}

}  // namespace
}  // namespace fungusdb
