#include "core/rw_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace fungusdb {
namespace {

TEST(EpochTest, EveryWriteSectionPublishesANewEpoch) {
  RwLock lock;
  EXPECT_EQ(lock.epoch(), 0u);
  { RwLock::WriteLock write_lock(lock); }
  EXPECT_EQ(lock.epoch(), 1u);
  { RwLock::WriteLock write_lock(lock); }
  EXPECT_EQ(lock.epoch(), 2u);
}

TEST(EpochTest, PublishBumpsMidSection) {
  RwLock lock;
  {
    RwLock::WriteLock write_lock(lock);
    // One epoch per decay tick, even when one write section replays
    // many ticks.
    EXPECT_EQ(lock.Publish(), 1u);
    EXPECT_EQ(lock.Publish(), 2u);
  }
  EXPECT_EQ(lock.epoch(), 3u);  // the section release adds its own
}

TEST(EpochTest, ScopedConstructorsPinAndGuard) {
  RwLock lock;
  { RwLock::WriteLock write_lock(lock); }
  EXPECT_EQ(lock.epoch(), 1u);
  {
    RwLock::ReadLock read_lock(lock);
    EXPECT_EQ(lock.epoch(), 1u);  // read locks publish nothing
    // A nested read lock on the same thread is reentrant.
    RwLock::ReadLock nested(lock);
  }
  EXPECT_EQ(lock.epoch(), 1u);
  // Every read lock released: a writer can enter immediately.
  RwLock::WriteLock write_lock(lock);
}

TEST(EpochTest, ActiveWriterThreadGetsANoOpPin) {
  RwLock lock;
  {
    RwLock::WriteLock write_lock(lock);
    // Writer-side code may call read-locked helpers (Health inside a
    // write section, say) without deadlocking against itself.
    RwLock::ReadLock read_lock(lock);
  }
  EXPECT_EQ(lock.epoch(), 1u);  // only the write section published
  // The no-op read lock left no reader behind to wait for.
  RwLock::WriteLock write_lock(lock);
}

TEST(EpochTest, ReentrantPinBypassesAWaitingWriter) {
  RwLock lock;
  std::atomic<bool> writer_done{false};
  std::optional<std::thread> writer;
  {
    RwLock::ReadLock outer(lock);
    writer.emplace([&] {
      RwLock::WriteLock write_lock(lock);
      writer_done.store(true);
    });
    // Give the writer time to queue behind the outer read lock.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(writer_done.load());

    // A thread already holding a read lock must be able to re-lock even
    // with a writer waiting — the composition pattern used by read-path
    // meta handlers (outer read lock + facade accessors that lock
    // again).
    RwLock::ReadLock inner(lock);
    EXPECT_FALSE(writer_done.load());
  }
  writer->join();
  EXPECT_TRUE(writer_done.load());
}

TEST(EpochTest, WriterExcludesReadersAndReadersSeeFullSections) {
  RwLock lock;
  // Two variables with no synchronization of their own: only the lock
  // keeps them consistent. Under a read lock they must always agree; a
  // reader observing x != y means it saw a half-applied section.
  int64_t x = 0;
  int64_t y = 0;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        RwLock::ReadLock read_lock(lock);
        if (x != y) mismatches.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    RwLock::WriteLock write_lock(lock);
    ++x;
    std::this_thread::yield();
    ++y;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(x, 200);
  EXPECT_EQ(y, 200);
  EXPECT_EQ(lock.epoch(), 200u);
}

TEST(EpochTest, ExportsTheEpochGauge) {
  MetricsRegistry metrics;
  RwLock lock;
  lock.set_metrics(&metrics);
  { RwLock::WriteLock write_lock(lock); }
  EXPECT_EQ(metrics.GetGauge("fungusdb.exec.epoch"), 1.0);
  {
    RwLock::WriteLock write_lock(lock);
    lock.Publish();
    EXPECT_EQ(metrics.GetGauge("fungusdb.exec.epoch"), 2.0);
  }
  EXPECT_EQ(metrics.GetGauge("fungusdb.exec.epoch"), 3.0);
}

}  // namespace
}  // namespace fungusdb
