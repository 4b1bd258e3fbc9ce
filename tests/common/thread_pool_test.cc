#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace fungusdb {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  int calls = 0;
  pool.ParallelFor(5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ConcurrentSumMatchesSerial) {
  ThreadPool pool(8);
  constexpr size_t kN = 4096;
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(kN, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    pool.ParallelFor(16, [&](size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(calls.load(), 16);
  }
  EXPECT_EQ(pool.tasks_dispatched(), 50u * 16u);
}

TEST(ThreadPoolTest, MoreTasksThanMorselsCompletes) {
  ThreadPool pool(8);
  // n smaller than worker count: helpers are capped at n - 1 so nobody
  // waits on a task that can never claim work.
  std::atomic<int> calls{0};
  pool.ParallelFor(2, [&](size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPoolTest, ConcurrentCoordinatorsShareOnePool) {
  // Four coordinators on one 2-wide pool at once: every index of every
  // call runs exactly once, whichever thread claims it.
  ThreadPool pool(2);
  constexpr size_t kN = 257;
  constexpr int kRounds = 40;
  std::vector<std::thread> coordinators;
  std::atomic<int> bad_rounds{0};
  for (int t = 0; t < 4; ++t) {
    coordinators.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kN);
        pool.ParallelFor(kN, [&](size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto& h : hits) {
          if (h.load() != 1) {
            bad_rounds.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : coordinators) t.join();
  EXPECT_EQ(bad_rounds.load(), 0);
  EXPECT_EQ(pool.tasks_dispatched(), 4u * kRounds * kN);
}

TEST(ThreadPoolTest, CoordinatorDoesNotWaitForABusyWorker) {
  // The pool's only worker is held inside one job; a second coordinator
  // must still finish its own job alone instead of waiting for the
  // worker to come free.
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    pool.ParallelFor(2, [&](size_t) {
      entered.fetch_add(1);
      released.wait();
    });
  });
  // Both indices are claimed once two calls have entered: one by the
  // holder thread, one by the worker.
  while (entered.load() < 2) std::this_thread::yield();

  std::atomic<int> calls{0};
  std::future<void> second = std::async(std::launch::async, [&] {
    pool.ParallelFor(64, [&](size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
  });
  const bool finished =
      second.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.set_value();
  holder.join();
  second.wait();
  EXPECT_TRUE(finished) << "coordinator waited for the busy worker";
  EXPECT_EQ(calls.load(), 64);
}

}  // namespace
}  // namespace fungusdb
