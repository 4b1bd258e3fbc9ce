#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace fungusdb {
namespace {

// Run under TSan in CI: N writer threads hammer labeled counters and
// histograms while a reader repeatedly snapshots both report formats.
TEST(MetricsConcurrencyTest, LabeledWritesRaceCleanlyWithReaders) {
  MetricsRegistry m;
  constexpr int kWriters = 4;
  constexpr int kIterations = 2000;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&m, w] {
      const std::string shard = "shard=" + std::to_string(w);
      for (int i = 0; i < kIterations; ++i) {
        m.IncrementCounter("fungusdb.test.ops", shard);
        m.IncrementCounter("fungusdb.test.ops");
        m.RecordHistogram("fungusdb.test.latency_us", shard, i % 1000);
        if (i % 64 == 0) {
          m.SetGauge("fungusdb.test.level", shard, static_cast<double>(i));
        }
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread reader([&m, &done] {
    // An empty registry correctly reports nothing, so snapshot only once
    // the first write is visible.
    while (m.GetCounter("fungusdb.test.ops") == 0) std::this_thread::yield();
    while (!done.load(std::memory_order_relaxed)) {
      const std::string prom = m.PrometheusReport();
      EXPECT_NE(prom.find("# TYPE fungusdb_test_ops counter"),
                std::string::npos);
      (void)m.Report();
      (void)m.GetCounter("fungusdb.test.ops", "shard=0");
    }
  });

  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(m.GetCounter("fungusdb.test.ops"), kWriters * kIterations);
  int64_t histogram_total = 0;
  for (int w = 0; w < kWriters; ++w) {
    const std::string shard = "shard=" + std::to_string(w);
    EXPECT_EQ(m.GetCounter("fungusdb.test.ops", shard), kIterations);
    const HistogramMetric* h =
        m.FindHistogram("fungusdb.test.latency_us", shard);
    ASSERT_NE(h, nullptr);
    histogram_total += h->count();
  }
  EXPECT_EQ(histogram_total, kWriters * kIterations);
}

}  // namespace
}  // namespace fungusdb
