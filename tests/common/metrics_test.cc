#include "common/metrics.h"

#include <gtest/gtest.h>

namespace fungusdb {
namespace {

TEST(MetricsTest, CountersStartAtZero) {
  MetricsRegistry m;
  EXPECT_EQ(m.GetCounter("absent"), 0);
}

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry m;
  m.IncrementCounter("rows");
  m.IncrementCounter("rows", 9);
  EXPECT_EQ(m.GetCounter("rows"), 10);
}

TEST(MetricsTest, GaugesOverwrite) {
  MetricsRegistry m;
  m.SetGauge("mem", 1.5);
  m.SetGauge("mem", 2.5);
  EXPECT_DOUBLE_EQ(m.GetGauge("mem"), 2.5);
  EXPECT_DOUBLE_EQ(m.GetGauge("absent"), 0.0);
}

TEST(MetricsTest, ResetClearsEverything) {
  MetricsRegistry m;
  m.IncrementCounter("a");
  m.SetGauge("b", 1.0);
  m.Histogram("c").Record(1);
  m.Reset();
  EXPECT_EQ(m.GetCounter("a"), 0);
  EXPECT_DOUBLE_EQ(m.GetGauge("b"), 0.0);
  EXPECT_EQ(m.FindHistogram("c"), nullptr);
}

TEST(MetricsTest, ReportContainsEntries) {
  MetricsRegistry m;
  m.IncrementCounter("x.count", 3);
  m.SetGauge("y.gauge", 7.0);
  const std::string report = m.Report();
  EXPECT_NE(report.find("x.count = 3"), std::string::npos);
  EXPECT_NE(report.find("y.gauge = 7"), std::string::npos);
}

TEST(MetricsTest, LabeledCountersAreIndependentSeries) {
  MetricsRegistry m;
  m.IncrementCounter("fungusdb.decay.ticks");
  m.IncrementCounter("fungusdb.decay.ticks", "table=events", 3);
  m.IncrementCounter("fungusdb.decay.ticks", "table=logs", 5);
  EXPECT_EQ(m.GetCounter("fungusdb.decay.ticks"), 1);
  EXPECT_EQ(m.GetCounter("fungusdb.decay.ticks", "table=events"), 3);
  EXPECT_EQ(m.GetCounter("fungusdb.decay.ticks", "table=logs"), 5);
  EXPECT_EQ(m.GetCounter("fungusdb.decay.ticks", "table=absent"), 0);
}

TEST(MetricsTest, LabeledGaugesAndHistograms) {
  MetricsRegistry m;
  m.SetGauge("fungusdb.rot.oldest_live_ts", "table=events", 123.0);
  EXPECT_DOUBLE_EQ(m.GetGauge("fungusdb.rot.oldest_live_ts", "table=events"),
                   123.0);
  EXPECT_DOUBLE_EQ(m.GetGauge("fungusdb.rot.oldest_live_ts"), 0.0);
  m.RecordHistogram("fungusdb.decay.tick_duration_us", "table=events", 50);
  const HistogramMetric* h =
      m.FindHistogram("fungusdb.decay.tick_duration_us", "table=events");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1);
  EXPECT_EQ(m.FindHistogram("fungusdb.decay.tick_duration_us"), nullptr);
}

TEST(MetricsTest, BatchRecordEqualsOneByOne) {
  MetricsRegistry batched;
  MetricsRegistry single;
  const std::vector<int64_t> samples = {3, 0, 17, 17, 1024, 5};
  batched.RecordHistogram("fungusdb.server.statement_latency_us",
                          "worker=writer", samples);
  for (const int64_t s : samples) {
    single.RecordHistogram("fungusdb.server.statement_latency_us",
                           "worker=writer", s);
  }
  EXPECT_EQ(batched.Report(), single.Report());
  EXPECT_EQ(batched.PrometheusReport(), single.PrometheusReport());
}

TEST(MetricsTest, ReportIsDeterministicallyOrdered) {
  MetricsRegistry m;
  m.IncrementCounter("b.counter");
  m.IncrementCounter("a.counter");
  m.IncrementCounter("a.counter", "table=z");
  m.IncrementCounter("a.counter", "table=a");
  m.SetGauge("g.gauge", 1.0);
  const std::string report = m.Report();
  const size_t a_plain = report.find("a.counter = ");
  const size_t a_la = report.find("a.counter{table=a} = ");
  const size_t a_lz = report.find("a.counter{table=z} = ");
  const size_t b = report.find("b.counter = ");
  const size_t g = report.find("g.gauge = ");
  ASSERT_NE(a_plain, std::string::npos);
  ASSERT_NE(a_la, std::string::npos);
  ASSERT_NE(a_lz, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(g, std::string::npos);
  // Counters sorted by (name, label), then gauges.
  EXPECT_LT(a_plain, a_la);
  EXPECT_LT(a_la, a_lz);
  EXPECT_LT(a_lz, b);
  EXPECT_LT(b, g);
  // Two calls produce byte-identical output.
  EXPECT_EQ(report, m.Report());
}

TEST(MetricsTest, PrometheusReportShape) {
  MetricsRegistry m;
  m.IncrementCounter("fungusdb.query.executed", 4);
  m.IncrementCounter("fungusdb.server.errors", "code=2002", 2);
  m.SetGauge("fungusdb.rot.oldest_live_ts", "table=events", 99.0);
  m.RecordHistogram("fungusdb.server.statement_latency_us", 100);
  const std::string prom = m.PrometheusReport();
  EXPECT_NE(prom.find("# TYPE fungusdb_query_executed counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_query_executed 4\n"), std::string::npos);
  EXPECT_NE(prom.find("fungusdb_server_errors{code=\"2002\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE fungusdb_rot_oldest_live_ts gauge\n"),
            std::string::npos);
  EXPECT_NE(
      prom.find("fungusdb_rot_oldest_live_ts{table=\"events\"} 99\n"),
      std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE fungusdb_server_statement_latency_us histogram\n"),
      std::string::npos);
  // 100 lands in bucket [64, 128) whose inclusive integer bound is 127.
  EXPECT_NE(
      prom.find("fungusdb_server_statement_latency_us_bucket{le=\"127\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      prom.find(
          "fungusdb_server_statement_latency_us_bucket{le=\"+Inf\"} 1\n"),
      std::string::npos);
  EXPECT_NE(prom.find("fungusdb_server_statement_latency_us_sum 100\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_server_statement_latency_us_count 1\n"),
            std::string::npos);
}

TEST(MetricsTest, PrometheusBucketMergesWithSeriesLabel) {
  MetricsRegistry m;
  m.RecordHistogram("fungusdb.decay.tick_duration_us", "table=t", 10);
  const std::string prom = m.PrometheusReport();
  EXPECT_NE(prom.find("fungusdb_decay_tick_duration_us_bucket{table=\"t\","
                      "le=\"15\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_decay_tick_duration_us_bucket{table=\"t\","
                      "le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_decay_tick_duration_us_count{table=\"t\"} 1"),
            std::string::npos);
}

TEST(MetricsTest, PrometheusBucketsAreCumulativeAndOrdered) {
  MetricsRegistry m;
  // One observation per decade: buckets le=0, le=1, le=15, le=127, +Inf.
  m.RecordHistogram("fungusdb.test.h", -5);
  m.RecordHistogram("fungusdb.test.h", 1);
  m.RecordHistogram("fungusdb.test.h", 9);
  m.RecordHistogram("fungusdb.test.h", 100);
  const std::string prom = m.PrometheusReport();
  const size_t b0 = prom.find("fungusdb_test_h_bucket{le=\"0\"} 1\n");
  const size_t b1 = prom.find("fungusdb_test_h_bucket{le=\"1\"} 2\n");
  const size_t b15 = prom.find("fungusdb_test_h_bucket{le=\"15\"} 3\n");
  const size_t b127 = prom.find("fungusdb_test_h_bucket{le=\"127\"} 4\n");
  const size_t binf = prom.find("fungusdb_test_h_bucket{le=\"+Inf\"} 4\n");
  ASSERT_NE(b0, std::string::npos);
  ASSERT_NE(b1, std::string::npos);
  ASSERT_NE(b15, std::string::npos);
  ASSERT_NE(b127, std::string::npos);
  ASSERT_NE(binf, std::string::npos);
  EXPECT_LT(b0, b1);
  EXPECT_LT(b1, b15);
  EXPECT_LT(b15, b127);
  EXPECT_LT(b127, binf);
  EXPECT_NE(prom.find("fungusdb_test_h_sum 105\n"), std::string::npos);
}

TEST(MetricsTest, PrometheusEmptyHistogramStillCloses) {
  MetricsRegistry m;
  m.Histogram("fungusdb.test.empty");
  const std::string prom = m.PrometheusReport();
  EXPECT_NE(prom.find("# TYPE fungusdb_test_empty histogram\n"),
            std::string::npos);
  // No finite buckets, but the +Inf / _sum / _count triplet must appear
  // so scrapers see a well-formed (zero-sample) histogram.
  EXPECT_EQ(prom.find("fungusdb_test_empty_bucket{le=\"0\""),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_test_empty_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_test_empty_sum 0\n"), std::string::npos);
  EXPECT_NE(prom.find("fungusdb_test_empty_count 0\n"), std::string::npos);
}

TEST(MetricsTest, PrometheusLabelValueEscaping) {
  MetricsRegistry m;
  m.IncrementCounter("fungusdb.test.escaped", "table=a\"b\\c\nd", 1);
  m.RecordHistogram("fungusdb.test.escaped_h", "table=q\"t", 7);
  const std::string prom = m.PrometheusReport();
  EXPECT_NE(prom.find("fungusdb_test_escaped{table=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fungusdb_test_escaped_h_bucket{table=\"q\\\"t\","
                      "le=\"7\"} 1\n"),
            std::string::npos);
}

TEST(HistogramMetricTest, CumulativeBucketsExactBounds) {
  HistogramMetric h;
  EXPECT_TRUE(h.CumulativeBuckets().empty());
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(4);
  const auto buckets = h.CumulativeBuckets();
  // 0 -> le=0; 1 -> le=1; 2,3 -> le=3; 4 -> le=7.
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], (std::pair<int64_t, int64_t>{0, 1}));
  EXPECT_EQ(buckets[1], (std::pair<int64_t, int64_t>{1, 2}));
  EXPECT_EQ(buckets[2], (std::pair<int64_t, int64_t>{3, 4}));
  EXPECT_EQ(buckets[3], (std::pair<int64_t, int64_t>{7, 5}));
}

TEST(HistogramMetricTest, CumulativeBucketsOverflowOnlyInInf) {
  HistogramMetric h;
  h.Record(int64_t{1} << 62);  // Lands in the unbounded top bucket.
  h.Record(5);
  const auto buckets = h.CumulativeBuckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0], (std::pair<int64_t, int64_t>{7, 1}));
  EXPECT_EQ(h.count(), 2);  // +Inf series (count) covers the overflow.
}

TEST(HistogramMetricTest, EmptyHistogram) {
  HistogramMetric h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramMetricTest, BasicStats) {
  HistogramMetric h;
  for (int64_t v : {1, 2, 3, 4, 5}) h.Record(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 15);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 5);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(HistogramMetricTest, QuantilesAreOrdered) {
  HistogramMetric h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const double p10 = h.Quantile(0.10);
  const double p50 = h.Quantile(0.50);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p99, 500.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0 + 1e-9);
}

TEST(HistogramMetricTest, SingleValueQuantiles) {
  HistogramMetric h;
  h.Record(42);
  EXPECT_NEAR(h.Quantile(0.5), 42.0, 42.0);  // within its bucket
  EXPECT_EQ(h.max(), 42);
}

TEST(HistogramMetricTest, ExtremeQuantilesAreExact) {
  HistogramMetric h;
  for (int64_t v : {3, 17, 900}) h.Record(v);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 900.0);
  // Out-of-range q clamps to the extremes.
  EXPECT_DOUBLE_EQ(h.Quantile(-2.0), 3.0);
  EXPECT_DOUBLE_EQ(h.Quantile(5.0), 900.0);
}

TEST(HistogramMetricTest, SingleSampleEveryQuantileIsExact) {
  HistogramMetric h;
  h.Record(42);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 42.0) << "q=" << q;
  }
}

TEST(HistogramMetricTest, NegativeValuesClampToFirstBucket) {
  HistogramMetric h;
  h.Record(-10);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), -10);
  // The first bucket's lower bound follows the tracked minimum, so a
  // purely negative histogram never reports a quantile above its max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), -10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), -10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), -10.0);
}

TEST(HistogramMetricTest, MixedSignQuantilesStayInRange) {
  HistogramMetric h;
  for (int64_t v : {-100, -50, 0, 50, 100}) h.Record(v);
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_GE(h.Quantile(q), -100.0) << "q=" << q;
    EXPECT_LE(h.Quantile(q), 100.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), -100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
}

TEST(HistogramMetricTest, ResetZeroes) {
  HistogramMetric h;
  h.Record(100);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

}  // namespace
}  // namespace fungusdb
