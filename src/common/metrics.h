#ifndef FUNGUSDB_COMMON_METRICS_H_
#define FUNGUSDB_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fungusdb {

/// Fixed-boundary histogram for latency/size distributions. Records
/// int64 observations; reports count, sum, min, max, mean and quantiles
/// (approximated by linear interpolation within buckets).
class HistogramMetric {
 public:
  /// Buckets are exponential: [0,1), [1,2), [2,4), ... up to 2^62.
  /// Negative observations land in the first bucket.
  HistogramMetric();

  void Record(int64_t value);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;

  /// q outside [0, 1] is clamped. Returns 0 on an empty histogram,
  /// exactly min() at q == 0, exactly max() at q == 1, and the exact
  /// value when the histogram holds a single distinct sample.
  double Quantile(double q) const;

  /// Cumulative (le, count) pairs for Prometheus `_bucket` series, in
  /// ascending le order. Observations are integers, so each occupied
  /// bucket reports its exact inclusive upper bound: le=0 for the
  /// non-positive bucket, le = 2^i - 1 for bucket i in [1, 62]. Empty
  /// buckets are omitted; the overflow bucket [2^62, inf) only shows up
  /// in the implicit `le="+Inf"` series, which the exposition writer
  /// renders from count(). An empty histogram yields an empty vector.
  std::vector<std::pair<int64_t, int64_t>> CumulativeBuckets() const;

  void Reset();

 private:
  static constexpr int kNumBuckets = 64;
  int64_t buckets_[kNumBuckets];
  int64_t count_;
  int64_t sum_;
  int64_t min_;
  int64_t max_;
};

/// Named counters, gauges and histograms owned by a Database (not global,
/// so parallel tests never share state). Thread-safe: counters, gauges
/// and histogram recording may be hit from pool workers during parallel
/// decay ticks and morsel scans; one mutex per registry is plenty at the
/// current update rates (hot loops accumulate locally and flush once).
///
/// Every series carries an optional label — a single "key=value" string
/// ("table=events", "shard=3", "code=2002") — so one metric name fans
/// out into per-table / per-shard / per-error-code series. The empty
/// label is the plain, unlabeled series. Names follow the documented
/// convention `fungusdb.<subsystem>.<name>` (DESIGN.md §12), enforced
/// by the `metric-naming` lint rule.
class MetricsRegistry {
 public:
  void IncrementCounter(const std::string& name, int64_t delta = 1);
  void IncrementCounter(const std::string& name, const std::string& label,
                        int64_t delta = 1);
  int64_t GetCounter(const std::string& name) const;
  int64_t GetCounter(const std::string& name,
                     const std::string& label) const;

  void SetGauge(const std::string& name, double value);
  void SetGauge(const std::string& name, const std::string& label,
                double value);
  double GetGauge(const std::string& name) const;
  double GetGauge(const std::string& name, const std::string& label) const;

  /// Records one observation under the registry lock — the only safe way
  /// to feed a histogram from a pool worker.
  void RecordHistogram(const std::string& name, int64_t value);
  void RecordHistogram(const std::string& name, const std::string& label,
                       int64_t value);
  /// A batch of observations under one lock: how a hot path that
  /// collected samples locally flushes them.
  void RecordHistogram(const std::string& name, const std::string& label,
                       std::span<const int64_t> values);

  /// Coordinator-thread access to a histogram object. The reference
  /// stays valid for the registry's lifetime, but Record() through it is
  /// unsynchronized — concurrent writers must use RecordHistogram().
  HistogramMetric& Histogram(const std::string& name);
  const HistogramMetric* FindHistogram(const std::string& name) const;
  const HistogramMetric* FindHistogram(const std::string& name,
                                       const std::string& label) const;

  /// Multi-line "name = value" / "name{label} = value" dump, ordered
  /// deterministically: counters, then gauges, then histograms, each
  /// sorted by (name, label).
  std::string Report() const;

  /// Prometheus text exposition (version 0.0.4): `# TYPE` lines,
  /// sanitized metric names (dots become underscores), labeled series
  /// as name{key="value"}, histograms as real cumulative histograms —
  /// `_bucket{le="..."}` series (exact inclusive integer bounds, always
  /// closing with le="+Inf") plus `_sum` and `_count`. Deterministically
  /// ordered.
  std::string PrometheusReport() const;

  void Reset();

 private:
  /// Series keyed by name, then by label ("" == unlabeled).
  template <typename T>
  using SeriesMap = std::map<std::string, std::map<std::string, T>>;

  mutable Mutex mu_;
  SeriesMap<int64_t> counters_ FUNGUS_GUARDED_BY(mu_);
  SeriesMap<double> gauges_ FUNGUS_GUARDED_BY(mu_);
  SeriesMap<HistogramMetric> histograms_ FUNGUS_GUARDED_BY(mu_);
};

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_METRICS_H_
