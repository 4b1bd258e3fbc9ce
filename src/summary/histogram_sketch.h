#ifndef FUNGUSDB_SUMMARY_HISTOGRAM_SKETCH_H_
#define FUNGUSDB_SUMMARY_HISTOGRAM_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "summary/summary.h"

namespace fungusdb {

/// Equi-width histogram over a fixed numeric domain [lo, hi). Values
/// outside the domain are clamped into the edge buckets. Answers count,
/// range-count and quantile estimates over rotted numeric data.
class HistogramSketch : public ColumnSummary {
 public:
  HistogramSketch(double lo, double hi, size_t buckets);

  std::string_view kind() const override { return "histogram"; }
  void Observe(const Value& value) override;
  uint64_t observations() const override { return total_; }
  Status Merge(const Summary& other) override;
  size_t MemoryUsage() const override;
  std::string Describe() const override;
  void Serialize(BufferWriter& out) const override;

  static Result<std::unique_ptr<HistogramSketch>> Deserialize(
      BufferReader& in);

  uint64_t bucket_count(size_t i) const { return counts_[i]; }
  double bucket_low(size_t i) const;
  double bucket_high(size_t i) const;

  /// Estimated number of observations in [range_lo, range_hi), with
  /// linear interpolation inside partially-covered buckets.
  double EstimateRangeCount(double range_lo, double range_hi) const;

  /// Estimated q-quantile (q in [0, 1]).
  Result<double> EstimateQuantile(double q) const;

  /// Estimated mean (bucket midpoints weighted by counts).
  Result<double> EstimateMean() const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  uint64_t total_ = 0;
  std::vector<uint64_t> counts_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_SUMMARY_HISTOGRAM_SKETCH_H_
