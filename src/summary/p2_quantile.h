#ifndef FUNGUSDB_SUMMARY_P2_QUANTILE_H_
#define FUNGUSDB_SUMMARY_P2_QUANTILE_H_

#include <cstdint>
#include <string>

#include "summary/summary.h"

namespace fungusdb {

/// P² streaming quantile estimator (Jain & Chlamtac, CACM 1985): tracks
/// one target quantile in O(1) space without storing observations, by
/// maintaining five markers whose heights are adjusted with a piecewise
/// parabolic formula.
///
/// Note: P² state is not mergeable in a principled way; Merge() combines
/// estimates weighted by observation counts and is only an
/// approximation (documented, and exercised by tests on similar
/// distributions).
class P2Quantile : public ColumnSummary {
 public:
  /// `q` in (0, 1): the quantile to track.
  explicit P2Quantile(double q);

  std::string_view kind() const override { return "p2_quantile"; }
  void Observe(const Value& value) override;
  uint64_t observations() const override { return count_; }
  Status Merge(const Summary& other) override;
  size_t MemoryUsage() const override { return sizeof(P2Quantile); }
  std::string Describe() const override;
  void Serialize(BufferWriter& out) const override;

  static Result<std::unique_ptr<P2Quantile>> Deserialize(BufferReader& in);

  /// Current estimate; fails before any numeric observation.
  Result<double> Estimate() const;

 private:
  void ObserveDouble(double x);
  void CopyStateFrom(const P2Quantile& o);

  double q_;
  uint64_t count_ = 0;
  // Marker heights, positions, and desired positions (5 markers once
  // count_ >= 5; before that heights_ holds the raw sorted prefix).
  double heights_[5];
  double positions_[5];
  double desired_[5];
  double increments_[5];
};

}  // namespace fungusdb

#endif  // FUNGUSDB_SUMMARY_P2_QUANTILE_H_
