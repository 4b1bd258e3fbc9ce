#ifndef FUNGUSDB_FUNGUS_EXPONENTIAL_FUNGUS_H_
#define FUNGUSDB_FUNGUS_EXPONENTIAL_FUNGUS_H_

#include <string>

#include "fungus/fungus.h"

namespace fungusdb {

/// Uniform exponential decay: every live tuple's freshness is multiplied
/// by exp(-lambda * dt) each tick, where dt is the time since the
/// previous tick. A tuple is discarded when its freshness falls to or
/// below `kill_threshold` (pure exponential decay never reaches zero).
///
/// Half-life relation: half_life = ln(2) / lambda.
class ExponentialFungus : public Fungus {
 public:
  struct Params {
    /// Decay rate per second of elapsed (virtual) time.
    double lambda_per_second = 0.0;

    /// Freshness at or below this value discards the tuple.
    double kill_threshold = 0.01;

    /// Time of the attachment; the first tick decays from here.
    Timestamp start_time = 0;
  };

  explicit ExponentialFungus(Params params);

  /// Convenience: rate chosen so freshness halves every `half_life`.
  static ExponentialFungus::Params FromHalfLife(Duration half_life,
                                                Timestamp start_time = 0);

  std::string_view name() const override { return "exponential"; }
  void Tick(DecayContext& ctx) override;
  std::string Describe() const override;
  void Reset() override;

  const Params& params() const { return params_; }

 private:
  Params params_;
  Timestamp last_tick_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_EXPONENTIAL_FUNGUS_H_
