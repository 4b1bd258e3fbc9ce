#ifndef FUNGUSDB_FUNGUS_EGI_FUNGUS_H_
#define FUNGUSDB_FUNGUS_EGI_FUNGUS_H_

#include <optional>
#include <set>
#include <string>

#include "common/random.h"
#include "fungus/fungus.h"

namespace fungusdb {

/// EGI — "Evict Grouped Individuals", the fungus defined in the paper.
/// At each clock tick:
///
///   1. *Seed.* Select live tuples with probability biased by age
///      (the paper: "inversely randomly correlated with its age" — old
///      tuples are more likely to be picked; decay starts where data is
///      stale) and infect them.
///   2. *Spread & decay.* Every infected tuple infects its direct live
///      neighbours along the time axis (previous/next row in insertion
///      order) with probability `spread_probability`; then every
///      infected tuple — including a neighbour infected this tick —
///      loses `decay_step` freshness, "at equal rate".
///
/// An infected region therefore grows bidirectionally while its interior
/// dies — contiguous "rotting spots", the Blue-Cheese effect. Once a
/// whole segment (insertion range) has died the table reclaims it.
class EgiFungus : public Fungus {
 public:
  struct Params {
    /// Expected new infections per tick (fractional part is Bernoulli).
    double seeds_per_tick = 1.0;

    /// Freshness lost per tick by each infected tuple.
    double decay_step = 0.1;

    /// Probability that an infected tuple infects each direct live
    /// neighbour on a given tick (1.0 = deterministic bidirectional
    /// growth, 0.0 = no spreading — isolated pinpricks).
    double spread_probability = 1.0;

    /// Age bias exponent for seeding, >= 1. Seed position is drawn as
    /// u^age_bias scaled over the live row-id range, so larger values
    /// concentrate seeds on older tuples; 1.0 is uniform.
    double age_bias = 2.0;

    /// PRNG seed; EGI runs are fully deterministic given this.
    uint64_t rng_seed = 0xE61FA57;
  };

  explicit EgiFungus(Params params);

  std::string_view name() const override { return "egi"; }
  void Tick(DecayContext& ctx) override;
  std::string Describe() const override;
  void Reset() override;

  const Params& params() const { return params_; }

  /// Currently infected, still-live tuples (exposed for tests and the
  /// blue-cheese visualizer).
  const std::set<RowId>& infected() const { return infected_; }

 private:
  /// Draws one live row, age-biased; nullopt when the table is empty.
  std::optional<RowId> SampleSeed(const Table& table);

  Params params_;
  Rng rng_;
  std::set<RowId> infected_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_FUNGUS_EGI_FUNGUS_H_
