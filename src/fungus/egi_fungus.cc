#include "fungus/egi_fungus.h"

#include <cassert>
#include <cmath>
#include <vector>

#include "common/string_util.h"

namespace fungusdb {

EgiFungus::EgiFungus(Params params)
    : params_(params), rng_(params.rng_seed) {
  assert(params_.seeds_per_tick >= 0.0);
  assert(params_.decay_step > 0.0 && params_.decay_step <= 1.0);
  assert(params_.spread_probability >= 0.0 &&
         params_.spread_probability <= 1.0);
  assert(params_.age_bias >= 1.0);
}

std::optional<RowId> EgiFungus::SampleSeed(const Table& table) {
  const std::optional<RowId> lo = table.OldestLive();
  const std::optional<RowId> hi = table.NewestLive();
  if (!lo.has_value()) return std::nullopt;
  const RowId span = *hi - *lo + 1;
  // Rejection-sample an age-biased position on the time axis. Row ids
  // are insertion-ordered, so position == age rank. u^bias skews the
  // draw toward 0 (the oldest end).
  RowId candidate = *lo;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double u = std::pow(rng_.NextDouble(), params_.age_bias);
    candidate = *lo + static_cast<RowId>(u * static_cast<double>(span));
    if (candidate > *hi) candidate = *hi;
    if (table.IsLive(candidate)) return candidate;
  }
  // Dense dead regions: snap to the nearest live tuple instead.
  std::optional<RowId> next = table.NextLive(candidate);
  if (next.has_value()) return next;
  return table.PrevLive(candidate);
}

void EgiFungus::Tick(DecayContext& ctx) {
  Table& table = ctx.table();

  // Phase 1: seed new infections, age-biased.
  int seeds = static_cast<int>(params_.seeds_per_tick);
  const double frac = params_.seeds_per_tick - seeds;
  if (rng_.NextBernoulli(frac)) ++seeds;
  for (int i = 0; i < seeds; ++i) {
    std::optional<RowId> seed = SampleSeed(table);
    if (!seed.has_value()) break;
    if (infected_.insert(*seed).second) ctx.NoteSeed();
  }

  // Phase 2: spread to direct neighbours along the time axis, then decay
  // every infected tuple at equal rate. Spreading walks a snapshot of the
  // infection set, so a neighbour infected this tick does not spread
  // further until the next tick — but it does decay this tick, with its
  // infector (the paper's "at equal rate"; DESIGN.md §4).
  std::vector<RowId> frontier(infected_.begin(), infected_.end());
  for (RowId row : frontier) {
    if (params_.spread_probability > 0.0) {
      if (rng_.NextBernoulli(params_.spread_probability)) {
        const std::optional<RowId> prev = table.PrevLive(row);
        if (prev.has_value()) infected_.insert(*prev);
      }
      if (rng_.NextBernoulli(params_.spread_probability)) {
        const std::optional<RowId> next = table.NextLive(row);
        if (next.has_value()) infected_.insert(*next);
      }
    }
  }
  for (auto it = infected_.begin(); it != infected_.end();) {
    const RowId row = *it;
    if (!table.IsLive(row)) {
      // Died earlier (another fungus, a consuming query, or last tick);
      // the rot boundary lives on in the infected neighbours.
      it = infected_.erase(it);
      continue;
    }
    ctx.Decay(row, params_.decay_step);
    if (!table.IsLive(row)) {
      it = infected_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string EgiFungus::Describe() const {
  return "egi(seeds=" + FormatDouble(params_.seeds_per_tick, 2) +
         "/tick, step=" + FormatDouble(params_.decay_step, 3) +
         ", spread=" + FormatDouble(params_.spread_probability, 2) +
         ", age_bias=" + FormatDouble(params_.age_bias, 1) + ")";
}

void EgiFungus::Reset() {
  infected_.clear();
  rng_ = Rng(params_.rng_seed);
}

}  // namespace fungusdb
