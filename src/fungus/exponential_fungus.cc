#include "fungus/exponential_fungus.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace fungusdb {

ExponentialFungus::ExponentialFungus(Params params)
    : params_(params), last_tick_(params.start_time) {
  assert(params_.lambda_per_second > 0.0);
  assert(params_.kill_threshold >= 0.0 && params_.kill_threshold < 1.0);
}

ExponentialFungus::Params ExponentialFungus::FromHalfLife(
    Duration half_life, Timestamp start_time) {
  assert(half_life > 0);
  Params p;
  p.lambda_per_second =
      std::log(2.0) / (static_cast<double>(half_life) / kSecond);
  p.start_time = start_time;
  return p;
}

void ExponentialFungus::Tick(DecayContext& ctx) {
  const Timestamp now = ctx.now();
  const double dt_seconds =
      static_cast<double>(now - last_tick_) / static_cast<double>(kSecond);
  last_tick_ = now;
  if (dt_seconds <= 0.0) return;
  const double factor = std::exp(-params_.lambda_per_second * dt_seconds);
  Table& table = ctx.table();
  table.ForEachLive([&](RowId row) {
    const double f = table.Freshness(row) * factor;
    ctx.SetFreshness(row, f <= params_.kill_threshold ? 0.0 : f);
  });
}

std::string ExponentialFungus::Describe() const {
  return "exponential(lambda=" + FormatDouble(params_.lambda_per_second, 6) +
         "/s, kill<=" + FormatDouble(params_.kill_threshold, 3) + ")";
}

void ExponentialFungus::Reset() { last_tick_ = params_.start_time; }

}  // namespace fungusdb
