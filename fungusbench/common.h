// Shared vocabulary of the fungusbench load generator: the seeded RNG,
// the monotonic clock, statement shapes and sample statistics.
#ifndef FUNGUSBENCH_COMMON_H_
#define FUNGUSBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fungusbench {

/// Microseconds on the steady clock. Client round trips, due times and
/// replay spans all use it, so they compare directly within a process.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: a tiny generator whose output depends on the seed alone
/// (no library-defined distributions), so a statement stream is a pure
/// function of (workload, seed).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// Mixes a workload name and a seed into one stream seed; `salt`
/// separates independent streams (data, reader k, lifetime i).
inline uint64_t StreamSeed(const std::string& workload, uint64_t seed,
                           uint64_t salt) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the name
  for (char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng mix(h ^ (seed * 0x9e3779b97f4a7c15ULL) ^ (salt << 32));
  return mix.Next();
}

/// Every request the generator sends is one of these shapes. A latency
/// metric never pools two shapes.
enum class Shape {
  kCount,    // filtered count(*)
  kAgg,      // filtered sum/avg
  kGroup,    // GROUP BY site
  kProject,  // narrow projection, ~1% of rows
  kWrite,    // one batch of \insert statements
  kTick,     // \advance (runs the decay ticks)
  kConsume,  // CONSUME SELECT ... WHERE sensor = k
  kCheck,    // untimed verification reads (\tables, full count)
  kSetup,    // \create, \attach, \freeze, \trace
};

inline const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kCount: return "count";
    case Shape::kAgg: return "agg";
    case Shape::kGroup: return "group";
    case Shape::kProject: return "project";
    case Shape::kWrite: return "write";
    case Shape::kTick: return "tick";
    case Shape::kConsume: return "consume";
    case Shape::kCheck: return "check";
    case Shape::kSetup: return "setup";
  }
  return "?";
}

inline constexpr Shape kReadShapes[] = {Shape::kCount, Shape::kAgg,
                                        Shape::kGroup, Shape::kProject};

/// Linear-interpolated quantile (numpy's default); NaN when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Mean of the middle half: the values left after dropping the lowest
/// and the highest quarter (n / 4 from each end; the middle five of
/// nine). The median when fewer than four.
inline double MiddleMean(std::vector<double> v) {
  if (v.size() < 4) return Median(v);
  std::sort(v.begin(), v.end());
  const size_t drop = v.size() / 4;
  double sum = 0;
  for (size_t i = drop; i + drop < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

}  // namespace fungusbench

#endif  // FUNGUSBENCH_COMMON_H_
