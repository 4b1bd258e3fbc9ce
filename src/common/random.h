#ifndef FUNGUSDB_COMMON_RANDOM_H_
#define FUNGUSDB_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fungusdb {

/// SplitMix64 — used to expand a single 64-bit seed into a full generator
/// state. Reference: Steele, Lea & Flood, "Fast splittable pseudorandom
/// number generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();

 private:
  uint64_t state_;
};

/// Xoshiro256++ — the deterministic PRNG used by every stochastic
/// component in FungusDB (fungus seeding, workload generation, sampling).
/// All randomness flows through explicitly seeded instances so decay and
/// experiments are reproducible; std::mt19937 and std::random_device are
/// deliberately not used.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x5EEDFA57C0FFEE42ULL);

  /// Uniform 64 random bits.
  uint64_t NextUint64();

  /// Uniform in [0, bound). Requires bound > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// True with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Standard normal via Marsaglia polar method.
  double NextGaussian();

  /// Exponential with rate lambda (> 0).
  double NextExponential(double lambda);

  /// A fresh generator whose stream is independent of this one.
  Rng Split();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Zipfian generator over [0, n) with skew parameter theta in [0, 1).
/// theta = 0 is uniform; typical "skewed" workloads use 0.8-0.99.
/// Uses the Gray et al. (SIGMOD 1994) rejection-free formula with
/// precomputed constants, as popularized by YCSB.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta);

  /// Number of distinct items.
  uint64_t n() const { return n_; }

  uint64_t Next(Rng& rng);

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace fungusdb

#endif  // FUNGUSDB_COMMON_RANDOM_H_
