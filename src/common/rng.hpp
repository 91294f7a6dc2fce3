/// \file rng.hpp
/// Deterministic, explicitly-seeded random number generation for experiment
/// reproducibility. Wraps xoshiro256** (public-domain algorithm by Blackman &
/// Vigna) seeded through SplitMix64, so a single 64-bit seed fully determines
/// every experiment; all figure benches print their seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace caft {

/// xoshiro256** generator with convenience draws used across the library.
/// Satisfies UniformRandomBitGenerator so it also plugs into <random> if
/// ever needed, but all library sampling goes through the members below to
/// keep results stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform01();
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);
  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Exponential draw with rate `rate` (mean 1/rate). Requires rate > 0.
  /// Used for memoryless processor lifetimes in the fault-injection
  /// campaign (constant hazard rate).
  double exponential(double rate);
  /// Weibull draw with shape k and scale λ (both > 0): λ·(-ln U)^(1/k).
  /// Shape < 1 models infant mortality, shape > 1 wear-out — the two
  /// lifetime regimes the exponential cannot express.
  double weibull(double shape, double scale);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(0, i - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Draws `k` distinct values from {0, 1, ..., n-1} (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Partial Fisher–Yates over `pool[0, n)` in place: afterwards pool[0, k)
  /// holds k distinct entries, uniformly drawn, in draw order. It makes the
  /// uniform_int(i, n - 1) draws of sample_without_replacement, which runs
  /// it over {0, ..., n-1}; a caller holding that pool in its own buffer
  /// draws the same sample without allocating.
  template <typename T>
  void partial_shuffle(T* pool, std::size_t n, std::size_t k) {
    CAFT_CHECK_MSG(k <= n,
                   "cannot sample more items than the population holds");
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i, n - 1));
      using std::swap;
      swap(pool[i], pool[j]);
    }
  }

  /// Derives an independent child generator; used to give each experiment
  /// repetition its own stream so repetitions can be reordered freely.
  [[nodiscard]] Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace caft
