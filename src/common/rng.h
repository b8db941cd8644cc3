// Deterministic pseudo-random number generation.
//
// Every stochastic decision in the simulator and trace generator flows from
// one of these generators, seeded from a single 64-bit workload seed, so a
// simulation is bit-reproducible across runs and platforms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace clusmt {

/// SplitMix64: used to expand a single seed into generator state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Satisfies UniformRandomBitGenerator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept;

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's method.
  [[nodiscard]] std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Bernoulli draw with probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept;

  /// Geometric draw: number of failures before first success, success
  /// probability p in (0, 1]. Capped at `cap`.
  [[nodiscard]] std::uint64_t geometric(double p, std::uint64_t cap) noexcept;

  /// Derive an independent child generator (for splitting streams).
  [[nodiscard]] Xoshiro256 fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Geometric sampler with a fixed success probability p. Its definition is
/// Xoshiro256::geometric's formula, floor(log1p(-u) / log1p(-p)) with the
/// same guards, and sample() returns exactly what geometric(p, cap) returns
/// from the same RNG state, consuming the same RNG words. It gets there by
/// table lookup instead of a log1p per draw: the constructor
/// binary-searches, for each result k = 1..kTableMax, the first 53-bit draw
/// the formula maps to k or more (the formula is monotone in the draw), and
/// indexes those thresholds by the draw's top kBucketBits bits. A sample
/// then costs one RNG word, one byte load and usually one compare. Caps
/// above kTableMax stay exact: a draw past the last threshold falls back to
/// the formula.
class GeometricDist {
 public:
  static constexpr std::uint64_t kTableMax = 64;
  static constexpr int kBucketBits = 10;

  explicit GeometricDist(double p) noexcept;

  [[nodiscard]] std::uint64_t sample(Xoshiro256& rng,
                                     std::uint64_t cap) const noexcept {
    if (!uses_rng_) return p_ >= 1.0 ? 0 : cap;
    return draw(rng() >> 11, cap);
  }

  /// The result for one 53-bit draw `m53` (the top 53 bits of an RNG word,
  /// u = m53 * 2^-53), capped at `cap`.
  [[nodiscard]] std::uint64_t draw(std::uint64_t m53,
                                   std::uint64_t cap) const noexcept {
    std::uint64_t k = bucket_[m53 >> (53 - kBucketBits)];
    while (m53 >= thresholds_[k]) ++k;  // thresholds_[kTableMax] stops it
    if (k >= cap) return cap;
    return k < kTableMax ? k : formula(m53, cap);
  }

 private:
  [[nodiscard]] std::uint64_t formula(std::uint64_t m53,
                                      std::uint64_t cap) const noexcept;

  double p_ = 0.0;
  double log1p_neg_p_ = 0.0;
  bool uses_rng_ = false;  // false when the guards decide without a draw
  /// thresholds_[k]: first draw whose result is k + 1 or more (2^53 when
  /// none is); thresholds_[kTableMax] is a sentinel above every draw.
  std::array<std::uint64_t, kTableMax + 1> thresholds_{};
  /// bucket_[b]: the result of draw b << (53 - kBucketBits), at most
  /// kTableMax; every draw of bucket b yields at least that.
  std::array<std::uint8_t, std::size_t{1} << kBucketBits> bucket_{};
};

/// Stable 64-bit hash combiner for deriving per-entity seeds
/// (e.g. per-thread, per-category) from a master seed.
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t a,
                                         std::uint64_t b) noexcept;

}  // namespace clusmt
