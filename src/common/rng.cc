#include "common/rng.h"

#include <cmath>

namespace clusmt {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::bounded(std::uint64_t bound) noexcept {
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256::uniform() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Xoshiro256::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

namespace {
/// floor(log1p(-u) / log1p_neg_p) for u = m53 * 2^-53, capped at `cap`:
/// the geometric formula once the p guards have passed.
[[nodiscard]] std::uint64_t geometric_formula(double log1p_neg_p,
                                              std::uint64_t m53,
                                              std::uint64_t cap) noexcept {
  const double u = static_cast<double>(m53) * 0x1.0p-53;
  const double draw = std::log1p(-u) / log1p_neg_p;
  if (!(draw >= 0.0) || draw >= static_cast<double>(cap)) return cap;
  return static_cast<std::uint64_t>(draw);
}
}  // namespace

std::uint64_t Xoshiro256::geometric(double p, std::uint64_t cap) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return cap;
  // Inverse transform sampling: floor(log(u) / log(1-p)).
  return geometric_formula(std::log1p(-p), (*this)() >> 11, cap);
}

GeometricDist::GeometricDist(double p) noexcept
    : p_(p),
      log1p_neg_p_(p > 0.0 && p < 1.0 ? std::log1p(-p) : 0.0),
      uses_rng_(!(p >= 1.0) && !(p <= 0.0)) {
  constexpr std::uint64_t kDraws = std::uint64_t{1} << 53;
  std::uint64_t lo = 0;
  for (std::uint64_t k = 0; k < kTableMax; ++k) {
    // First draw in [lo, kDraws) whose result reaches k + 1; the search
    // for k + 2 starts there, as the result never falls with the draw.
    std::uint64_t hi = kDraws;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (formula(mid, k + 1) > k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    thresholds_[k] = lo;
  }
  thresholds_[kTableMax] = ~std::uint64_t{0};
  std::uint64_t k = 0;
  for (std::size_t b = 0; b < bucket_.size(); ++b) {
    const std::uint64_t first = std::uint64_t{b} << (53 - kBucketBits);
    while (k < kTableMax && thresholds_[k] <= first) ++k;
    bucket_[b] = static_cast<std::uint8_t>(k);
  }
}

std::uint64_t GeometricDist::formula(std::uint64_t m53,
                                     std::uint64_t cap) const noexcept {
  if (p_ >= 1.0) return 0;
  if (p_ <= 0.0) return cap;
  return geometric_formula(log1p_neg_p_, m53, cap);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(state);
}

}  // namespace clusmt
