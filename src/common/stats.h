// Averaging helpers for the experiment harness: per-category means of a
// per-workload metric (harness::by_category) and means of speedup series.
#pragma once

#include <cstddef>
#include <span>

namespace clusmt {

/// Online mean accumulator (Welford's update: no running sum to overflow or
/// lose precision).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

/// Arithmetic mean of a span; 0 for an empty span.
[[nodiscard]] double mean_of(std::span<const double> xs) noexcept;

/// Ratio helper that tolerates zero denominators (returns 0).
[[nodiscard]] constexpr double safe_ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace clusmt
