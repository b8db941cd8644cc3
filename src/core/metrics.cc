#include "core/metrics.h"

#include <algorithm>

#include "common/stats.h"

namespace clusmt::core {

double slowdown(double single_ipc, double smt_ipc) noexcept {
  return safe_ratio(single_ipc, smt_ipc);
}

double fairness(std::span<const double> smt_ipc,
                std::span<const double> single_ipc) noexcept {
  if (smt_ipc.size() != single_ipc.size() || smt_ipc.empty()) return 0.0;
  double min_ratio = 1.0;
  for (std::size_t i = 0; i < smt_ipc.size(); ++i) {
    for (std::size_t j = 0; j < smt_ipc.size(); ++j) {
      if (i == j) continue;
      const double si = slowdown(single_ipc[i], smt_ipc[i]);
      const double sj = slowdown(single_ipc[j], smt_ipc[j]);
      if (sj == 0.0) return 0.0;
      min_ratio = std::min(min_ratio, si / sj);
    }
  }
  return min_ratio;
}

}  // namespace clusmt::core
