// SMT evaluation metrics (paper §4): throughput (useful committed µops per
// cycle) and the fairness metric of Gabor et al. [33] / Luo et al. [17]:
// the minimum, over thread pairs, of the ratio between their slowdowns
// relative to single-threaded execution.
#pragma once

#include <span>

#include "common/types.h"

namespace clusmt::core {

/// Per-thread slowdown: IPC alone / IPC in the SMT mix (>= 1 usually).
[[nodiscard]] double slowdown(double single_ipc, double smt_ipc) noexcept;

/// Fairness in [0, 1]: min over ordered thread pairs (i, j) of
/// slowdown_i / slowdown_j. 1 = perfectly equal slowdowns.
[[nodiscard]] double fairness(std::span<const double> smt_ipc,
                              std::span<const double> single_ipc) noexcept;

}  // namespace clusmt::core
