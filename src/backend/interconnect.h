// Inter-cluster interconnection network (paper Table 1): two point-to-point
// links of one-cycle latency. Copy µops arbitrate for a link slot in their
// issue cycle; link bandwidth is the global copies-per-cycle budget.
// Heterogeneous grids may override the latency per cluster pair
// (set_pair_latency); unset pairs keep the shared base latency.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace clusmt::backend {

struct InterconnectStats {
  std::uint64_t transfers = 0;
  std::uint64_t denied = 0;  // copy ready but no link slot this cycle
};

class Interconnect {
 public:
  Interconnect(int num_links, int latency_cycles);

  void new_cycle() noexcept { used_this_cycle_ = 0; }

  /// Tries to reserve a link slot this cycle.
  bool try_acquire() noexcept;

  [[nodiscard]] int latency() const noexcept { return latency_; }
  /// Copy latency from cluster `from` to cluster `to` (pair override,
  /// else the shared base latency).
  [[nodiscard]] int latency(int from, int to) const noexcept {
    const int v = pair_latency_[from][to];
    return v > 0 ? v : latency_;
  }
  /// Overrides one directed pair's latency (0 restores the base).
  void set_pair_latency(int from, int to, int latency_cycles);
  [[nodiscard]] const InterconnectStats& stats() const noexcept {
    return stats_;
  }
  void reset_stats() noexcept { stats_ = InterconnectStats{}; }

 private:
  int num_links_;
  int latency_;
  int pair_latency_[kMaxClusters][kMaxClusters] = {};  // 0 = base latency
  int used_this_cycle_ = 0;
  InterconnectStats stats_;
};

}  // namespace clusmt::backend
