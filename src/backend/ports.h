// Issue-port model of one cluster. At the paper's width of 3 (Table 1):
//   Port 0: int, fp, simd     Port 1: int, fp, simd     Port 2: int, mem
// Heterogeneous grids vary the width per cluster; the mix generalizes as
// "last port is int+mem, every earlier port is int+fp/simd" (a width-1
// cluster has one universal port), which reproduces Table 1 exactly at
// width 3. Each port accepts one µop per cycle. Figure 5's workload-
// imbalance accounting asks, per port class, whether a cluster had a free
// compatible port after selection — exposed here via free_compatible().
#pragma once

#include <array>

#include "trace/uop.h"

namespace clusmt::backend {

class PortSet {
 public:
  static constexpr int kNumPorts = 3;  // paper Table 1 width
  static constexpr int kMaxPorts = 8;  // hard bound on per-cluster width

  PortSet() noexcept = default;
  explicit PortSet(int num_ports) noexcept : num_ports_(num_ports) {}

  [[nodiscard]] int num_ports() const noexcept { return num_ports_; }

  /// Resets all ports to free (start of cycle).
  void new_cycle() noexcept { busy_ = {}; }

  /// Books a free port compatible with `cls`; false when none remains.
  bool try_book(trace::PortClass cls) noexcept;

  /// Number of free ports still compatible with `cls`.
  [[nodiscard]] int free_compatible(trace::PortClass cls) const noexcept;

  /// True when every port is booked this cycle (no class can issue).
  [[nodiscard]] bool all_booked() const noexcept {
    for (int p = 0; p < num_ports_; ++p) {
      if (!busy_[p]) return false;
    }
    return true;
  }

  /// Compatibility under the generalized mix: can `port` of a
  /// `num_ports`-wide cluster execute µops of `cls`?
  [[nodiscard]] static constexpr bool compatible(
      int port, trace::PortClass cls, int num_ports = kNumPorts) noexcept {
    switch (cls) {
      case trace::PortClass::kInt:
        return true;  // every port executes integer µops
      case trace::PortClass::kFpSimd:
        return num_ports == 1 || port < num_ports - 1;
      case trace::PortClass::kMem:
        return port == num_ports - 1;
    }
    return false;
  }

 private:
  int num_ports_ = kNumPorts;
  std::array<bool, kMaxPorts> busy_ = {};
};

}  // namespace clusmt::backend
