// Per-thread register renaming with cross-cluster replica tracking.
//
// In the clustered back-end a logical register value may be present in
// several clusters at once: the producer's cluster holds the "home" copy
// and copy µops create replicas in consumer clusters ([12]). The rename
// map therefore maps each architectural register to a *replica set*: one
// optional physical register per cluster. A redefinition supersedes the
// whole set (all replicas are freed when the redefining µop commits); a
// squash restores the previous set from per-µop undo records.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/phys_ref.h"
#include "common/types.h"

namespace clusmt::frontend {

/// One physical register per cluster; -1 = no replica in that cluster.
struct ReplicaSet {
  std::array<std::int16_t, kMaxClusters> phys = {-1, -1, -1, -1};

  [[nodiscard]] bool present(ClusterId c) const noexcept {
    return phys[c] >= 0;
  }
  [[nodiscard]] bool anywhere() const noexcept {
    for (auto p : phys) {
      if (p >= 0) return true;
    }
    return false;
  }
  /// First cluster holding a replica, or -1.
  [[nodiscard]] ClusterId any_cluster() const noexcept {
    for (int c = 0; c < kMaxClusters; ++c) {
      if (phys[c] >= 0) return c;
    }
    return -1;
  }
};

class RenameMap {
 public:
  explicit RenameMap(int num_clusters);

  /// Replica set of `arch`. Rename is the per-µop inner loop, so the
  /// lookup is unchecked in release builds; arch indices come from trace
  /// generation, which only emits valid architectural registers.
  [[nodiscard]] const ReplicaSet& get(int arch) const {
    assert(is_valid_arch_reg(arch));
    return map_[static_cast<std::size_t>(arch)];
  }

  /// Redefinition: the new mapping is exactly {cluster -> phys}. Returns
  /// the superseded set (the caller records it as the µop's undo/free log).
  ReplicaSet define(int arch, ClusterId cluster, std::int16_t phys);

  /// A copy µop materialised a replica in `cluster`.
  void add_replica(int arch, ClusterId cluster, std::int16_t phys);

  /// Squash undo for add_replica.
  void remove_replica(int arch, ClusterId cluster);

  /// Squash undo for define.
  void restore(int arch, const ReplicaSet& previous);

 private:
  std::vector<ReplicaSet> map_;
  int num_clusters_;
};

}  // namespace clusmt::frontend
