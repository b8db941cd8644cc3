// Read-only snapshot of the pipeline state exposed to resource-assignment
// policies. The core refreshes it every cycle; policies never mutate
// machine state directly — they answer allocation/selection queries and
// request flushes.
#pragma once

#include "common/types.h"

namespace clusmt::policy {

struct PipelineView {
  Cycle now = 0;
  int num_threads = 2;
  int num_clusters = 2;

  // Capacities. The scalars are the homogeneous bases; the _c arrays are
  // per-cluster overrides for heterogeneous grids with zero-means-inherit
  // semantics (0 falls back to the base), so hand-built homogeneous views
  // never need to fill them. Policies read per-cluster capacity via the
  // *_of accessors, never the raw fields.
  int iq_capacity = 32;  // entries per cluster (homogeneous base)
  int iq_capacity_c[kMaxClusters] = {};
  int rf_capacity[kNumRegClasses] = {128, 128};  // per cluster, per class
  int rf_capacity_c[kMaxClusters][kNumRegClasses] = {};
  bool rf_unbounded = false;

  // Issue-queue occupancies.
  int iq_occ[kMaxClusters] = {};
  int iq_occ_tc[kMaxThreads][kMaxClusters] = {};

  // Register-file occupancies.
  int rf_used[kMaxThreads][kMaxClusters][kNumRegClasses] = {};
  int rf_free[kMaxClusters][kNumRegClasses] = {};

  // Front-end state.
  int decode_queue_depth[kMaxThreads] = {};
  int rob_occ[kMaxThreads] = {};

  // Memory state: outstanding L2 misses per thread.
  bool l2_pending[kMaxThreads] = {};

  // Did renaming block on a register of this class for this thread during
  // the previous cycle? Feeds CDPRF's Starvation counters.
  bool rf_blocked[kMaxThreads][kNumRegClasses] = {};

  // Cumulative useful µops committed per thread (monotonic between stat
  // resets). Feeds the hill-climbing policy's epoch measurements.
  std::uint64_t committed[kMaxThreads] = {};

  // µops held in each issue queue whose sources were not ready when the
  // issue stage last scanned (one cycle stale, as a hardware counter would
  // be). Feeds the unready-count front-end gate [20].
  int iq_unready_tc[kMaxThreads][kMaxClusters] = {};

  // The aggregation helpers below run inside the per-µop policy queries,
  // so they sum over the fixed kMaxClusters bound instead of the runtime
  // cluster count: slots past num_clusters are never written and stay
  // zero, the totals are identical, and the loops unroll branch-free.

  /// Instructions of `tid` between rename and issue (Icount's metric).
  [[nodiscard]] int iq_occ_thread_total(ThreadId tid) const noexcept {
    int total = 0;
    for (int c = 0; c < kMaxClusters; ++c) total += iq_occ_tc[tid][c];
    return total;
  }

  [[nodiscard]] int rf_used_total(ThreadId tid, RegClass cls) const noexcept {
    int total = 0;
    for (int c = 0; c < kMaxClusters; ++c) {
      total += rf_used[tid][c][static_cast<int>(cls)];
    }
    return total;
  }

  [[nodiscard]] int rf_free_total(RegClass cls) const noexcept {
    int total = 0;
    for (int c = 0; c < kMaxClusters; ++c) {
      total += rf_free[c][static_cast<int>(cls)];
    }
    return total;
  }

  /// Register-file capacity of one cluster (override, else the base).
  [[nodiscard]] int rf_capacity_of(ClusterId c, RegClass cls) const noexcept {
    const int v = rf_capacity_c[c][static_cast<int>(cls)];
    return v > 0 ? v : rf_capacity[static_cast<int>(cls)];
  }

  /// Machine-wide register capacity: the sum of each cluster's own file
  /// (NOT per-cluster × num_clusters — clusters may differ in shape).
  [[nodiscard]] int rf_capacity_total(RegClass cls) const noexcept {
    int total = 0;
    for (int c = 0; c < num_clusters; ++c) total += rf_capacity_of(c, cls);
    return total;
  }

  /// Issue-queue capacity of one cluster (override, else the base).
  [[nodiscard]] int iq_capacity_of(ClusterId c) const noexcept {
    return iq_capacity_c[c] > 0 ? iq_capacity_c[c] : iq_capacity;
  }

  [[nodiscard]] int iq_capacity_total() const noexcept {
    int total = 0;
    for (int c = 0; c < num_clusters; ++c) total += iq_capacity_of(c);
    return total;
  }

  [[nodiscard]] std::uint64_t committed_total() const noexcept {
    std::uint64_t total = 0;
    for (int t = 0; t < kMaxThreads; ++t) total += committed[t];
    return total;
  }

  /// Not-ready µops of `tid` across every issue queue.
  [[nodiscard]] int iq_unready_total(ThreadId tid) const noexcept {
    int total = 0;
    for (int c = 0; c < kMaxClusters; ++c) total += iq_unready_tc[tid][c];
    return total;
  }
};

}  // namespace clusmt::policy
