// Register-file assignment schemes of Table 4 and the paper's proposal.
//
// All three keep CSSP as the issue-queue handler (the paper's §5.2 choice)
// and add register-allocation limits:
//   * CSSPRF — static, cluster-sensitive: a thread may hold at most half of
//     each cluster's register file of each class (shown inferior: it
//     contradicts the steering/IQ decisions).
//   * CISPRF — static, cluster-insensitive: at most half of the *total*
//     registers of each class.
//   * CDPRF — the proposal: cluster-insensitive *dynamic* partitioning. A
//     per-(thread, class) RFOC counter accumulates occupancy plus a
//     Starvation counter every cycle (Figure 7); at the end of each 128K-
//     cycle interval the average becomes the thread's guaranteed region,
//     clamped to half the register file (Figure 8). A thread above its
//     guarantee may allocate only while every other thread's guarantee
//     remains satisfiable.
#pragma once

#include <array>
#include <cstdint>

#include "policy/partition.h"

namespace clusmt::policy {

/// CSSP + per-cluster static register-file halves.
class CssprfPolicy final : public CsspPolicy {
 public:
  explicit CssprfPolicy(const PolicyConfig& config) : CsspPolicy(config) {}
  [[nodiscard]] std::string_view name() const override { return "CSSPRF"; }

  [[nodiscard]] bool allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                    ClusterId c, RegClass cls,
                                    int count) override;
};

/// CSSP + total (cluster-insensitive) static register-file halves.
class CisprfPolicy final : public CsspPolicy {
 public:
  explicit CisprfPolicy(const PolicyConfig& config) : CsspPolicy(config) {}
  [[nodiscard]] std::string_view name() const override { return "CISPRF"; }

  [[nodiscard]] bool allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                    ClusterId c, RegClass cls,
                                    int count) override;
};

/// CSSP + Cluster-insensitive Dynamically Partitioned Register File — the
/// paper's contribution (called CDPRF/CIDPRF in §5.2 and Figure 9).
class CdprfPolicy final : public CsspPolicy {
 public:
  explicit CdprfPolicy(const PolicyConfig& config);
  [[nodiscard]] std::string_view name() const override { return "CDPRF"; }

  void begin_cycle(const PipelineView& view) override;

  /// Skips must not cross the 128K-cycle interval boundary — rollover
  /// rewrites every threshold and needs to run on a live cycle.
  [[nodiscard]] Cycle quiesce_horizon(Cycle now) const override;

  [[nodiscard]] bool allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                    ClusterId c, RegClass cls,
                                    int count) override;

  // --- Introspection for tests and the micro-bench ---
  [[nodiscard]] std::uint64_t rfoc(ThreadId tid, RegClass cls) const {
    return state_[tid][static_cast<int>(cls)].rfoc;
  }
  [[nodiscard]] std::uint64_t starvation(ThreadId tid, RegClass cls) const {
    return state_[tid][static_cast<int>(cls)].starvation;
  }
  [[nodiscard]] int threshold(ThreadId tid, RegClass cls) const {
    return state_[tid][static_cast<int>(cls)].threshold;
  }
  [[nodiscard]] Cycle interval() const noexcept {
    return config_.cdprf_interval;
  }

 private:
  struct PerThreadClass {
    std::uint64_t rfoc = 0;        // Register File Occupancy accumulator
    std::uint64_t starvation = 0;  // consecutive RF-starved cycles
    int threshold = 0;             // guaranteed registers this interval
    bool threshold_initialised = false;
  };

  void roll_interval(const PipelineView& view);

  std::array<std::array<PerThreadClass, kNumRegClasses>, kMaxThreads> state_;
  Cycle interval_start_ = 0;
  bool started_ = false;
};

}  // namespace clusmt::policy
