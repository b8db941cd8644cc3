// Issue-queue partitioning schemes of Table 3: CISP, CSSP, CSPSP and
// private clusters (PC). All keep Icount as the rename selection policy and
// differ only in where a thread may place µops.
#pragma once

#include <algorithm>
#include <cmath>

#include "policy/policy.h"

namespace clusmt::policy {

/// A static partition's per-thread limit: `fraction` of `capacity`, rounded
/// down, never below one entry. Shared by the issue-queue schemes here and
/// the register-file schemes of policy/regfile_policy.h.
[[nodiscard]] inline int fraction_of(int capacity, double fraction) noexcept {
  return std::max(1, static_cast<int>(std::floor(capacity * fraction)));
}

/// Cluster-Insensitive Static Partitioning: a thread may hold at most
/// `partition_fraction` of the *total* issue-queue entries, wherever they
/// are ([31]-style).
class CispPolicy final : public ResourceAssignmentPolicy {
 public:
  explicit CispPolicy(const PolicyConfig& config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override { return "CISP"; }

  [[nodiscard]] bool allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                       ClusterId c, int count,
                                       int total_count) override;

 private:
  PolicyConfig config_;
};

/// Cluster-Sensitive Static Partitioning: a thread may hold at most
/// `partition_fraction` of *each cluster's* issue queue — the scheme the
/// paper finds best for workload balance.
class CsspPolicy : public ResourceAssignmentPolicy {
 public:
  explicit CsspPolicy(const PolicyConfig& config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override { return "CSSP"; }

  [[nodiscard]] bool allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                       ClusterId c, int count,
                                       int total_count) override;

 protected:
  PolicyConfig config_;
};

/// Cluster-Sensitive Partial Static Partitioning: only
/// `cspsp_guarantee_fraction` of each cluster's entries is reserved per
/// thread; the remainder is competed for.
class CspspPolicy final : public ResourceAssignmentPolicy {
 public:
  explicit CspspPolicy(const PolicyConfig& config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override { return "CSPSP"; }

  [[nodiscard]] bool allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                       ClusterId c, int count,
                                       int total_count) override;

 private:
  PolicyConfig config_;
};

/// Private clusters: thread t executes only in cluster t (mod clusters).
class PrivateClustersPolicy final : public ResourceAssignmentPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "PC"; }

  [[nodiscard]] ClusterId forced_cluster(const PipelineView& view,
                                         ThreadId tid) const override;
  [[nodiscard]] bool allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                       ClusterId c, int count,
                                       int total_count) override;
};

}  // namespace clusmt::policy
