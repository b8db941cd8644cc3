// Machine configuration (paper Table 1 defaults).
//
// Every field here feeds the RunCache content hash: when adding a knob,
// also extend hash_config() in src/harness/run_key.cc.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "frontend/fetch.h"
#include "memory/hierarchy.h"
#include "policy/policy.h"
#include "steer/steering.h"

namespace clusmt::core {

/// Per-cluster capability overrides for heterogeneous grids. Every field
/// uses zero-means-inherit: 0 falls back to the corresponding SimConfig
/// scalar, so a default-constructed shape describes a cluster identical to
/// the homogeneous machine.
struct ClusterShape {
  int issue_width = 0;  // issue ports (0 = SimConfig::issue_width)
  int iq_entries = 0;   // issue-queue entries (0 = SimConfig::iq_entries)
  int int_regs = 0;     // int register file (0 = SimConfig::int_regs)
  int fp_regs = 0;      // fp register file (0 = SimConfig::fp_regs)
};

struct SimConfig {
  int num_threads = 2;
  int num_clusters = 2;

  // Front end.
  int fetch_width = 6;   // Table 1: fetch width 6
  int rename_width = 6;  // rename/steer bandwidth, one thread per cycle
  int commit_width = 6;  // Table 1: commit width 6
  int decode_queue_capacity = 24;
  int mispredict_penalty = 14;  // Table 1: misprediction pipeline 14
  frontend::FetchSelection fetch_selection =
      frontend::FetchSelection::kFewestInQueue;  // paper §3
  frontend::BranchPredictorConfig predictor;
  frontend::TraceCacheConfig trace_cache;

  // Back end (per cluster unless stated).
  int rob_entries = 128;  // per thread; 0 = unbounded (Figure 2 methodology)
  int iq_entries = 32;    // Table 1: 32-64 per cluster
  int int_regs = 128;     // Table 1: 64-128 per cluster; 0 = unbounded
  int fp_regs = 128;      // 0 = unbounded
  int issue_width = 3;    // issue ports per cluster (Table 1: 3-port mix)
  int mob_entries = 128;  // shared
  int num_links = 2;      // Table 1: 2 point-to-point links
  int link_latency = 1;   // Table 1: 1 cycle
  int l1_write_ports = 2;  // stores retiring per cycle (Table 1: 2 write)

  // Heterogeneous grids: per-cluster capability overrides (zero-means-
  // inherit, see ClusterShape) and a per-cluster-pair link-latency matrix
  // (link_latency_cc[from][to]; 0 inherits link_latency).
  ClusterShape shape[kMaxClusters] = {};
  int link_latency_cc[kMaxClusters][kMaxClusters] = {};

  // Memory hierarchy.
  memory::HierarchyConfig memory;

  // Steering.
  steer::SteeringKind steering = steer::SteeringKind::kDependenceBalance;
  int steer_imbalance_threshold = 6;

  // Resource assignment scheme under evaluation.
  policy::PolicyKind policy = policy::PolicyKind::kIcount;
  policy::PolicyConfig policy_config;

  /// Aborts the run if no µop commits for this many cycles (deadlock trap).
  Cycle watchdog_cycles = 100000;

  /// Effective per-thread ROB capacity (0 selects the unbounded mode).
  [[nodiscard]] int effective_rob_entries() const noexcept {
    return rob_entries == 0 ? 4096 : rob_entries;
  }
  /// Issue-queue entries of `cluster` (shape override, else the base).
  [[nodiscard]] int effective_iq_entries(int cluster) const noexcept {
    const int v = shape[cluster].iq_entries;
    return v > 0 ? v : iq_entries;
  }
  /// Issue ports of `cluster` (shape override, else the base width).
  [[nodiscard]] int effective_issue_width(int cluster) const noexcept {
    const int v = shape[cluster].issue_width;
    return v > 0 ? v : issue_width;
  }
  /// Int register-file size of `cluster` (shape override, else the base).
  [[nodiscard]] int effective_int_regs(int cluster) const noexcept {
    const int v = shape[cluster].int_regs;
    return v > 0 ? v : int_regs;
  }
  /// Fp register-file size of `cluster` (shape override, else the base).
  [[nodiscard]] int effective_fp_regs(int cluster) const noexcept {
    const int v = shape[cluster].fp_regs;
    return v > 0 ? v : fp_regs;
  }
  [[nodiscard]] int effective_regs(int cluster, RegClass cls) const noexcept {
    return cls == RegClass::kInt ? effective_int_regs(cluster)
                                 : effective_fp_regs(cluster);
  }
  /// Inter-cluster copy latency from → to (matrix override, else the
  /// shared link_latency).
  [[nodiscard]] int effective_link_latency(int from, int to) const noexcept {
    const int v = link_latency_cc[from][to];
    return v > 0 ? v : link_latency;
  }
  [[nodiscard]] bool rf_unbounded() const noexcept {
    return int_regs == 0 || fp_regs == 0;
  }
};

}  // namespace clusmt::core
