// One simulation cell: simulate_workload runs a workload on a machine
// configuration and collects its RunResult. Suites, grids and fairness
// baselines run through the sweep engine (harness/sweep.h), which schedules
// every cell on one queue and memoises them in the RunCache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/simulator.h"
#include "core/stats.h"
#include "trace/workload.h"

namespace clusmt::harness {

/// Result of one two-thread simulation.
struct RunResult {
  std::string workload;
  std::string category;
  std::string type;
  core::SimStats stats;
  double ipc[kMaxThreads] = {};
  double throughput = 0.0;

  /// Fairness vs single-thread baselines; filled by run_sweep when the
  /// spec asks for it (SweepSpec::with_fairness).
  double fairness = 0.0;
};

/// Simulates one workload on `config` for `warmup` + `cycles` cycles and
/// collects the per-run metrics. Deterministic in its arguments alone (the
/// simulator draws all randomness from the workload's trace seeds), so the
/// result is cacheable by content hash and independent of host scheduling.
[[nodiscard]] RunResult simulate_workload(const core::SimConfig& config,
                                          const trace::WorkloadSpec& spec,
                                          Cycle cycles, Cycle warmup);

/// Process-wide skip-ahead activity (core quiescent-cycle fast path),
/// accumulated by simulate_workload over the *measured* phase of every run
/// this process simulated. Deliberately outside SimStats — skipping is a
/// model-speed fact, not a machine fact, and SimStats must stay bit-equal
/// with the feature off. Thread-safe monotone tallies (no reset), read as
/// deltas like the RunCache counters.
[[nodiscard]] std::uint64_t total_cycles_skipped() noexcept;
[[nodiscard]] std::uint64_t total_skip_episodes() noexcept;

/// Arithmetic mean of `metric` over the workloads of each category, in the
/// paper's display order, followed by an "AVG" row over all workloads.
/// Categories absent from the suite are skipped.
[[nodiscard]] std::vector<std::pair<std::string, double>> by_category(
    const std::vector<trace::WorkloadSpec>& suite,
    const std::vector<double>& per_workload_metric);

}  // namespace clusmt::harness
