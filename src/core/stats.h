// Simulation counters. Every figure of the paper's evaluation reads one or
// more of these:
//   Figure 2/6/9 — committed useful µops (throughput),
//   Figure 3     — committed copies per retired µop,
//   Figure 4     — preferred-cluster issue-queue stall events,
//   Figure 5     — workload-imbalance event breakdown,
//   Figure 10    — per-thread IPCs (fairness vs single-thread baselines).
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "common/types.h"
#include "trace/uop.h"

namespace clusmt::core {

struct SimStats {
  Cycle cycles = 0;

  // Commit.
  std::uint64_t committed[kMaxThreads] = {};  // useful µops (copies excluded)
  std::uint64_t committed_copies = 0;
  std::uint64_t committed_branches = 0;
  std::uint64_t committed_loads = 0;
  std::uint64_t committed_stores = 0;

  // Rename / dispatch.
  std::uint64_t renamed_uops = 0;
  std::uint64_t copies_created = 0;
  std::uint64_t rename_cycles = 0;          // cycles with >=1 rename
  std::uint64_t rename_blocked_cycles = 0;  // selected thread fully blocked
  std::uint64_t rename_block_iq = 0;
  std::uint64_t rename_block_rf = 0;
  std::uint64_t rename_block_rob = 0;
  std::uint64_t rename_block_mob = 0;

  /// Figure 4: µop could not be placed in its *preferred* cluster because
  /// that cluster's IQ was full or the policy cap was reached (whether the
  /// µop was then re-steered or renaming blocked).
  std::uint64_t iq_pref_stall_events = 0;
  std::uint64_t non_preferred_dispatches = 0;

  // Issue / execute.
  std::uint64_t issued_uops = 0;
  std::uint64_t cycles_with_issue = 0;
  /// Figure 5: [could_run_in_other_cluster][port class] event counts.
  std::uint64_t imbalance_events[2][trace::kNumPortClasses] = {};

  // Squash & control.
  std::uint64_t squashed_uops = 0;
  std::uint64_t branches_resolved = 0;
  std::uint64_t mispredicts_resolved = 0;
  std::uint64_t policy_flushes = 0;

  // Memory.
  std::uint64_t load_l2_misses = 0;
  std::uint64_t store_l2_misses = 0;
  std::uint64_t load_forwards = 0;

  [[nodiscard]] std::uint64_t committed_total() const noexcept {
    std::uint64_t total = 0;
    for (auto c : committed) total += c;
    return total;
  }

  /// Useful committed µops per cycle (the paper's throughput metric;
  /// copies are overhead, not useful work).
  [[nodiscard]] double throughput() const noexcept {
    return safe_ratio(static_cast<double>(committed_total()),
                      static_cast<double>(cycles));
  }

  [[nodiscard]] double ipc(ThreadId tid) const noexcept {
    return safe_ratio(static_cast<double>(committed[tid]),
                      static_cast<double>(cycles));
  }

  /// Figure 3 metric.
  [[nodiscard]] double copies_per_retired() const noexcept {
    return safe_ratio(static_cast<double>(committed_copies),
                      static_cast<double>(committed_total()));
  }

  /// Figure 4 metric.
  [[nodiscard]] double iq_stalls_per_retired() const noexcept {
    return safe_ratio(static_cast<double>(iq_pref_stall_events),
                      static_cast<double>(committed_total()));
  }

  bool operator==(const SimStats&) const = default;
};

/// Calls `f(name, counter...)` once per counter, passing that counter of
/// each SimStats in `s` (one for the record codec, two for a field-naming
/// comparison), in declaration order. Array counters are visited element by
/// element under the array's name. Run-store records lay the counters out
/// in exactly this order (harness/run_store.cc), so adding, dropping or
/// reordering a counter here is a record format change.
template <class F, class... Stats>
void for_each_counter(F&& f, Stats&... s) {
  f("cycles", s.cycles...);
  for (int t = 0; t < kMaxThreads; ++t) f("committed", s.committed[t]...);
  f("committed_copies", s.committed_copies...);
  f("committed_branches", s.committed_branches...);
  f("committed_loads", s.committed_loads...);
  f("committed_stores", s.committed_stores...);
  f("renamed_uops", s.renamed_uops...);
  f("copies_created", s.copies_created...);
  f("rename_cycles", s.rename_cycles...);
  f("rename_blocked_cycles", s.rename_blocked_cycles...);
  f("rename_block_iq", s.rename_block_iq...);
  f("rename_block_rf", s.rename_block_rf...);
  f("rename_block_rob", s.rename_block_rob...);
  f("rename_block_mob", s.rename_block_mob...);
  f("iq_pref_stall_events", s.iq_pref_stall_events...);
  f("non_preferred_dispatches", s.non_preferred_dispatches...);
  f("issued_uops", s.issued_uops...);
  f("cycles_with_issue", s.cycles_with_issue...);
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < trace::kNumPortClasses; ++k) {
      f("imbalance_events", s.imbalance_events[i][k]...);
    }
  }
  f("squashed_uops", s.squashed_uops...);
  f("branches_resolved", s.branches_resolved...);
  f("mispredicts_resolved", s.mispredicts_resolved...);
  f("policy_flushes", s.policy_flushes...);
  f("load_l2_misses", s.load_l2_misses...);
  f("store_l2_misses", s.store_l2_misses...);
  f("load_forwards", s.load_forwards...);
}

}  // namespace clusmt::core
