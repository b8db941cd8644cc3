// ResourceAssignmentPolicy: the interface every scheme of the paper
// implements (Tables 3 and 4). A policy controls
//   1. which threads may fetch (Stall/Flush+ gate threads with L2 misses),
//   2. which thread renames each cycle (the rename selection policy, §3),
//   3. whether a thread may dispatch µops into a cluster's issue queue
//      (the static/partial partitions: CISP, CSSP, CSPSP, PC),
//   4. whether a thread may allocate physical registers in a cluster
//      (CSSPRF, CISPRF and the dynamic CDPRF), and
//   5. flush requests (Flush+ releases a missing thread's resources).
//
// The default rename selection is Icount [1]: the thread with the fewest
// instructions between rename and issue.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "policy/view.h"

namespace clusmt::policy {

/// Flush everything of `tid` younger than `after_seq` (the missing load),
/// then keep the thread fetch-gated until its miss resolves.
struct FlushRequest {
  ThreadId tid = -1;
  std::uint64_t after_seq = 0;
};

class ResourceAssignmentPolicy {
 public:
  virtual ~ResourceAssignmentPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Gate on fetch: subset of `candidates` allowed to fetch this cycle.
  [[nodiscard]] virtual std::uint32_t fetch_eligible(
      const PipelineView& view, std::uint32_t candidates) {
    (void)view;
    return candidates;
  }

  /// Gate on rename: subset of `candidates` eligible for rename selection.
  [[nodiscard]] virtual std::uint32_t rename_eligible(
      const PipelineView& view, std::uint32_t candidates) {
    (void)view;
    return candidates;
  }

  /// Rename selection policy. Default: Icount with round-robin tie-break.
  [[nodiscard]] virtual ThreadId select_rename_thread(
      const PipelineView& view, std::uint32_t candidates);

  /// May `tid` insert `count` more µops into cluster `c`'s issue queue,
  /// as part of a rename group adding `total_count` entries across all
  /// clusters (µop + copies)? Cluster-insensitive schemes must bound the
  /// thread's *total* occupancy using `total_count`. (Capacity itself is
  /// checked by the core; this is the policy limit.)
  [[nodiscard]] virtual bool allow_iq_dispatch(const PipelineView& view,
                                               ThreadId tid, ClusterId c,
                                               int count, int total_count) {
    (void)view;
    (void)tid;
    (void)c;
    (void)count;
    (void)total_count;
    return true;
  }

  /// May `tid` allocate `count` more registers of class `cls` in cluster
  /// `c`? (Free-list capacity is checked by the core.)
  [[nodiscard]] virtual bool allow_rf_alloc(const PipelineView& view,
                                            ThreadId tid, ClusterId c,
                                            RegClass cls, int count) {
    (void)view;
    (void)tid;
    (void)c;
    (void)cls;
    (void)count;
    return true;
  }

  /// Private-cluster schemes pin threads to clusters; -1 = unconstrained.
  [[nodiscard]] virtual ClusterId forced_cluster(const PipelineView& view,
                                                 ThreadId tid) const {
    (void)view;
    (void)tid;
    return -1;
  }

  /// Called once per cycle before any query (dynamic schemes update
  /// counters and interval state here).
  virtual void begin_cycle(const PipelineView& view) { (void)view; }

  /// Memory events (from the shared L2): `load_seq` identifies the missing
  /// load within the thread.
  virtual void on_l2_miss(ThreadId tid, std::uint64_t load_seq, Cycle now) {
    (void)tid;
    (void)load_seq;
    (void)now;
  }
  virtual void on_l2_resolved(ThreadId tid, std::uint64_t load_seq,
                              Cycle now) {
    (void)tid;
    (void)load_seq;
    (void)now;
  }

  /// Flush+ asks the core to squash a thread; the core performs the squash
  /// and confirms via on_flush_done.
  [[nodiscard]] virtual std::optional<FlushRequest> flush_request(Cycle now) {
    (void)now;
    return std::nullopt;
  }
  virtual void on_flush_done(ThreadId tid) { (void)tid; }

  // --- Quiescent-cycle skip-ahead support (core/simulator.cc) ---
  // When the core proves cycles [from, to) would change nothing but
  // monotone stall counters, it skips them and calls quiesce() once in
  // their place. The contract: quiesce(view, from, to) must leave the
  // policy in exactly the state `to - from` begin_cycle calls over the
  // frozen view would have — the default replays them literally.

  /// Replays the per-cycle bookkeeping for the skipped cycles [from, to).
  virtual void quiesce(const PipelineView& view, Cycle from, Cycle to);

  /// Earliest cycle the policy's decisions could change while the machine
  /// is otherwise frozen; skips never cross it. Interval policies return
  /// their next epoch boundary (the boundary cycle itself must execute
  /// normally so rollover sees a live view).
  [[nodiscard]] virtual Cycle quiesce_horizon(Cycle now) const;

  /// Fingerprint of the rename-selection cursor state. A skip is only
  /// valid when one probed cycle leaves this unchanged (the cursor is at a
  /// fixpoint); Icount's tie-break cursor alternates on ties, which this
  /// catches. Policies with their own cursor (UnreadyGate) override.
  [[nodiscard]] virtual std::uint64_t select_state_fingerprint() const {
    return static_cast<std::uint64_t>(rr_tiebreak_);
  }

 protected:
  /// Shared Icount implementation [1]: fewest µops between rename and
  /// issue; ties rotate round-robin for fairness.
  [[nodiscard]] ThreadId icount_select(const PipelineView& view,
                                       std::uint32_t candidates);

 private:
  ThreadId rr_tiebreak_ = 0;
};

/// Scheme identifiers: Tables 3 and 4, the paper's proposal, and the
/// future-work adaptations the paper names in §2/§6 (implemented in
/// policy/adaptive.h — Flush++ [25], DCRA [30], hill-climbing [32] and
/// unready-count front-end gating [20]).
enum class PolicyKind : std::uint8_t {
  kIcount = 0,
  kStall,
  kFlushPlus,
  kCisp,
  kCssp,
  kCspsp,
  kPrivateClusters,
  kCssprf,
  kCisprf,
  kCdprf,
  // --- extensions beyond the paper's evaluation ---
  kFlushPlusPlus,
  kDcra,
  kHillClimb,
  kUnreadyGate,
};

struct PolicyConfig {
  /// Fraction of a resource one thread may take under the static
  /// partitions; the paper's two-thread setting is 1/2.
  double partition_fraction = 0.5;
  /// CSPSP: guaranteed per-thread per-cluster fraction (paper: 25%).
  double cspsp_guarantee_fraction = 0.25;
  /// CDPRF measurement interval in cycles (paper: 128K, a power of two so
  /// the average is a shift).
  Cycle cdprf_interval = 128 * 1024;

  // --- Extension-policy knobs (policy/adaptive.h) ---
  /// DCRA: fraction of a slow thread's even share it may keep (Cazorla's
  /// slow threads get a reduced share; fast threads absorb the remainder).
  double dcra_slow_share = 0.5;
  /// Hill-climbing: cycles per measurement epoch and share step per trial.
  Cycle hillclimb_epoch = 16 * 1024;
  double hillclimb_delta = 1.0 / 16.0;
  /// Unready-count fetch gate: a thread is fetch-gated while its not-ready
  /// µops exceed this fraction of the total issue-queue capacity.
  double unready_gate_fraction = 0.25;
};

[[nodiscard]] std::unique_ptr<ResourceAssignmentPolicy> make_policy(
    PolicyKind kind, const PolicyConfig& config = {});

[[nodiscard]] std::string_view policy_kind_name(PolicyKind kind) noexcept;

/// Parses "Icount", "Flush+", "CDPRF", ... (case-sensitive paper names).
[[nodiscard]] std::optional<PolicyKind> parse_policy_kind(
    std::string_view name) noexcept;

/// All schemes in paper order.
[[nodiscard]] const std::vector<PolicyKind>& all_policy_kinds();

}  // namespace clusmt::policy
