// Adaptive resource-assignment schemes beyond the paper's evaluation.
//
// The paper closes (§6) by naming the sophisticated monolithic-SMT schemes
// it wants adapted to clustered machines as future work: the front-end
// policies of El-Moursy & Albonesi [20], DCRA of Cazorla et al. [30] and
// the learning-based hill-climbing of Choi & Yeung [32]; §5.1 also
// mentions Flush++ [25] for workloads of more than two threads. This
// module implements those adaptations, applying the paper's own
// conclusions: issue-queue limits are enforced cluster-sensitively
// (per cluster), register-file limits cluster-insensitively (totals).
//
// Each scheme is documented with its deviation from the original
// monolithic formulation; DESIGN.md §6 carries the inventory.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "policy/simple.h"

namespace clusmt::policy {

/// Flush++ [25]: a hybrid of Stall and Flush+. Flushing releases a missing
/// thread's resources so the *other* threads can absorb them — worthwhile
/// when contexts outnumber what the machine can comfortably co-run, an
/// overreaction otherwise (§5.1's observation). Flush++ therefore behaves
/// like Stall while at most two threads are running and like Flush+ when
/// three or more contexts compete.
class FlushPlusPlusPolicy final : public FlushPlusPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "Flush++"; }

  void begin_cycle(const PipelineView& view) override;

  /// Stall mode keeps renaming already-fetched µops; Flush+ mode gates.
  [[nodiscard]] std::uint32_t rename_eligible(
      const PipelineView& view, std::uint32_t candidates) override;

  /// Squashes are suppressed entirely in Stall mode.
  [[nodiscard]] std::optional<FlushRequest> flush_request(Cycle now) override;

  [[nodiscard]] bool stall_mode() const noexcept { return threads_ <= 2; }

 private:
  int threads_ = 2;
};

/// DCRA (Dynamically Controlled Resource Allocation, Cazorla et al. [30])
/// adapted to the clustered machine. Threads are classified each cycle:
///   * active  — owns back-end entries or has decoded µops waiting, and
///   * slow    — an L2 miss is outstanding (the original uses L1-miss
///               activity; our memory substrate exposes L2 state, which is
///               the signal the paper's own Stall/Flush+ schemes consume).
/// Every active thread is guaranteed a floor of a resource; slow threads
/// are *capped* near their floor so they cannot hoard entries while they
/// wait, and fast threads may grow into everything not guaranteed to
/// others. Following the paper's conclusions the caps are enforced
/// per-cluster for issue queues and on class totals for register files.
class DcraPolicy final : public ResourceAssignmentPolicy {
 public:
  explicit DcraPolicy(const PolicyConfig& config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override { return "DCRA"; }

  [[nodiscard]] bool allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                       ClusterId c, int count,
                                       int total_count) override;
  [[nodiscard]] bool allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                    ClusterId c, RegClass cls,
                                    int count) override;

  // --- Introspection (tests) ---
  [[nodiscard]] static bool is_active(const PipelineView& view, ThreadId tid);
  [[nodiscard]] static bool is_slow(const PipelineView& view, ThreadId tid);
  /// Entries of a resource of capacity `capacity` thread `tid` may hold.
  [[nodiscard]] int cap_of(const PipelineView& view, ThreadId tid,
                           int capacity) const;

 private:
  PolicyConfig config_;
};

/// Learning-based hill-climbing (Choi & Yeung [32]) adapted to the
/// clustered machine. The partition of the issue queues and register files
/// is a learned per-thread share vector instead of a fixed half. Time is
/// sliced into epochs; each round runs three trials — the incumbent
/// shares, then one thread's share nudged up by delta, then down — and
/// adopts the trial that committed the most µops. The nudged thread
/// rotates every round, which generalises the classic two-thread
/// {p, p+delta, p-delta} probe to any thread count. Shares bound the IQ
/// per cluster and the RF per class total (the paper's
/// sensitive/insensitive split).
class HillClimbPolicy final : public ResourceAssignmentPolicy {
 public:
  explicit HillClimbPolicy(const PolicyConfig& config);
  [[nodiscard]] std::string_view name() const override { return "HillClimb"; }

  void begin_cycle(const PipelineView& view) override;

  /// Epoch boundaries score trials and reshuffle shares; a skip must stop
  /// there so the boundary's begin_cycle runs on a live view. Within an
  /// epoch begin_cycle is a no-op, so the default quiesce replay is free.
  [[nodiscard]] Cycle quiesce_horizon(Cycle now) const override {
    return started_ ? epoch_start_ + config_.hillclimb_epoch : now;
  }

  [[nodiscard]] bool allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                       ClusterId c, int count,
                                       int total_count) override;
  [[nodiscard]] bool allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                    ClusterId c, RegClass cls,
                                    int count) override;

  // --- Introspection (tests, the adaptive-policy example) ---
  [[nodiscard]] double share(ThreadId tid) const { return incumbent_[tid]; }
  [[nodiscard]] double trial_share(ThreadId tid) const { return trial_[tid]; }
  [[nodiscard]] std::uint64_t rounds_completed() const noexcept {
    return rounds_;
  }

  /// Lowest share the climber may assign to a thread (also how far the
  /// largest share can grow: 1 - (T-1) * floor).
  [[nodiscard]] static double share_floor(int num_threads) noexcept {
    return 0.5 / static_cast<double>(num_threads < 2 ? 2 : num_threads);
  }

 private:
  enum class Trial : std::uint8_t { kBase = 0, kUp = 1, kDown = 2 };

  void adopt_best_and_advance(int num_threads);
  void load_trial(int num_threads);
  [[nodiscard]] int iq_cap(const PipelineView& view, ThreadId tid,
                           ClusterId c) const;

  PolicyConfig config_;
  std::array<double, kMaxThreads> incumbent_;  // adopted shares, sum == 1
  std::array<double, kMaxThreads> trial_;      // shares being measured
  std::array<std::uint64_t, kMaxThreads> committed_at_epoch_start_ = {};
  std::array<std::uint64_t, 3> trial_score_ = {};  // committed per trial
  Trial phase_ = Trial::kBase;
  int perturbed_thread_ = 0;
  Cycle epoch_start_ = 0;
  std::uint64_t rounds_ = 0;
  bool started_ = false;
};

/// Unready-count front-end gating in the spirit of El-Moursy & Albonesi's
/// issue-efficiency fetch policies [20]. A thread whose µops sit in the
/// issue queues with unready sources is clogging entries that ready work
/// could use; the policy (a) fetch-gates a thread while its not-ready µops
/// exceed a fixed fraction of the total issue-queue capacity and (b)
/// replaces Icount's rename selection with "fewest not-ready µops".
/// Allocation is otherwise unrestricted — this is a pure front-end scheme.
class UnreadyGatePolicy final : public ResourceAssignmentPolicy {
 public:
  explicit UnreadyGatePolicy(const PolicyConfig& config) : config_(config) {}
  [[nodiscard]] std::string_view name() const override {
    return "UnreadyGate";
  }

  [[nodiscard]] std::uint32_t fetch_eligible(
      const PipelineView& view, std::uint32_t candidates) override;
  [[nodiscard]] ThreadId select_rename_thread(
      const PipelineView& view, std::uint32_t candidates) override;

  /// Skip-ahead validity: this scheme replaces Icount's cursor with its
  /// own round-robin tie-break, so the fingerprint must cover it.
  [[nodiscard]] std::uint64_t select_state_fingerprint() const override {
    return static_cast<std::uint64_t>(rr_tiebreak_);
  }

  [[nodiscard]] int gate_threshold(const PipelineView& view) const;

 private:
  PolicyConfig config_;
  ThreadId rr_tiebreak_ = 0;
};

}  // namespace clusmt::policy
