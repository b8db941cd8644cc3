// The cycle-level simulator: a monolithic SMT front-end feeding a two-
// cluster back-end through rename/steer, with a shared memory hierarchy
// (paper §3, Figure 1). Stages execute in reverse pipeline order each
// cycle: commit, writeback, issue, rename/steer/dispatch, fetch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "backend/cluster.h"
#include "backend/interconnect.h"
#include "common/types.h"
#include "core/config.h"
#include "core/dyn_uop.h"
#include "core/stats.h"
#include "frontend/fetch.h"
#include "frontend/rename_map.h"
#include "memory/hierarchy.h"
#include "memory/mob.h"
#include "policy/policy.h"
#include "steer/steering.h"
#include "trace/trace_source.h"
#include "trace/workload.h"

namespace clusmt::core {

class Simulator {
 public:
  /// Issue-stage implementation. kWakeup (default) is the event-driven
  /// path: completing producers wake their consumers, and selection scans
  /// only the per-cluster ready lists. kScanReference re-probes every
  /// occupied issue-queue slot every cycle (the original model); it exists
  /// as the oracle for differential tests — both paths must produce
  /// bit-identical SimStats.
  enum class IssueModel : std::uint8_t { kWakeup = 0, kScanReference };

  /// Event-queue implementation. kWheel (default) drains compact 16-byte
  /// per-cycle wheel records; kHeapReference is the original single global
  /// priority queue, retained as the differential oracle — both must
  /// produce bit-identical SimStats (see tests/event_queue_test.cc, the
  /// queue-level analogue of IssueModel::kScanReference).
  enum class EventModel : std::uint8_t { kWheel = 0, kHeapReference };

  explicit Simulator(const SimConfig& config);

  void set_issue_model(IssueModel model) noexcept { issue_model_ = model; }
  [[nodiscard]] IssueModel issue_model() const noexcept {
    return issue_model_;
  }

  void set_event_model(EventModel model) noexcept { event_model_ = model; }
  [[nodiscard]] EventModel event_model() const noexcept {
    return event_model_;
  }

  /// Quiescent-cycle skip-ahead (on by default): when a cycle provably
  /// changes nothing but monotone stall counters, jump `now` to the next
  /// point the frozen state can change and replicate the per-cycle deltas
  /// in closed form. Off simulates every cycle; it exists as the oracle
  /// for differential tests — both must produce bit-identical SimStats
  /// (tests/skip_ahead_test.cc, tests/config_fuzz_test.cc).
  void set_skip_ahead(bool on) noexcept { skip_ahead_ = on; }

  /// Skip-ahead telemetry. These live on the Simulator, NOT in SimStats:
  /// stats must stay bit-identical between the skipping and the oracle
  /// run, so the skip bookkeeping cannot be part of the compared record.
  [[nodiscard]] std::uint64_t cycles_skipped() const noexcept {
    return cycles_skipped_;
  }
  [[nodiscard]] std::uint64_t skip_episodes() const noexcept {
    return skip_episodes_;
  }

  /// Cross-checks every incrementally-maintained PipelineView counter
  /// against a from-scratch rebuild off the component state, printing any
  /// drift to stderr. Debug builds run this every cycle; tests assert it
  /// directly so counter drift fails loudly instead of silently skewing
  /// policies.
  [[nodiscard]] bool validate_view() const;

  /// Attaches a thread's µop source. `profile` must outlive the simulator
  /// (it parameterises wrong-path synthesis).
  void attach_thread(ThreadId tid, std::shared_ptr<trace::TraceSource> source,
                     const trace::TraceProfile* profile, std::uint64_t seed);

  /// Convenience: builds a synthetic trace from a workload TraceSpec.
  void attach_thread(ThreadId tid, const trace::TraceSpec& spec);

  /// Advances `cycles` simulated cycles.
  void run(Cycle cycles);
  void step();

  /// Zeroes every statistic while keeping the machine state (caches,
  /// predictors, in-flight µops) warm. Call after a warmup phase so
  /// measurements reflect steady state.
  void reset_stats();

  /// Observer invoked for every µop at commit, in commit order (copies
  /// included, flagged by DynUop::is_copy). Used for commit tracing and
  /// order-verification; pass nullptr to clear.
  using CommitHook = std::function<void(const DynUop&)>;
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  // Component access (tests, benches, examples).
  [[nodiscard]] const backend::Cluster& cluster(ClusterId c) const {
    return clusters_[c];
  }
  [[nodiscard]] const frontend::FetchEngine& fetch_engine() const {
    return *fetch_;
  }
  [[nodiscard]] const memory::MemoryHierarchy& hierarchy() const {
    return *hierarchy_;
  }
  [[nodiscard]] const memory::MemOrderBuffer& mob() const { return *mob_; }
  [[nodiscard]] const backend::Interconnect& interconnect() const {
    return *interconnect_;
  }
  [[nodiscard]] const steer::Steering& steering() const { return steering_; }
  [[nodiscard]] const policy::ResourceAssignmentPolicy& policy() const {
    return *policy_;
  }
  [[nodiscard]] const Rob& rob(ThreadId tid) const { return robs_[tid]; }
  [[nodiscard]] const policy::PipelineView& view() const noexcept {
    return view_;
  }

 private:
  // --- Event machinery ---
  enum class EventKind : std::uint8_t {
    kAgu,         // load/store address generated
    kComplete,    // execution latency elapsed
    kCopyArrive,  // copy value reached the destination cluster
  };
  /// Heap entry (overflow spills and the kHeapReference oracle): carries
  /// its due cycle and a global order stamp for (cycle, order) ordering.
  struct Event {
    Cycle cycle;
    std::uint64_t order;  // FIFO among same-cycle events
    EventKind kind;
    ThreadId tid;
    int rob_slot;
    std::uint64_t uid;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.cycle != b.cycle) return a.cycle > b.cycle;
      return a.order > b.order;
    }
  };
  /// Compact wheel-bucket record: the due cycle IS the bucket and FIFO
  /// order IS the append position, so neither is stored — 16 bytes against
  /// the heap entry's 40, for the structure the writeback stage streams
  /// through every cycle.
  struct WheelRecord {
    std::uint64_t uid;
    std::int32_t rob_slot;
    std::int16_t tid;  // < kMaxThreads, narrowed losslessly
    EventKind kind;
  };

  void schedule(Cycle cycle, EventKind kind, const DynUop& uop);
  void drain_events();
  void dispatch_event(EventKind kind, ThreadId tid, int rob_slot,
                      std::uint64_t uid);

  /// Earliest cycle >= now_ with a pending event (wheel bucket or overflow
  /// heap), or Cycle max when none are pending. Stale records of squashed
  /// µops count — they only make the answer conservatively early.
  /// O(wheel distance to the first non-empty bucket).
  [[nodiscard]] Cycle next_event_cycle() const;

  // --- Quiescent-cycle skip-ahead (set_skip_ahead) ---
  /// Everything a quiescent cycle is allowed to touch, captured before the
  /// probe cycle and diffed after it. A probe whose delta fits the allowed
  /// shape proves the machine is frozen; the delta is then replicated in
  /// closed form for every skipped cycle.
  struct BlockedLoad {
    ThreadId tid;
    int rob_slot;
    std::uint64_t uid;
  };
  struct SkipSnapshot {
    SimStats stats;
    frontend::FetchStats fetch;
    steer::SteeringStats steer;
    memory::MobStats mob;
    std::uint64_t blocked_epoch = 0;
    std::uint64_t event_order = 0;
    std::uint64_t select_fingerprint = 0;
    Cycle last_commit_cycle = 0;
    bool rf_blocked[kMaxThreads][kNumRegClasses] = {};
  };
  /// Cheap structural test: could this cycle possibly be quiescent? False
  /// on any ready IQ entry, committable ROB head, or fetchable thread.
  /// Blocked loads do NOT disqualify: while the MOB is frozen (no events,
  /// no rename/commit) every retry re-blocks identically, and the probe
  /// verifies exactly that.
  [[nodiscard]] bool maybe_quiescent();
  /// Skip horizon: first cycle at which the frozen state may change
  /// (next event, fetch-stall expiry, interval-policy boundary, watchdog
  /// trip, run end) — skipped cycles are strictly before it.
  [[nodiscard]] Cycle skip_horizon(Cycle end);
  void capture_snapshot(SkipSnapshot& snap) const;
  /// The allowed per-cycle movement of one probed quiescent cycle; all
  /// phases of a tie-rotation orbit must produce the same one.
  struct ProbeDelta {
    std::uint64_t rename_blocked_cycles = 0;
    std::uint64_t rename_block_iq = 0;
    std::uint64_t rename_block_rf = 0;
    std::uint64_t rename_block_rob = 0;
    std::uint64_t rename_block_mob = 0;
    std::uint64_t iq_pref_stall_events = 0;
    std::uint64_t mob_full_stalls = 0;
    std::uint64_t mob_waits = 0;
    std::uint64_t steer_decisions = 0;
    std::uint64_t steer_balance_overrides = 0;
    std::uint64_t steer_dependence_free = 0;
    bool operator==(const ProbeDelta&) const = default;
  };
  /// Probes up to num_threads cycles looking for a closed selection-cursor
  /// orbit with identical per-cycle deltas, then replicates to `horizon`.
  /// Returns false when a probe revealed real activity (feeds the
  /// exponential attempt backoff in run()).
  bool probe_and_replicate(Cycle horizon);
  /// True when the probe's delta over `snap` has the replicable quiescent
  /// shape (only per-cycle stall counters moved); the selection-cursor
  /// fingerprint is judged separately by probe_and_replicate's orbit scan.
  [[nodiscard]] bool probe_delta_replicable(const SkipSnapshot& snap) const;
  [[nodiscard]] ProbeDelta delta_since(const SkipSnapshot& snap) const;
  /// Applies the probe delta for the cycles up to `horizon` and jumps now_.
  void replicate_skip(const ProbeDelta& d, Cycle horizon);
  /// Advances the rename-selection cursor by k frozen-view select calls.
  void replay_select_cursor(std::uint64_t k);
  void check_watchdog() const;

  // --- Pipeline stages ---
  void commit_stage();
  void writeback_stage();
  void retry_blocked_loads();
  void issue_stage();
  void rename_stage();
  void fetch_stage();
  void handle_flush_requests();

  // --- Rename helpers ---
  struct RenamePlan {
    ClusterId cluster = -1;
    // Copies: one per distinct source arch register missing from `cluster`.
    struct CopyPlan {
      int arch = -1;
      ClusterId from = -1;
      std::int16_t from_phys = -1;
    };
    int num_copies = 0;
    CopyPlan copies[2];
    bool off_preferred_iq = false;  // failed preferred cluster for IQ reasons
  };
  /// Attempts to rename+dispatch the front µop of `tid`; returns consumed
  /// rename bandwidth (1 + copies) or 0 when blocked. `forced` is the
  /// policy's forced cluster, hoisted per rename burst (it is a function of
  /// (scheme, tid) only).
  int try_rename_front(ThreadId tid, ClusterId forced);
  /// `srcs[i]` is the prefetched replica set of fu.op.src{0,1} (nullptr for
  /// absent sources) — looked up once per µop and shared by the steering
  /// vote and every per-cluster plan.
  [[nodiscard]] bool plan_for_cluster(ThreadId tid,
                                      const frontend::FetchedUop& fu,
                                      const frontend::ReplicaSet* const
                                          srcs[2],
                                      ClusterId cluster, RenamePlan& plan,
                                      bool& iq_failure, bool& rf_failure);
  /// Fast path of plan_for_cluster for the common case where every source
  /// already has a replica in `cluster` (no copies): same checks, same
  /// policy-query order, same failure flags — minus the copy bookkeeping.
  [[nodiscard]] bool plan_no_copies(ThreadId tid,
                                    const frontend::FetchedUop& fu,
                                    ClusterId cluster, RenamePlan& plan,
                                    bool& iq_failure, bool& rf_failure);
  void execute_plan(ThreadId tid, const frontend::FetchedUop& fu,
                    const frontend::ReplicaSet* const srcs[2],
                    const RenamePlan& plan);

  // --- Recovery ---
  void squash_younger_than(ThreadId tid, std::uint64_t boundary_seq,
                           std::vector<trace::MicroOp>* replay_out,
                           std::uint64_t* oldest_branch_checkpoint);
  void undo_uop(DynUop& uop);

  // --- Memory helpers ---
  void start_load_access(DynUop& uop);
  void note_l2_miss_started(DynUop& uop);
  void note_l2_miss_finished(DynUop& uop);

  void refresh_view();
  void init_view();
  [[nodiscard]] bool source_ready(const PhysRef& ref) const;

  // --- Incremental-view mutation helpers ---
  // Every structural mutation goes through one of these so the
  // PipelineView occupancy counters stay current without per-cycle
  // rebuilds (validate_view() is the cross-check).
  int iq_insert(ClusterId c, const backend::IqEntry& entry);
  void iq_remove(ClusterId c, int slot);
  int rf_alloc(ClusterId c, RegClass cls, ThreadId tid);
  void rf_release(ClusterId c, RegClass cls, std::int16_t index);
  void make_ready(const PhysRef& ref);
  DynUop* rob_push(ThreadId tid);
  void sync_decode_depth(ThreadId tid);

  SimConfig config_;
  Cycle now_ = 0;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_seq_[kMaxThreads] = {};
  std::uint64_t event_order_ = 0;

  std::unique_ptr<frontend::FetchEngine> fetch_;
  std::vector<frontend::RenameMap> rename_maps_;
  std::vector<backend::Cluster> clusters_;
  std::unique_ptr<backend::Interconnect> interconnect_;
  std::unique_ptr<memory::MemoryHierarchy> hierarchy_;
  std::unique_ptr<memory::MemOrderBuffer> mob_;
  steer::Steering steering_;
  std::unique_ptr<policy::ResourceAssignmentPolicy> policy_;
  std::vector<Rob> robs_;

  // Timing-wheel event queue. Every event is scheduled a bounded, known
  // latency ahead, so a calendar of per-cycle FIFO buckets replaces the
  // priority queue: schedule() appends to bucket[cycle % N] in O(1), and
  // the writeback stage drains exactly one bucket per cycle. Events
  // further than the wheel span ahead (pathological bus queueing) spill
  // into an overflow heap. The global (cycle, order) processing order is
  // preserved without any merge step: an overflow event due at cycle C was
  // scheduled at or before C - kEventWheelBuckets, while every bucket
  // record for C was scheduled after that, so all due overflow stamps
  // precede all bucket stamps — drain overflow first, then the bucket.
  // Under kHeapReference everything goes through the overflow heap.
  static constexpr std::size_t kEventWheelBuckets = 1024;  // power of two
  std::vector<std::vector<WheelRecord>> event_wheel_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>>
      event_overflow_;
  /// Records currently in wheel buckets (pushes minus drains). Lets
  /// next_event_cycle() skip the bucket scan entirely when the wheel is
  /// empty and stop at the first hit otherwise.
  std::size_t wheel_pending_ = 0;
  std::vector<BlockedLoad> blocked_loads_;
  /// Bumped on every content change of blocked_loads_: a first-time
  /// block, and a retry pass that dropped any element (equal size implies
  /// element-wise identity — the rebuild preserves order and only
  /// removes). Lets the skip probe compare the list in O(1).
  std::uint64_t blocked_epoch_ = 0;
  /// True while retry_blocked_loads() rebuilds the list; re-blocks during
  /// the pass are netted out by its size check instead of bumping.
  bool in_blocked_retry_ = false;

  policy::PipelineView view_;
  bool rf_blocked_flags_[kMaxThreads][kNumRegClasses] = {};
  int outstanding_l2_[kMaxThreads] = {};
  IssueModel issue_model_ = IssueModel::kWakeup;
  EventModel event_model_ = EventModel::kWheel;
  bool skip_ahead_ = true;
  ThreadId commit_rr_ = 0;
  Cycle last_commit_cycle_ = 0;
  CommitHook commit_hook_;

  // Skip-ahead telemetry (intentionally outside SimStats; see accessors).
  std::uint64_t cycles_skipped_ = 0;
  std::uint64_t skip_episodes_ = 0;

  /// Exponential backoff after failed probes: no attempt before
  /// skip_retry_at_. Attempting less often never changes results —
  /// skipping is semantically the identity — it only bounds the snapshot
  /// cost on workloads that look idle for a cycle while work is in flight.
  Cycle skip_retry_at_ = 0;
  Cycle skip_backoff_ = 0;

  SimStats stats_;
};

}  // namespace clusmt::core
