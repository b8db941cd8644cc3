#include "core/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "trace/synthetic.h"

namespace clusmt::core {

namespace {

[[nodiscard]] std::uint64_t pack_rob_ref(ThreadId tid, int slot) noexcept {
  return (static_cast<std::uint64_t>(tid) << 32) |
         static_cast<std::uint32_t>(slot);
}
[[nodiscard]] ThreadId rob_ref_tid(std::uint64_t ref) noexcept {
  return static_cast<ThreadId>(ref >> 32);
}
[[nodiscard]] int rob_ref_slot(std::uint64_t ref) noexcept {
  return static_cast<int>(ref & 0xFFFFFFFFu);
}

}  // namespace

Simulator::Simulator(const SimConfig& config)
    : config_(config),
      steering_(config.steering, config.num_clusters,
                config.steer_imbalance_threshold),
      policy_(policy::make_policy(config.policy, config.policy_config)) {
  if (config.num_threads < 1 || config.num_threads > kMaxThreads) {
    throw std::invalid_argument("unsupported thread count");
  }
  if (config.num_clusters < 1 || config.num_clusters > kMaxClusters) {
    throw std::invalid_argument("unsupported cluster count");
  }
  // The timing-wheel event queue requires every event to land strictly in
  // the future (schedule() asserts delta >= 1). Completion latencies are
  // >= 1 by construction (trace::execution_latency, the 1-cycle AGU), so
  // the only zero-latency routes are these two config knobs; reject them
  // here rather than misfile events a wheel revolution late in release
  // builds.
  if (config.link_latency < 1) {
    throw std::invalid_argument("link_latency must be >= 1");
  }
  if (config.memory.l1_latency < 1) {
    throw std::invalid_argument("memory.l1_latency must be >= 1");
  }
  // Heterogeneous shape overrides: negative values are always malformed,
  // and a width override must fit the port model. Only the clusters that
  // exist are checked — trailing shape slots are inert.
  for (int c = 0; c < config.num_clusters; ++c) {
    const ClusterShape& s = config.shape[c];
    if (s.issue_width < 0 || s.iq_entries < 0 || s.int_regs < 0 ||
        s.fp_regs < 0) {
      throw std::invalid_argument("negative cluster shape override");
    }
    if (config.effective_issue_width(c) < 1 ||
        config.effective_issue_width(c) > backend::PortSet::kMaxPorts) {
      throw std::invalid_argument("issue width out of range");
    }
    // Unbounded register mode is a machine-wide policy branch
    // (rf_unbounded); mixing it with per-cluster bounded files would make
    // the policies' global view a lie. Reject the combination.
    if (config.rf_unbounded() && (s.int_regs > 0 || s.fp_regs > 0)) {
      throw std::invalid_argument(
          "per-cluster register override with unbounded register mode");
    }
    for (int to = 0; to < config.num_clusters; ++to) {
      if (config.link_latency_cc[c][to] < 0) {
        throw std::invalid_argument("negative pair link latency");
      }
    }
  }
  // Committed architectural mappings alone pin num_threads x arch-regs
  // physical registers of each class; without headroom on top, renaming
  // eventually starves with every ROB empty and nothing left to commit —
  // a silent machine-wide wedge, not a slow configuration. Reject it.
  // (The paper's two-thread setups all pass; four threads need the
  // 128-registers-per-cluster end of Table 1's range.)
  for (const RegClass cls : {RegClass::kInt, RegClass::kFp}) {
    const bool is_int = cls == RegClass::kInt;
    if ((is_int ? config.int_regs : config.fp_regs) == 0) {
      continue;  // unbounded mode
    }
    int total = 0;
    for (int c = 0; c < config.num_clusters; ++c) {
      total += config.effective_regs(c, cls);
    }
    const int arch = is_int ? kNumIntArchRegs : kNumFpArchRegs;
    const int committed_floor = config.num_threads * arch;
    if (total < committed_floor + config.rename_width) {
      std::ostringstream err;
      err << "config: " << total << " total " << (is_int ? "integer" : "FP/SIMD")
          << " physical registers cannot back " << config.num_threads
          << " threads x " << arch
          << " architectural registers plus rename headroom ("
          << committed_floor + config.rename_width << " required)";
      throw std::invalid_argument(err.str());
    }
  }

  frontend::FetchConfig fetch_config;
  fetch_config.fetch_width = config.fetch_width;
  fetch_config.decode_queue_capacity = config.decode_queue_capacity;
  fetch_config.mispredict_penalty = config.mispredict_penalty;
  fetch_config.selection = config.fetch_selection;
  fetch_config.predictor = config.predictor;
  fetch_config.trace_cache = config.trace_cache;
  fetch_ = std::make_unique<frontend::FetchEngine>(fetch_config,
                                                   config.num_threads);

  rename_maps_.reserve(config.num_threads);
  robs_.reserve(config.num_threads);
  for (int t = 0; t < config.num_threads; ++t) {
    rename_maps_.emplace_back(config.num_clusters);
    robs_.emplace_back(config.effective_rob_entries());
  }

  clusters_.reserve(config.num_clusters);
  for (int c = 0; c < config.num_clusters; ++c) {
    clusters_.emplace_back(
        backend::ClusterConfig{.iq_entries = config.effective_iq_entries(c),
                               .int_registers = config.effective_int_regs(c),
                               .fp_registers = config.effective_fp_regs(c),
                               .issue_width = config.effective_issue_width(c)});
  }
  // Capability-aware steering: balance loads relative to each cluster's IQ
  // capacity (the identity scale when all clusters match).
  {
    int caps[kMaxClusters] = {};
    for (int c = 0; c < config.num_clusters; ++c) {
      caps[c] = config.effective_iq_entries(c);
    }
    steering_.set_capacities(
        std::span<const int>(caps, config.num_clusters));
  }

  interconnect_ = std::make_unique<backend::Interconnect>(
      config.num_links, config.link_latency);
  for (int from = 0; from < config.num_clusters; ++from) {
    for (int to = 0; to < config.num_clusters; ++to) {
      interconnect_->set_pair_latency(from, to,
                                      config.link_latency_cc[from][to]);
    }
  }
  hierarchy_ = std::make_unique<memory::MemoryHierarchy>(config.memory);
  mob_ = std::make_unique<memory::MemOrderBuffer>(config.mob_entries);

  event_wheel_.resize(kEventWheelBuckets);
  init_view();
}

void Simulator::attach_thread(ThreadId tid,
                              std::shared_ptr<trace::TraceSource> source,
                              const trace::TraceProfile* profile,
                              std::uint64_t seed) {
  fetch_->attach_thread(tid, std::move(source), profile, seed);
}

void Simulator::attach_thread(ThreadId tid, const trace::TraceSpec& spec) {
  auto source =
      std::make_shared<trace::SyntheticTrace>(spec.profile, spec.seed);
  // The source's program owns a profile copy that lives as long as the
  // fetch engine holds the source, as wrong-path synthesis requires.
  const trace::TraceProfile* profile = &source->program().profile();
  attach_thread(tid, std::move(source), profile, spec.seed);
}

void Simulator::run(Cycle cycles) {
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    // Quiescent-cycle skip-ahead: when the structural pre-check passes and
    // the frozen state cannot change for >= 2 cycles, simulate ONE real
    // probe cycle. If its delta has the quiescent shape (only monotone
    // per-cycle stall counters moved), every cycle up to the horizon would
    // repeat it exactly — replicate the delta in closed form and jump.
    // Any other delta means the cycle did real work; it stands as a normal
    // simulated cycle and the loop continues. SimStats stay bit-identical
    // to the cycle-by-cycle oracle either way (tests/skip_ahead_test.cc).
    // A failed attempt costs only the snapshot: the probed cycle was a
    // real simulated cycle regardless. But on busy workloads the
    // structural pre-check passes spuriously for long stretches (the
    // machine looks idle for one cycle while work is in flight), so
    // failed probes back off exponentially — attempting less often is
    // always sound, because skipping is semantically the identity.
    if (skip_ahead_ && now_ >= skip_retry_at_ && maybe_quiescent()) {
      const Cycle horizon = skip_horizon(end);
      if (horizon > now_ + 1) {
        if (probe_and_replicate(horizon)) {
          skip_backoff_ = 0;
        } else {
          skip_backoff_ = std::min<Cycle>(skip_backoff_ * 2 + 1, 64);
          skip_retry_at_ = now_ + skip_backoff_;
        }
        continue;
      }
    }
    step();
    check_watchdog();
  }
}

// Probes up to num_threads consecutive cycles. The machine may be frozen
// in every respect EXCEPT the rename-selection tie-break cursor, which on
// a tie rotates through the tied threads with some period p <= num_threads
// (the orbit of a deterministic map on a finite set, and the fingerprint
// captures its whole state). A window is replicable when p probed cycles
// bring the fingerprint back to its start, every probe's delta has the
// quiescent shape, and all p per-cycle deltas are identical — then every
// remaining cycle up to the horizon repeats that same delta, and the
// cursor advance is replayed exactly by k select calls over the frozen
// view. The common fixpoint case closes at p == 1 with no replay.
//
// Returns false only when a probe revealed real activity (the delta was
// not quiescent-shaped, phases disagreed, or no orbit closed) — the
// caller's backoff keys off that. Benign exits (window consumed or too
// short for another probe) return true: the machine really was idle.
bool Simulator::probe_and_replicate(Cycle horizon) {
  SkipSnapshot prev;
  capture_snapshot(prev);
  const std::uint64_t base_fp = prev.select_fingerprint;
  ProbeDelta d0{};
  int phase = 0;
  for (;;) {
    step();  // a probe: one fully simulated cycle
    check_watchdog();
    if (!probe_delta_replicable(prev)) {
      return false;  // the probe did real work; it stands as a normal cycle
    }
    ++phase;
    const ProbeDelta d = delta_since(prev);
    if (phase == 1) {
      d0 = d;
    } else if (!(d == d0)) {
      return false;  // phases stall on different resources: not replicable
    }
    if (policy_->select_state_fingerprint() == base_fp) {
      if (now_ >= horizon) return true;  // probes consumed the whole window
      const std::uint64_t k = horizon - now_;
      replicate_skip(d0, horizon);
      // Fixpoint (p == 1) needs no replay: f(s) == s implies f^k(s) == s.
      // For p > 1 the orbit just closed, so f^p is the identity on the
      // cursor and only k mod p of the k frozen cycles' calls remain.
      if (phase > 1) replay_select_cursor(k % static_cast<std::uint64_t>(phase));
      check_watchdog();
      return true;
    }
    if (phase >= config_.num_threads) return false;  // no closed orbit: bail
    if (now_ + 1 >= horizon) return true;  // no room for another probe
    capture_snapshot(prev);
  }
}

// Advances the rename-selection cursor exactly as k further frozen cycles
// would: rename_stage makes one select call per cycle whenever any thread
// has queued µops and is rename-eligible, and both queries are pure
// functions of the (frozen) view, so the per-cycle candidate mask is
// constant over the window.
void Simulator::replay_select_cursor(std::uint64_t k) {
  std::uint32_t candidates = 0;
  for (int t = 0; t < config_.num_threads; ++t) {
    if (!fetch_->queue_empty(t)) candidates |= 1u << t;
  }
  candidates = policy_->rename_eligible(view_, candidates);
  if (candidates == 0) return;  // select never runs; the cursor is frozen
  for (std::uint64_t i = 0; i < k; ++i) {
    (void)policy_->select_rename_thread(view_, candidates);
  }
}

// The watchdog fires on the same cycle with the same message whether the
// preceding cycles were simulated or skipped: skip_horizon() caps every
// jump at last_commit_cycle_ + watchdog_cycles + 1, the first now_ at
// which this condition can hold.
void Simulator::check_watchdog() const {
  if (now_ - last_commit_cycle_ > config_.watchdog_cycles) {
    std::ostringstream err;
    err << "simulator watchdog: no commit since cycle "
        << last_commit_cycle_ << " (now " << now_ << ", policy "
        << policy_->name() << ")";
    throw std::runtime_error(err.str());
  }
}

// --------------------------------------------------------------------------
// Quiescent-cycle skip-ahead (set_skip_ahead)
// --------------------------------------------------------------------------

// Structural pre-filter, run every iteration: can this cycle possibly make
// progress? Cheap O(clusters + threads) checks only — a false positive
// merely wastes one snapshot (the probe bails), a false negative merely
// simulates normally. Everything here is a pure query; in particular
// fetch_eligible is stateless for every scheme (gates read l2_pending /
// iq_unready, which are frozen between events).
bool Simulator::maybe_quiescent() {
  for (int c = 0; c < config_.num_clusters; ++c) {
    if (clusters_[c].iq().ready_count() > 0) return false;
  }
  for (int t = 0; t < config_.num_threads; ++t) {
    if (!robs_[t].empty() && robs_[t].head().stage == UopStage::kDone) {
      return false;
    }
  }
  // Fetch progress: mirror select_fetch_thread's can_fetch test — an
  // eligible thread with decode-queue room whose stall expired will fetch.
  // Structural part first: when every queue is full or stalled (the
  // common blocked shape) the policy's eligibility mask is irrelevant, so
  // the virtual query is skipped entirely.
  std::uint32_t can_fetch = 0;
  for (int t = 0; t < config_.num_threads; ++t) {
    if (now_ >= fetch_->stalled_until(t) &&
        fetch_->queue_size(t) < config_.decode_queue_capacity) {
      can_fetch |= 1u << t;
    }
  }
  if (can_fetch == 0) return true;
  const std::uint32_t all = (1u << config_.num_threads) - 1;
  return (policy_->fetch_eligible(view_, all) & can_fetch) == 0;
}

// First cycle at which the frozen machine may change, computed from
// pre-probe state (conservative: the probe can only push boundaries
// later). Skipped cycles are strictly before the returned horizon.
Cycle Simulator::skip_horizon(Cycle end) {
  Cycle h = std::min(end, next_event_cycle());
  // An event due this cycle or next forbids any skip; the caller's
  // horizon > now_+1 test will fail, so the remaining bounds are moot.
  if (h <= now_ + 1) return h;
  h = std::min(h, policy_->quiesce_horizon(now_));
  // The watchdog must throw at exactly the oracle's cycle (the message
  // embeds now_); the +1 is the first cycle the condition can hold.
  h = std::min(h, last_commit_cycle_ + config_.watchdog_cycles + 1);
  for (int t = 0; t < config_.num_threads; ++t) {
    // A stalled thread with queue room resumes fetching when the stall
    // expires (mispredict refill, I-TLB walk). Applied to policy-gated
    // threads too — conservative, never wrong.
    const Cycle until = fetch_->stalled_until(t);
    if (until > now_ &&
        fetch_->queue_size(t) < config_.decode_queue_capacity) {
      h = std::min(h, until);
    }
  }
  return h;
}

void Simulator::capture_snapshot(SkipSnapshot& snap) const {
  snap.stats = stats_;
  snap.blocked_epoch = blocked_epoch_;
  snap.fetch = fetch_->stats();
  snap.steer = steering_.stats();
  snap.mob = mob_->stats();
  snap.event_order = event_order_;
  snap.select_fingerprint = policy_->select_state_fingerprint();
  snap.last_commit_cycle = last_commit_cycle_;
  for (int t = 0; t < config_.num_threads; ++t) {
    for (int k = 0; k < kNumRegClasses; ++k) {
      snap.rf_blocked[t][k] = rf_blocked_flags_[t][k];
    }
  }
}

// The heart of the oracle: the probe cycle is valid to replicate iff its
// delta over the snapshot is exactly the quiescent shape. Allowed to move:
// stats_.cycles (+1), the per-cycle stall counters a fully blocked
// rename records (rename_blocked_cycles, rename_block_*,
// iq_pref_stall_events), the MOB's full_stalls and waits (blocked loads
// re-polling against a frozen store set), and the steering decision
// tallies of the doomed attempt. Everything else — commits, renames,
// issues, fetches, squashes, events, policy/steering cursors, starvation
// flags — must be frozen, or the next cycle would not repeat this one.
bool Simulator::probe_delta_replicable(const SkipSnapshot& snap) const {
  // Blocked loads may persist through the window, but the retry pass must
  // have rebuilt the list identically: any load that forwarded, accessed,
  // or was squashed changes the machine and forbids replication. The
  // epoch counts content changes, so one compare stands in for the
  // element-wise check.
  if (blocked_epoch_ != snap.blocked_epoch) return false;
  if (event_order_ != snap.event_order) return false;
  if (last_commit_cycle_ != snap.last_commit_cycle) return false;
  // Starvation flags feed CDPRF's counters through the view; replication
  // (and the quiesce replay) assume they repeat identically.
  for (int t = 0; t < config_.num_threads; ++t) {
    for (int k = 0; k < kNumRegClasses; ++k) {
      if (rf_blocked_flags_[t][k] != snap.rf_blocked[t][k]) return false;
    }
  }

  // Only cycles (+1) and the per-cycle stall counters replicate_skip()
  // scales may move; every other counter, including any added later, must
  // be frozen.
  SimStats quiescent = snap.stats;
  quiescent.cycles += 1;
  quiescent.rename_blocked_cycles = stats_.rename_blocked_cycles;
  quiescent.rename_block_iq = stats_.rename_block_iq;
  quiescent.rename_block_rf = stats_.rename_block_rf;
  quiescent.rename_block_rob = stats_.rename_block_rob;
  quiescent.rename_block_mob = stats_.rename_block_mob;
  quiescent.iq_pref_stall_events = stats_.iq_pref_stall_events;
  if (stats_ != quiescent) return false;

  // The front end must not have moved at all (its cursors only advance on
  // a successful selection, which these counters would record).
  if (fetch_->stats() != snap.fetch) return false;

  // MOB: the full-stall tally of a blocked memory rename and the wait
  // tally of re-polled blocked loads may move (both replicate per cycle);
  // an allocation, forward, or cache access is real progress.
  memory::MobStats quiescent_mob = snap.mob;
  quiescent_mob.full_stalls = mob_->stats().full_stalls;
  quiescent_mob.waits = mob_->stats().waits;
  if (mob_->stats() != quiescent_mob) return false;

  // Round-robin steering advances its cursor on every decision, even a
  // doomed one; replicating would skew every later steer. The stateless
  // kinds just replicate their tallies.
  if (steering_.kind() == steer::SteeringKind::kRoundRobin &&
      steering_.stats().decisions != snap.steer.decisions) {
    return false;
  }
  return true;
}

// The per-cycle delta of one probed cycle, restricted to the counters a
// quiescent cycle is allowed to move. Phases of a tie-rotation orbit must
// produce identical deltas for the window to be replicable, which the
// defaulted equality compares.
Simulator::ProbeDelta Simulator::delta_since(const SkipSnapshot& s) const {
  ProbeDelta d;
  d.rename_blocked_cycles =
      stats_.rename_blocked_cycles - s.stats.rename_blocked_cycles;
  d.rename_block_iq = stats_.rename_block_iq - s.stats.rename_block_iq;
  d.rename_block_rf = stats_.rename_block_rf - s.stats.rename_block_rf;
  d.rename_block_rob = stats_.rename_block_rob - s.stats.rename_block_rob;
  d.rename_block_mob = stats_.rename_block_mob - s.stats.rename_block_mob;
  d.iq_pref_stall_events =
      stats_.iq_pref_stall_events - s.stats.iq_pref_stall_events;
  d.mob_full_stalls = mob_->stats().full_stalls - s.mob.full_stalls;
  d.mob_waits = mob_->stats().waits - s.mob.waits;
  d.steer_decisions = steering_.stats().decisions - s.steer.decisions;
  d.steer_balance_overrides =
      steering_.stats().balance_overrides - s.steer.balance_overrides;
  d.steer_dependence_free =
      steering_.stats().dependence_free - s.steer.dependence_free;
  return d;
}

void Simulator::replicate_skip(const ProbeDelta& d, Cycle horizon) {
  const std::uint64_t k = horizon - now_;  // cycles skipped: [now_, horizon)
  stats_.cycles += k;
  stats_.rename_blocked_cycles += d.rename_blocked_cycles * k;
  stats_.rename_block_iq += d.rename_block_iq * k;
  stats_.rename_block_rf += d.rename_block_rf * k;
  stats_.rename_block_rob += d.rename_block_rob * k;
  stats_.rename_block_mob += d.rename_block_mob * k;
  stats_.iq_pref_stall_events += d.iq_pref_stall_events * k;

  mob_->note_full_stalls(d.mob_full_stalls * k);
  mob_->note_waits(d.mob_waits * k);
  steer::SteeringStats sd;
  sd.decisions = d.steer_decisions;
  sd.balance_overrides = d.steer_balance_overrides;
  sd.dependence_free = d.steer_dependence_free;
  steering_.add_stats(sd, k);

  // Interval policies replay their per-cycle bookkeeping over the skipped
  // cycles. view_ carries the frozen occupancies and the probe-validated
  // rf_blocked flags.
  policy_->quiesce(view_, now_, horizon);

  // The commit round-robin rotates unconditionally every cycle.
  commit_rr_ = static_cast<ThreadId>(
      (static_cast<std::uint64_t>(commit_rr_) + k) %
      static_cast<std::uint64_t>(config_.num_threads));

  cycles_skipped_ += k;
  ++skip_episodes_;
  now_ = horizon;
}

void Simulator::reset_stats() {
  stats_ = SimStats{};
  for (int t = 0; t < config_.num_threads; ++t) view_.committed[t] = 0;
  hierarchy_->reset_stats();
  mob_->reset_stats();
  fetch_->reset_stats();
  interconnect_->reset_stats();
  steering_.reset_stats();
  cycles_skipped_ = 0;
  skip_episodes_ = 0;
}

void Simulator::step() {
  refresh_view();
#ifndef NDEBUG
  assert(validate_view());
#endif
  policy_->begin_cycle(view_);
  handle_flush_requests();
  commit_stage();
  writeback_stage();
  issue_stage();
  rename_stage();
  fetch_stage();
  ++now_;
  ++stats_.cycles;
}

// The PipelineView is maintained incrementally: occupancy/free/used
// counters change at the mutation helpers (iq_insert/iq_remove, rf_alloc/
// rf_release, rob push/pop, sync_decode_depth), iq_unready_tc is sampled
// once per cycle by the issue stage (the view's documented one-cycle-stale
// hardware-counter semantics), and only the rf_blocked starvation flags
// are double-buffered here. Their publication schedule is this call's
// placement, kept exactly where the full rebuild used to run: at the top
// of the cycle and after each successful rename — never between the
// rename stage's flag clear and its first policy query.
void Simulator::refresh_view() {
  view_.now = now_;
  for (int t = 0; t < config_.num_threads; ++t) {
    for (int k = 0; k < kNumRegClasses; ++k) {
      view_.rf_blocked[t][k] = rf_blocked_flags_[t][k];
    }
  }
}

void Simulator::init_view() {
  view_.now = now_;
  view_.num_threads = config_.num_threads;
  view_.num_clusters = config_.num_clusters;
  for (int c = 0; c < config_.num_clusters; ++c) {
    view_.iq_capacity_c[c] = config_.effective_iq_entries(c);
    view_.rf_capacity_c[c][0] = clusters_[c].rf(RegClass::kInt).capacity();
    view_.rf_capacity_c[c][1] = clusters_[c].rf(RegClass::kFp).capacity();
  }
  view_.rf_unbounded = config_.rf_unbounded();
  for (int c = 0; c < config_.num_clusters; ++c) {
    view_.iq_occ[c] = clusters_[c].iq().occupancy();
    for (int k = 0; k < kNumRegClasses; ++k) {
      view_.rf_free[c][k] =
          clusters_[c].rf(static_cast<RegClass>(k)).free_count();
    }
  }
}

bool Simulator::validate_view() const {
  bool ok = true;
  const auto check = [&ok](long long view_value, long long rebuilt,
                           const char* what) {
    if (view_value == rebuilt) return;
    std::fprintf(stderr,
                 "validate_view: %s drifted (view %lld, rebuilt %lld)\n",
                 what, view_value, rebuilt);
    ok = false;
  };
  for (int c = 0; c < config_.num_clusters; ++c) {
    check(view_.iq_occ[c], clusters_[c].iq().occupancy(), "iq_occ");
    for (int k = 0; k < kNumRegClasses; ++k) {
      check(view_.rf_free[c][k],
            clusters_[c].rf(static_cast<RegClass>(k)).free_count(),
            "rf_free");
    }
  }
  for (int t = 0; t < config_.num_threads; ++t) {
    for (int c = 0; c < config_.num_clusters; ++c) {
      check(view_.iq_occ_tc[t][c], clusters_[c].iq().occupancy_of(t),
            "iq_occ_tc");
      for (int k = 0; k < kNumRegClasses; ++k) {
        check(view_.rf_used[t][c][k],
              clusters_[c].rf(static_cast<RegClass>(k)).used_by(t),
              "rf_used");
      }
    }
    check(view_.decode_queue_depth[t], fetch_->queue_size(t),
          "decode_queue_depth");
    check(view_.rob_occ[t], robs_[t].size(), "rob_occ");
    check(view_.l2_pending[t] ? 1 : 0, outstanding_l2_[t] > 0 ? 1 : 0,
          "l2_pending");
    check(static_cast<long long>(view_.committed[t]),
          static_cast<long long>(stats_.committed[t]), "committed");
  }
  return ok;
}

// --------------------------------------------------------------------------
// Incremental-view mutation helpers
// --------------------------------------------------------------------------

int Simulator::iq_insert(ClusterId c, const backend::IqEntry& entry) {
  const int slot = clusters_[c].iq().insert(entry, source_ready(entry.src0),
                                            source_ready(entry.src1));
  if (slot >= 0) {
    ++view_.iq_occ[c];
    ++view_.iq_occ_tc[entry.tid][c];
  }
  return slot;
}

void Simulator::iq_remove(ClusterId c, int slot) {
  backend::IssueQueue& iq = clusters_[c].iq();
  const ThreadId tid = iq.entry(slot).tid;
  iq.remove(slot);
  --view_.iq_occ[c];
  --view_.iq_occ_tc[tid][c];
}

int Simulator::rf_alloc(ClusterId c, RegClass cls, ThreadId tid) {
  const int index = clusters_[c].rf(cls).allocate(tid);
  if (index >= 0) {
    --view_.rf_free[c][static_cast<int>(cls)];
    ++view_.rf_used[tid][c][static_cast<int>(cls)];
  }
  return index;
}

void Simulator::rf_release(ClusterId c, RegClass cls, std::int16_t index) {
  assert(!clusters_[c].iq().has_consumers(cls, index) &&
         "released a register with live issue-queue watchers");
  const ThreadId owner = clusters_[c].rf(cls).release(index);
  ++view_.rf_free[c][static_cast<int>(cls)];
  --view_.rf_used[owner][c][static_cast<int>(cls)];
}

void Simulator::make_ready(const PhysRef& ref) {
  clusters_[ref.cluster].set_ready(ref.cls, ref.index);
}

DynUop* Simulator::rob_push(ThreadId tid) {
  DynUop* uop = robs_[tid].push();
  if (uop != nullptr) ++view_.rob_occ[tid];
  return uop;
}

void Simulator::sync_decode_depth(ThreadId tid) {
  view_.decode_queue_depth[tid] = fetch_->queue_size(tid);
}

// --------------------------------------------------------------------------
// Events
// --------------------------------------------------------------------------

void Simulator::schedule(Cycle cycle, EventKind kind, const DynUop& uop) {
  const Cycle delta = cycle - now_;
  assert(delta >= 1 && "events must be scheduled strictly in the future");
  const int rob_slot = robs_[uop.tid].slot_of(uop);
  if (event_model_ == EventModel::kWheel && delta < kEventWheelBuckets) {
    // The bucket holds only records for exactly `cycle` (buckets are fully
    // drained each turn of the wheel). Appends are in global schedule
    // order, so the bucket stays FIFO without order stamps.
    event_order_++;  // stamp consumed, mirroring the reference model
    ++wheel_pending_;
    event_wheel_[cycle & (kEventWheelBuckets - 1)].push_back(
        WheelRecord{.uid = uop.uid,
                    .rob_slot = rob_slot,
                    .tid = static_cast<std::int16_t>(uop.tid),
                    .kind = kind});
  } else {
    event_overflow_.push(Event{.cycle = cycle,
                               .order = event_order_++,
                               .kind = kind,
                               .tid = uop.tid,
                               .rob_slot = rob_slot,
                               .uid = uop.uid});
  }
}

// --------------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------------

void Simulator::commit_stage() {
  const int num_clusters = config_.num_clusters;
  const int num_threads = config_.num_threads;
  int budget = config_.commit_width;
  int store_ports = config_.l1_write_ports;

  for (int offset = 0; offset < num_threads && budget > 0; ++offset) {
    const ThreadId t = (commit_rr_ + offset) % num_threads;
    Rob& rob = robs_[t];
    while (budget > 0 && !rob.empty()) {
      DynUop& head = rob.head();
      if (head.stage != UopStage::kDone) break;
      assert(!head.wrong_path && "wrong-path uop reached commit");

      if (head.op.is_store()) {
        if (store_ports == 0) break;  // L1 write ports exhausted this cycle
        --store_ports;
        const auto result = hierarchy_->store(head.op.mem_addr, now_);
        if (result.l2_miss) ++stats_.store_l2_misses;
      }

      // Free the registers superseded by this µop's destination.
      if (head.has_prev) {
        const RegClass cls = arch_reg_class(head.op.dst);
        for (int c = 0; c < num_clusters; ++c) {
          if (head.prev_replicas.phys[c] >= 0) {
            rf_release(c, cls, head.prev_replicas.phys[c]);
          }
        }
      }
      if (head.mob_slot >= 0) mob_->release(head.mob_slot);

      if (head.is_copy) {
        ++stats_.committed_copies;
      } else {
        ++stats_.committed[t];
        view_.committed[t] = stats_.committed[t];
        if (head.op.is_branch()) ++stats_.committed_branches;
        if (head.op.is_load()) ++stats_.committed_loads;
        if (head.op.is_store()) ++stats_.committed_stores;
      }
      if (commit_hook_) commit_hook_(head);

      head.uid = 0;  // invalidate pending events
      rob.pop_head();
      --view_.rob_occ[t];
      --budget;
      last_commit_cycle_ = now_;
    }
  }
  commit_rr_ = (commit_rr_ + 1) % num_threads;
}

// --------------------------------------------------------------------------
// Writeback / memory
// --------------------------------------------------------------------------

void Simulator::note_l2_miss_started(DynUop& uop) {
  uop.l2_miss_outstanding = true;
  ++outstanding_l2_[uop.tid];
  view_.l2_pending[uop.tid] = true;
  policy_->on_l2_miss(uop.tid, uop.seq, now_);
}

void Simulator::note_l2_miss_finished(DynUop& uop) {
  assert(uop.l2_miss_outstanding);
  uop.l2_miss_outstanding = false;
  --outstanding_l2_[uop.tid];
  assert(outstanding_l2_[uop.tid] >= 0);
  view_.l2_pending[uop.tid] = outstanding_l2_[uop.tid] > 0;
  policy_->on_l2_resolved(uop.tid, uop.seq, now_);
}

void Simulator::start_load_access(DynUop& uop) {
  const auto check = mob_->check_load(uop.mob_slot);
  switch (check) {
    case memory::LoadCheck::kWait:
      // A first-time block changes the list content; a re-block during
      // the retry pass is netted out there by the size check.
      if (!in_blocked_retry_) ++blocked_epoch_;
      blocked_loads_.push_back(
          {uop.tid, robs_[uop.tid].slot_of(uop), uop.uid});
      return;
    case memory::LoadCheck::kForward:
      ++stats_.load_forwards;
      schedule(now_ + 1, EventKind::kComplete, uop);
      return;
    case memory::LoadCheck::kAccess: {
      const auto result = hierarchy_->load(uop.op.mem_addr, now_);
      if (result.l2_miss) {
        ++stats_.load_l2_misses;
        note_l2_miss_started(uop);
      }
      schedule(now_ + static_cast<Cycle>(result.latency),
               EventKind::kComplete, uop);
      return;
    }
  }
}

void Simulator::retry_blocked_loads() {
  if (blocked_loads_.empty()) return;
  std::vector<BlockedLoad> pending;
  pending.swap(blocked_loads_);
  in_blocked_retry_ = true;
  for (const BlockedLoad& bl : pending) {
    DynUop& uop = robs_[bl.tid].at_slot(bl.rob_slot);
    if (uop.uid != bl.uid) continue;  // squashed meanwhile
    start_load_access(uop);           // re-blocks if still ambiguous
  }
  in_blocked_retry_ = false;
  // The rebuild preserves order and only removes, so an unchanged size
  // means the list is element-wise identical to pending: no epoch bump.
  if (blocked_loads_.size() != pending.size()) ++blocked_epoch_;
}

void Simulator::writeback_stage() {
  retry_blocked_loads();
  drain_events();
}

void Simulator::drain_events() {
  // Due heap events first: an overflow event due now was scheduled at or
  // before now - kEventWheelBuckets, strictly before anything in this
  // cycle's bucket was stamped, so heap-then-bucket IS global
  // (cycle, order) order — no merge step. Under kHeapReference the bucket
  // is always empty and this is the original priority-queue drain.
  while (!event_overflow_.empty() && event_overflow_.top().cycle <= now_) {
    const Event event = event_overflow_.top();
    event_overflow_.pop();
    assert(event.cycle == now_ && "event missed its cycle");
    dispatch_event(event.kind, event.tid, event.rob_slot, event.uid);
  }

  // Then this cycle's wheel bucket, in append (= order-stamp) order.
  // Events dispatched here schedule follow-ups at least one cycle ahead,
  // which by construction land in a different bucket, so indexed
  // iteration is safe against reallocation.
  std::vector<WheelRecord>& bucket =
      event_wheel_[now_ & (kEventWheelBuckets - 1)];
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    const WheelRecord r = bucket[i];
    dispatch_event(r.kind, static_cast<ThreadId>(r.tid), r.rob_slot, r.uid);
  }
  // Follow-ups scheduled during the drain landed in other buckets (and
  // already incremented the counter); this bucket's records all retire.
  wheel_pending_ -= bucket.size();
  bucket.clear();
}

Cycle Simulator::next_event_cycle() const {
  Cycle best = std::numeric_limits<Cycle>::max();
  if (!event_overflow_.empty()) best = event_overflow_.top().cycle;
  if (wheel_pending_ > 0) {
    // Every live wheel record is due within [now_, now_ + buckets): records
    // are drained at their due cycle, so none can be a full revolution
    // stale. Scan forward to the first non-empty bucket, stopping early if
    // the heap already wins.
    for (Cycle c = now_; c < now_ + static_cast<Cycle>(kEventWheelBuckets);
         ++c) {
      if (c >= best) break;
      if (!event_wheel_[c & (kEventWheelBuckets - 1)].empty()) {
        best = c;
        break;
      }
    }
  }
  return best;
}

void Simulator::dispatch_event(EventKind kind, ThreadId tid, int rob_slot,
                               std::uint64_t uid) {
  DynUop* uop = &robs_[tid].at_slot(rob_slot);
  if (uop->uid != uid || uop->tid != tid) return;  // squashed meanwhile

  switch (kind) {
      case EventKind::kAgu: {
        mob_->set_address(uop->mob_slot, uop->op.mem_addr);
        if (uop->op.is_store()) {
          uop->stage = UopStage::kDone;  // data written at commit
          break;
        }
        start_load_access(*uop);
        break;
      }
      case EventKind::kComplete: {
        if (uop->is_copy) {
          // The copy's value crosses the interconnect; retry next cycle
          // when both links are busy.
          if (interconnect_->try_acquire()) {
            // A copy µop sits in the producer's cluster and writes the
            // consumer's (uop->cluster → dst.cluster); heterogeneous
            // grids may place that pair near or far.
            schedule(now_ + static_cast<Cycle>(interconnect_->latency(
                                uop->cluster, uop->dst.cluster)),
                     EventKind::kCopyArrive, *uop);
          } else {
            schedule(now_ + 1, EventKind::kComplete, *uop);
          }
          break;
        }
        if (uop->dst.valid()) make_ready(uop->dst);
        if (uop->op.is_load() && uop->l2_miss_outstanding) {
          note_l2_miss_finished(*uop);
        }
        uop->stage = UopStage::kDone;
        if (uop->op.is_branch()) {
          ++stats_.branches_resolved;
          if (!uop->wrong_path) {
            fetch_->predictor().train(uop->tid, uop->history_checkpoint,
                                      uop->op.pc, uop->op.taken);
            if (uop->op.indirect) {
              fetch_->predictor().train_indirect(uop->op.pc, uop->op.target);
            }
            if (uop->mispredicted) {
              ++stats_.mispredicts_resolved;
              squash_younger_than(uop->tid, uop->seq, nullptr, nullptr);
              fetch_->resolve_mispredict(uop->tid, uop->history_checkpoint,
                                         uop->op.taken, now_);
              sync_decode_depth(uop->tid);
            }
          }
        }
        break;
      }
      case EventKind::kCopyArrive: {
        make_ready(uop->dst);
        uop->stage = UopStage::kDone;
        break;
      }
  }
}

// --------------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------------

bool Simulator::source_ready(const PhysRef& ref) const {
  if (!ref.valid()) return true;
  return clusters_[ref.cluster].rf(ref.cls).ready(ref.index);
}

void Simulator::issue_stage() {
  const int num_clusters = config_.num_clusters;
  const int num_threads = config_.num_threads;
  interconnect_->new_cycle();
  bool any_issue = false;
  int ready_unissued[kMaxClusters][trace::kNumPortClasses] = {};

  // Grants an issue port to the (ready) entry at `slot` if one is free.
  const auto try_issue = [&](int c, int slot) {
    backend::Cluster& cluster = clusters_[c];
    const backend::IqEntry& entry = cluster.iq().entry(slot);
    const trace::PortClass port_class = trace::port_class_of(entry.cls);
    if (!cluster.ports().try_book(port_class)) {
      ++ready_unissued[c][static_cast<int>(port_class)];
      return;
    }
    DynUop& uop =
        robs_[rob_ref_tid(entry.rob_ref)].at_slot(rob_ref_slot(entry.rob_ref));
    iq_remove(c, slot);
    uop.iq_slot = -1;
    uop.stage = UopStage::kIssued;
    ++stats_.issued_uops;
    any_issue = true;
    if (trace::is_memory(uop.op.cls)) {
      schedule(now_ + 1, EventKind::kAgu, uop);  // 1-cycle AGU
    } else {
      schedule(now_ + static_cast<Cycle>(trace::execution_latency(uop.op.cls)),
               EventKind::kComplete, uop);
    }
  };

  for (int c = 0; c < num_clusters; ++c) {
    backend::Cluster& cluster = clusters_[c];
    cluster.ports().new_cycle();
    if (issue_model_ == IssueModel::kWakeup) {
      // The view's unready counters sample the wakeup bookkeeping here, at
      // the same point the reference scan would have counted them, keeping
      // the documented one-cycle-stale hardware-counter semantics.
      for (int t = 0; t < num_threads; ++t) {
        view_.iq_unready_tc[t][c] = cluster.iq().waiting_of(t);
      }
      // Scan only ready entries, oldest first (the iterator advances past
      // a slot before handing it out, so issuing may remove it).
      backend::IssueQueue::OrderedIter it = cluster.iq().ready_iter();
      for (int slot = it.next(); slot != -1; slot = it.next()) {
        try_issue(c, slot);
        if (cluster.ports().all_booked()) {
          // Every port is taken: the rest of the ready list can only be
          // denied. Tally the Figure 5 events without probing the ports
          // (try_book on a fully-booked set always fails).
          for (int rest = it.next(); rest != -1; rest = it.next()) {
            const trace::PortClass pc =
                trace::port_class_of(cluster.iq().entry(rest).cls);
            ++ready_unissued[c][static_cast<int>(pc)];
          }
          break;
        }
      }
    } else {
      // Reference model: probe every occupied slot through the register
      // files (the original per-cycle rescan). Kept as the differential-
      // test oracle for the wakeup path.
      for (int t = 0; t < num_threads; ++t) {
        view_.iq_unready_tc[t][c] = 0;
      }
      backend::IssueQueue::OrderedIter it = cluster.iq().age_iter();
      for (int slot = it.next(); slot != -1; slot = it.next()) {
        const backend::IqEntry& entry = cluster.iq().entry(slot);
        if (!source_ready(entry.src0) || !source_ready(entry.src1)) {
          ++view_.iq_unready_tc[entry.tid][c];
        } else {
          try_issue(c, slot);
        }
      }
    }
  }

  // Figure 5: ready µops denied an issue slot — could the other cluster
  // have executed them this cycle?
  for (int c = 0; c < num_clusters; ++c) {
    for (int k = 0; k < trace::kNumPortClasses; ++k) {
      const int denied = ready_unissued[c][k];
      if (denied == 0) continue;
      bool other_has_slot = false;
      for (int c2 = 0; c2 < num_clusters; ++c2) {
        if (c2 == c) continue;
        if (clusters_[c2].ports().free_compatible(
                static_cast<trace::PortClass>(k)) > 0) {
          other_has_slot = true;
          break;
        }
      }
      stats_.imbalance_events[other_has_slot ? 1 : 0][k] +=
          static_cast<std::uint64_t>(denied);
    }
  }
  if (any_issue) ++stats_.cycles_with_issue;
}

// --------------------------------------------------------------------------
// Rename / steer / dispatch
// --------------------------------------------------------------------------

void Simulator::rename_stage() {
  const int num_threads = config_.num_threads;
  refresh_view();
  for (int t = 0; t < num_threads; ++t) {
    for (int k = 0; k < kNumRegClasses; ++k) rf_blocked_flags_[t][k] = false;
  }

  std::uint32_t candidates = 0;
  for (int t = 0; t < num_threads; ++t) {
    if (!fetch_->queue_empty(t)) candidates |= 1u << t;
  }
  candidates = policy_->rename_eligible(view_, candidates);
  if (candidates == 0) return;

  const ThreadId tid = policy_->select_rename_thread(view_, candidates);
  if (tid < 0) return;

  // Per-burst invariants, hoisted out of the per-µop loop: the forced
  // cluster is a function of (scheme, tid) only.
  const ClusterId forced = policy_->forced_cluster(view_, tid);

  int budget = config_.rename_width;
  bool renamed_any = false;
  while (budget > 0 && !fetch_->queue_empty(tid)) {
    const int consumed = try_rename_front(tid, forced);
    if (consumed == 0) {
      ++stats_.rename_blocked_cycles;
      break;
    }
    budget -= consumed;
    renamed_any = true;
    // Republish the rf_blocked snapshot (occupancies are already live):
    // a successful rename cleared the thread's flags, and the next µop's
    // policy queries must see that, exactly as the old full refresh did.
    refresh_view();
  }
  if (renamed_any) ++stats_.rename_cycles;
}

bool Simulator::plan_for_cluster(ThreadId tid, const frontend::FetchedUop& fu,
                                 const frontend::ReplicaSet* const srcs[2],
                                 ClusterId cluster, RenamePlan& plan,
                                 bool& iq_failure, bool& rf_failure) {
  const int num_clusters = config_.num_clusters;
  plan = RenamePlan{};
  plan.cluster = cluster;

  int iq_need[kMaxClusters] = {};
  iq_need[cluster] += 1;
  int rf_need[kNumRegClasses] = {};

  auto plan_source = [&](int arch, const frontend::ReplicaSet* rs) {
    if (rs == nullptr) return;
    if (!rs->anywhere() || rs->present(cluster)) return;
    for (int i = 0; i < plan.num_copies; ++i) {
      if (plan.copies[i].arch == arch) return;  // one copy per arch reg
    }
    const ClusterId from = rs->any_cluster();
    plan.copies[plan.num_copies++] =
        RenamePlan::CopyPlan{arch, from, rs->phys[from]};
    ++iq_need[from];
    ++rf_need[static_cast<int>(arch_reg_class(arch))];
  };
  plan_source(fu.op.src0, srcs[0]);
  plan_source(fu.op.src1, srcs[1]);

  if (fu.op.has_dst()) {
    ++rf_need[static_cast<int>(arch_reg_class(fu.op.dst))];
  }

  if (robs_[tid].free_slots() < 1 + plan.num_copies) return false;

  int total_iq_need = 0;
  for (int c = 0; c < num_clusters; ++c) total_iq_need += iq_need[c];
  for (int c = 0; c < num_clusters; ++c) {
    if (iq_need[c] == 0) continue;
    if (clusters_[c].iq().occupancy() + iq_need[c] >
            clusters_[c].iq().capacity() ||
        !policy_->allow_iq_dispatch(view_, tid, c, iq_need[c],
                                    total_iq_need)) {
      iq_failure = true;
      return false;
    }
  }

  for (int k = 0; k < kNumRegClasses; ++k) {
    if (rf_need[k] == 0) continue;
    const RegClass cls = static_cast<RegClass>(k);
    if (clusters_[cluster].rf(cls).free_count() < rf_need[k] ||
        !policy_->allow_rf_alloc(view_, tid, cluster, cls, rf_need[k])) {
      rf_failure = true;
      rf_blocked_flags_[tid][k] = true;  // refined below when dispatched
      return false;
    }
  }
  return true;
}

// The checks, their order, the policy-query arguments and the failure
// flags are exactly plan_for_cluster's with num_copies == 0; only the copy
// bookkeeping (need arrays, copy scan) is gone. The parity is what the
// golden gate certifies.
bool Simulator::plan_no_copies(ThreadId tid, const frontend::FetchedUop& fu,
                               ClusterId cluster, RenamePlan& plan,
                               bool& iq_failure, bool& rf_failure) {
  plan.cluster = cluster;
  plan.num_copies = 0;
  plan.off_preferred_iq = false;

  if (robs_[tid].free_slots() < 1) return false;

  if (clusters_[cluster].iq().occupancy() + 1 >
          clusters_[cluster].iq().capacity() ||
      !policy_->allow_iq_dispatch(view_, tid, cluster, 1, 1)) {
    iq_failure = true;
    return false;
  }

  if (fu.op.has_dst()) {
    const RegClass cls = arch_reg_class(fu.op.dst);
    if (clusters_[cluster].rf(cls).free_count() < 1 ||
        !policy_->allow_rf_alloc(view_, tid, cluster, cls, 1)) {
      rf_failure = true;
      rf_blocked_flags_[tid][static_cast<int>(cls)] = true;
      return false;
    }
  }
  return true;
}

int Simulator::try_rename_front(ThreadId tid, ClusterId forced) {
  const int num_clusters = config_.num_clusters;
  const frontend::FetchedUop& fu = fetch_->queue_front(tid);

  // Memory-order-buffer slot is cluster independent.
  if (trace::is_memory(fu.op.cls) && mob_->full()) {
    ++stats_.rename_block_mob;
    mob_->note_full_stall();
    return 0;
  }

  // A full ROB fails every cluster's plan before its issue-queue or
  // register checks run, so no starvation flags or preferred-IQ events
  // would be recorded: take the blocked exit without voting/steering/
  // planning. Round-robin steering is excluded because its cursor advances
  // on every (even failed) decision and skipping would change later
  // cluster choices. For the stateless kinds only the Steering *decision
  // counters* stop counting these doomed attempts — SimStats and every
  // golden table are unaffected.
  if (robs_[tid].full() &&
      steering_.kind() != steer::SteeringKind::kRoundRobin) {
    ++stats_.rename_block_rob;
    return 0;
  }

  // Source replica sets, looked up once per µop and shared by the steering
  // vote and every per-cluster plan below.
  frontend::RenameMap& rmap = rename_maps_[tid];
  const frontend::ReplicaSet* srcs[2] = {
      fu.op.src0 >= 0 ? &rmap.get(fu.op.src0) : nullptr,
      fu.op.src1 >= 0 ? &rmap.get(fu.op.src1) : nullptr,
  };

  // Dependence vote for the steering heuristic. Sources whose value is
  // still in flight vote with triple weight: following them avoids a copy
  // that would serialise behind the producer and linger in the producer's
  // issue queue ([12] prioritises unavailable operands).
  int dep_count[kMaxClusters] = {};
  auto vote = [&](int arch, const frontend::ReplicaSet* rs) {
    if (rs == nullptr) return;
    const RegClass cls = arch_reg_class(arch);
    for (int c = 0; c < num_clusters; ++c) {
      if (!rs->present(c)) continue;
      const bool in_flight =
          !clusters_[c].rf(cls).ready(rs->phys[c]);
      dep_count[c] += in_flight ? 3 : 1;
    }
  };
  vote(fu.op.src0, srcs[0]);
  vote(fu.op.src1, srcs[1]);

  // A cluster needs no copies when every live source already has a
  // replica there — the overwhelmingly common case for the preferred
  // cluster, which plan_no_copies handles without the copy bookkeeping.
  const auto needs_copies = [&](ClusterId c) {
    return (srcs[0] != nullptr && srcs[0]->anywhere() &&
            !srcs[0]->present(c)) ||
           (srcs[1] != nullptr && srcs[1]->anywhere() &&
            !srcs[1]->present(c));
  };
  const auto plan_cluster = [&](ClusterId c, RenamePlan& plan,
                                bool& iq_failure, bool& rf_failure) {
    return needs_copies(c)
               ? plan_for_cluster(tid, fu, srcs, c, plan, iq_failure,
                                  rf_failure)
               : plan_no_copies(tid, fu, c, plan, iq_failure, rf_failure);
  };

  ClusterId preferred;
  int iq_occ[kMaxClusters];
  if (forced >= 0) {
    preferred = forced;
  } else {
    for (int c = 0; c < num_clusters; ++c) {
      iq_occ[c] = clusters_[c].iq().occupancy();
    }
    preferred = steering_.preferred(
        std::span<const int>(dep_count, num_clusters),
        std::span<const int>(iq_occ, num_clusters));
  }

  bool preferred_iq_failure = false;
  bool any_iq_failure = false;
  bool any_rf_failure = false;
  RenamePlan plan;
  bool planned = false;
  {
    bool iq_failure = false;
    bool rf_failure = false;
    if (plan_cluster(preferred, plan, iq_failure, rf_failure)) {
      plan.off_preferred_iq = false;
      planned = true;
    } else {
      preferred_iq_failure = iq_failure;
      any_iq_failure = iq_failure;
      any_rf_failure = rf_failure;
    }
  }

  if (!planned && forced < 0) {
    // Preferred cluster refused: only now build the fallback order —
    // remaining clusters, least loaded first (insertion sort; <= 3 items,
    // over the occupancies read before any planning, which planning does
    // not change).
    ClusterId order[kMaxClusters];
    int order_len = 0;
    for (int c = 0; c < num_clusters; ++c) {
      if (c == preferred) continue;
      // Capacity-scaled like the steering comparisons (identity on
      // homogeneous grids), so fallback order also respects shape.
      const int load = steering_.scaled_load(c, iq_occ[c]);
      int pos = order_len++;
      while (pos > 0 &&
             steering_.scaled_load(order[pos - 1], iq_occ[order[pos - 1]]) >
                 load) {
        order[pos] = order[pos - 1];
        --pos;
      }
      order[pos] = c;
    }
    for (int oi = 0; oi < order_len; ++oi) {
      const ClusterId c = order[oi];
      bool iq_failure = false;
      bool rf_failure = false;
      if (plan_cluster(c, plan, iq_failure, rf_failure)) {
        plan.off_preferred_iq = preferred_iq_failure;
        planned = true;
        break;
      }
      any_iq_failure |= iq_failure;
      any_rf_failure |= rf_failure;
    }
  }

  if (!planned) {
    // Figure 4 counts the µop's failure to enter its preferred cluster
    // whether or not renaming ultimately blocked.
    if (preferred_iq_failure) ++stats_.iq_pref_stall_events;
    if (any_iq_failure) ++stats_.rename_block_iq;
    if (any_rf_failure) ++stats_.rename_block_rf;
    if (!any_iq_failure && !any_rf_failure) ++stats_.rename_block_rob;
    return 0;
  }

  // The µop dispatched somewhere; clear speculative starvation marks made
  // while probing failed clusters.
  for (int k = 0; k < kNumRegClasses; ++k) rf_blocked_flags_[tid][k] = false;

  if (plan.off_preferred_iq) {
    ++stats_.iq_pref_stall_events;
    ++stats_.non_preferred_dispatches;
  }

  execute_plan(tid, fu, srcs, plan);
  fetch_->drop_front(tid);
  sync_decode_depth(tid);
  ++stats_.renamed_uops;
  stats_.copies_created += static_cast<std::uint64_t>(plan.num_copies);
  // Copies are injected by dedicated rename-stage ports ([12]: "generated
  // on demand by the rename logic") and do not consume the 6-wide rename
  // bandwidth; they do occupy ROB/IQ entries, registers and link slots.
  return 1;
}

void Simulator::execute_plan(ThreadId tid, const frontend::FetchedUop& fu,
                             const frontend::ReplicaSet* const srcs[2],
                             const RenamePlan& plan) {
  frontend::RenameMap& rmap = rename_maps_[tid];
  const ClusterId target = plan.cluster;

  // Copies precede the consumer in program order ([12]: generated
  // on demand by the rename logic).
  for (int i = 0; i < plan.num_copies; ++i) {
    const RenamePlan::CopyPlan& cp = plan.copies[i];
    const RegClass cls = arch_reg_class(cp.arch);
    DynUop* copy = rob_push(tid);
    assert(copy != nullptr);
    copy->op = trace::MicroOp{};  // Rob::push leaves the payload stale
    copy->op.cls = trace::UopClass::kCopy;
    copy->op.pc = fu.op.pc;
    copy->tid = tid;
    copy->seq = next_seq_[tid]++;
    copy->uid = next_uid_++;
    copy->wrong_path = fu.wrong_path;
    copy->is_copy = true;
    copy->cluster = cp.from;  // reads (and issues) in the producer cluster
    copy->srcs[0] = PhysRef{static_cast<std::int8_t>(cp.from), cls,
                            cp.from_phys};
    const int dst_index = rf_alloc(target, cls, tid);
    assert(dst_index >= 0);
    copy->dst = PhysRef{static_cast<std::int8_t>(target), cls,
                        static_cast<std::int16_t>(dst_index)};
    copy->copy_arch = cp.arch;
    rmap.add_replica(cp.arch, target, static_cast<std::int16_t>(dst_index));

    backend::IqEntry entry{.tid = tid,
                           .seq = copy->seq,
                           .cls = trace::UopClass::kCopy,
                           .src0 = copy->srcs[0],
                           .src1 = kNoPhysRef,
                           .rob_ref = pack_rob_ref(
                               tid, robs_[tid].slot_of(*copy))};
    copy->iq_slot = iq_insert(cp.from, entry);
    assert(copy->iq_slot >= 0);
  }

  DynUop* uop = rob_push(tid);
  assert(uop != nullptr);
  uop->op = fu.op;
  uop->tid = tid;
  uop->seq = next_seq_[tid]++;
  uop->uid = next_uid_++;
  uop->wrong_path = fu.wrong_path;
  uop->mispredicted = fu.mispredicted;
  uop->history_checkpoint = fu.history_checkpoint;
  uop->predicted_taken = fu.predicted_taken;
  uop->cluster = target;
  uop->steered_off_preferred = plan.off_preferred_iq;

  // Resolve sources after copies (replicas now exist in `target`) and
  // before the destination is redefined (a µop may read its own register).
  // When the plan made no copies the prefetched replica sets are still
  // current and the map lookup is skipped.
  auto resolve = [&](int arch, const frontend::ReplicaSet* rs) -> PhysRef {
    if (arch < 0) return kNoPhysRef;
    if (plan.num_copies != 0) rs = &rmap.get(arch);
    if (!rs->anywhere()) return kNoPhysRef;  // architecturally cold: ready
    assert(rs->present(target));
    return PhysRef{static_cast<std::int8_t>(target), arch_reg_class(arch),
                   rs->phys[target]};
  };
  uop->srcs[0] = resolve(fu.op.src0, srcs[0]);
  uop->srcs[1] = resolve(fu.op.src1, srcs[1]);

  if (fu.op.has_dst()) {
    const RegClass cls = arch_reg_class(fu.op.dst);
    const int dst_index = rf_alloc(target, cls, tid);
    assert(dst_index >= 0);
    uop->dst = PhysRef{static_cast<std::int8_t>(target), cls,
                       static_cast<std::int16_t>(dst_index)};
    uop->prev_replicas = rmap.define(fu.op.dst, target,
                                     static_cast<std::int16_t>(dst_index));
    uop->has_prev = true;
  }

  if (trace::is_memory(fu.op.cls)) {
    uop->mob_slot = mob_->allocate(tid, uop->seq, fu.op.is_store());
    assert(uop->mob_slot >= 0);
  }

  backend::IqEntry entry{.tid = tid,
                         .seq = uop->seq,
                         .cls = fu.op.cls,
                         .src0 = uop->srcs[0],
                         .src1 = uop->srcs[1],
                         .rob_ref =
                             pack_rob_ref(tid, robs_[tid].slot_of(*uop))};
  if (fu.op.is_store()) {
    // Stores model the x86 STA/STD split: the address µop issues as soon
    // as the address source (src0) is ready so younger loads can
    // disambiguate; the data (src1, produced by an older µop) is committed
    // with the store and never delays address generation.
    entry.src1 = kNoPhysRef;
  }
  uop->iq_slot = iq_insert(target, entry);
  assert(uop->iq_slot >= 0);
}

// --------------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------------

void Simulator::fetch_stage() {
  std::uint32_t mask = (1u << config_.num_threads) - 1;
  mask = policy_->fetch_eligible(view_, mask);
  const ThreadId tid = fetch_->select_fetch_thread(mask, now_);
  if (tid >= 0) {
    fetch_->fetch_cycle(tid, now_);
    sync_decode_depth(tid);
  }
}

// --------------------------------------------------------------------------
// Recovery
// --------------------------------------------------------------------------

void Simulator::undo_uop(DynUop& uop) {
  ++stats_.squashed_uops;
  if (uop.stage == UopStage::kDispatched && uop.iq_slot >= 0) {
    iq_remove(uop.cluster, uop.iq_slot);
    uop.iq_slot = -1;
  }
  if (uop.l2_miss_outstanding) note_l2_miss_finished(uop);
  if (uop.mob_slot >= 0) {
    mob_->release(uop.mob_slot);
    uop.mob_slot = -1;
  }
  if (uop.is_copy) {
    rename_maps_[uop.tid].remove_replica(uop.copy_arch, uop.dst.cluster);
    rf_release(uop.dst.cluster, uop.dst.cls, uop.dst.index);
  } else if (uop.has_prev) {
    rename_maps_[uop.tid].restore(uop.op.dst, uop.prev_replicas);
    rf_release(uop.dst.cluster, uop.dst.cls, uop.dst.index);
  }
  uop.uid = 0;  // poison pending events / blocked-load references
}

void Simulator::squash_younger_than(ThreadId tid, std::uint64_t boundary_seq,
                                    std::vector<trace::MicroOp>* replay_out,
                                    std::uint64_t* oldest_branch_checkpoint) {
  Rob& rob = robs_[tid];
  while (!rob.empty() && rob.tail().seq > boundary_seq) {
    DynUop& tail = rob.tail();
    if (replay_out && !tail.wrong_path && !tail.is_copy) {
      replay_out->push_back(tail.op);  // collected youngest-first
    }
    if (oldest_branch_checkpoint && tail.op.is_branch() && !tail.wrong_path &&
        !tail.is_copy) {
      *oldest_branch_checkpoint = tail.history_checkpoint;
    }
    undo_uop(tail);
    rob.pop_tail();
    --view_.rob_occ[tid];
  }
}

void Simulator::handle_flush_requests() {
  while (auto request = policy_->flush_request(now_)) {
    std::vector<trace::MicroOp> replay;
    std::uint64_t checkpoint = 0;
    bool any_branch = false;
    {
      // Detect whether a correct-path branch will be squashed so we know
      // to restore the history register.
      Rob& rob = robs_[request->tid];
      rob.for_each([&](DynUop& u) {
        if (u.seq > request->after_seq && u.op.is_branch() && !u.wrong_path &&
            !u.is_copy) {
          any_branch = true;
        }
      });
    }
    squash_younger_than(request->tid, request->after_seq, &replay,
                        &checkpoint);
    std::reverse(replay.begin(), replay.end());
    fetch_->flush_and_replay(request->tid, replay,
                             any_branch
                                 ? std::optional<std::uint64_t>(checkpoint)
                                 : std::nullopt);
    sync_decode_depth(request->tid);
    policy_->on_flush_done(request->tid);
    ++stats_.policy_flushes;
  }
}

}  // namespace clusmt::core
