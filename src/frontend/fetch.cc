#include "frontend/fetch.h"

#include <cassert>
#include <stdexcept>

namespace clusmt::frontend {

namespace {

// Front-end constants no configuration varies.
constexpr int kMiteWidth = 3;  // µops/cycle on a trace-cache miss
constexpr int kItlbEntries = 1024;
constexpr int kItlbAssoc = 8;
constexpr int kItlbWalkLatency = 30;

}  // namespace

FetchEngine::FetchEngine(const FetchConfig& config, int num_threads)
    : config_(config),
      num_threads_(num_threads),
      predictor_(config.predictor),
      trace_cache_(config.trace_cache),
      itlb_(kItlbEntries, kItlbAssoc, kItlbWalkLatency),
      threads_(static_cast<std::size_t>(num_threads)) {
  if (num_threads < 1 || num_threads > kMaxThreads) {
    throw std::invalid_argument("unsupported thread count");
  }
  for (ThreadState& ts : threads_) {
    ts.queue.reset_capacity(config.decode_queue_capacity);
  }
}

void FetchEngine::attach_thread(ThreadId tid,
                                std::shared_ptr<trace::TraceSource> source,
                                const trace::TraceProfile* profile,
                                std::uint64_t seed) {
  ThreadState& ts = threads_.at(tid);
  ts.source = std::move(source);
  ts.profile = profile;
  ts.seed = seed;
}

trace::MicroOp FetchEngine::next_correct_uop(ThreadState& ts) {
  if (!ts.replay.empty()) {
    trace::MicroOp op = ts.replay.front();
    ts.replay.pop_front();
    return op;
  }
  if (ts.buf_count == 0) refill_buffer(ts);
  --ts.buf_count;
  return ts.buf[static_cast<std::size_t>(ts.buf_head++)];
}

std::uint64_t FetchEngine::peek_pc(ThreadState& ts) {
  if (!ts.replay.empty()) return ts.replay.front().pc;
  if (ts.buf_count == 0) refill_buffer(ts);
  return ts.buf[static_cast<std::size_t>(ts.buf_head)].pc;
}

ThreadId FetchEngine::select_fetch_thread(std::uint32_t eligible_mask,
                                          Cycle now) {
  const auto can_fetch = [&](ThreadId t) {
    if (!(eligible_mask & (1u << t))) return false;
    const ThreadState& ts = threads_[t];
    return now >= ts.stall_until &&
           static_cast<int>(ts.queue.size()) < config_.decode_queue_capacity;
  };

  if (config_.selection == FetchSelection::kRoundRobin) {
    for (int offset = 0; offset < num_threads_; ++offset) {
      const ThreadId t =
          static_cast<ThreadId>((rr_cursor_ + offset) % num_threads_);
      if (!can_fetch(t)) continue;
      rr_cursor_ = (t + 1) % num_threads_;
      return t;
    }
    return -1;
  }

  // Paper §3: the thread with the fewest µops already queued.
  ThreadId best = -1;
  int best_depth = 0;
  for (ThreadId t = 0; t < num_threads_; ++t) {
    if (!can_fetch(t)) continue;
    const int depth = static_cast<int>(threads_[t].queue.size());
    if (best < 0 || depth < best_depth) {
      best = t;
      best_depth = depth;
    }
  }
  return best;
}

void FetchEngine::fetch_cycle(ThreadId tid, Cycle now) {
  ThreadState& ts = threads_.at(tid);
  assert(ts.source && "thread has no trace source attached");
  if (now < ts.stall_until) return;
  ++stats_.fetch_cycles;

  // I-TLB lookup for the page about to be fetched from.
  const std::uint64_t fetch_pc =
      ts.wrong_path_active ? ts.wrong_path.current_pc() : peek_pc(ts);
  const int itlb_penalty = itlb_.access(fetch_pc);
  if (itlb_penalty > 0) {
    ++stats_.itlb_stalls;
    ts.stall_until = now + static_cast<Cycle>(itlb_penalty);
    return;
  }

  // Trace cache hit determines this cycle's fetch bandwidth. The decode
  // queue only grows through this function within a cycle, so the capacity
  // check hoists out of the per-µop loop exactly.
  const bool tc_hit = trace_cache_.lookup(fetch_pc);
  if (tc_hit) ++stats_.tc_hit_cycles;
  int budget = tc_hit ? config_.fetch_width : kMiteWidth;
  const int room = config_.decode_queue_capacity - ts.queue.size();
  if (budget > room) budget = room;

  if (ts.wrong_path_active) {
    fetch_wrong_path(tid, ts, budget);
  } else {
    fetch_correct_path(tid, ts, budget);
  }
}

void FetchEngine::fetch_wrong_path(ThreadId tid, ThreadState& ts,
                                   int budget) {
  while (budget-- > 0) {
    FetchedUop& fu = ts.queue.emplace_back();
    fu.op = ts.wrong_path.next();
    fu.wrong_path = true;
    ++stats_.wrong_path_uops;
    ++stats_.fetched_uops;
    if (fu.op.is_branch()) {
      // Wrong-path branch: consult the predictor for timing realism but
      // never spawn nested wrong paths; history is restored on resolve.
      fu.history_checkpoint = predictor_.history(tid);
      fu.predicted_taken =
          predictor_.predict_and_update_history(tid, fu.op.pc);
      if (fu.predicted_taken) break;  // taken redirect ends the group
    }
  }
}

void FetchEngine::fetch_correct_path(ThreadId tid, ThreadState& ts,
                                     int budget) {
  while (budget > 0) {
    if (!ts.replay.empty()) {
      // Replay after a flush: cold path, delivered per µop until the deque
      // drains back into the prefetch buffer regime.
      FetchedUop& fu = ts.queue.emplace_back();
      fu.op = ts.replay.front();
      ts.replay.pop_front();
      ++stats_.fetched_uops;
      --budget;
      if (fu.op.is_branch() && handle_correct_branch(tid, ts, fu)) return;
      continue;
    }

    // Hot path: take a straight-line run (plus at most one terminating
    // branch) from the prefetch buffer in one bulk append, so branch
    // prediction and group-stop logic run once per run, not once per µop.
    if (ts.buf_count == 0) refill_buffer(ts);
    const int run_max = budget < ts.buf_count ? budget : ts.buf_count;
    const trace::MicroOp* ops =
        ts.buf.data() + static_cast<std::size_t>(ts.buf_head);
    int run = 0;
    while (run < run_max && !ops[run].is_branch()) ++run;
    const bool has_branch = run < run_max;
    const int take = run + (has_branch ? 1 : 0);  // >= 1: run_max >= 1 here
    FetchedUop& last = ts.queue.append_ops(ops, take);
    ts.buf_head += take;
    ts.buf_count -= take;
    stats_.fetched_uops += static_cast<std::uint64_t>(take);
    budget -= take;
    if (has_branch && handle_correct_branch(tid, ts, last)) return;
  }
}

bool FetchEngine::handle_correct_branch(ThreadId tid, ThreadState& ts,
                                        FetchedUop& fu) {
  fu.history_checkpoint = predictor_.history(tid);
  fu.predicted_taken = predictor_.predict_and_update_history(tid, fu.op.pc);
  bool mispredict = fu.predicted_taken != fu.op.taken;
  std::uint64_t wrong_target =
      fu.predicted_taken ? fu.op.target : fu.op.fallthrough;
  if (fu.op.indirect) {
    const std::uint64_t pred_target = predictor_.predict_indirect(fu.op.pc);
    // Indirect jumps always redirect; a target mismatch mispredicts.
    if (pred_target != fu.op.target) {
      mispredict = true;
      wrong_target = pred_target != 0 ? pred_target : fu.op.pc + 4;
    }
  }
  if (mispredict) {
    fu.mispredicted = true;
    ++stats_.mispredicts_seen;
    ts.wrong_path_active = true;
    ts.wrong_path.reset(ts.profile, ts.seed, fu.op.pc, wrong_target);
    return true;  // redirection bubble
  }
  // A taken or indirect branch redirects fetch and ends the group.
  return fu.predicted_taken || fu.op.indirect;
}

void FetchEngine::resolve_mispredict(ThreadId tid,
                                     std::uint64_t history_checkpoint,
                                     bool actual_taken, Cycle now) {
  ThreadState& ts = threads_.at(tid);
  ts.wrong_path_active = false;
  ts.wrong_path.disarm();
  ts.queue.clear();  // only wrong-path µops are younger than the branch
  predictor_.restore_history(tid, history_checkpoint, /*apply_outcome=*/true,
                             actual_taken);
  ts.stall_until =
      std::max(ts.stall_until,
               now + static_cast<Cycle>(config_.mispredict_penalty));
}

void FetchEngine::flush_and_replay(
    ThreadId tid, std::span<const trace::MicroOp> replay_oldest_first,
    std::optional<std::uint64_t> history_checkpoint) {
  ThreadState& ts = threads_.at(tid);
  ts.wrong_path_active = false;
  ts.wrong_path.disarm();

  // Correct-path µops still sitting in the decode queue are squashed too;
  // they must be replayed after the ones already in the back-end.
  std::vector<trace::MicroOp> queued_correct;
  ts.queue.for_each([&](const FetchedUop& fu) {
    if (!fu.wrong_path) queued_correct.push_back(fu.op);
  });
  ts.queue.clear();

  // Rebuild replay front:
  // [replay_oldest_first][queued_correct][prefetch buffer][old replay]
  for (int i = ts.buf_count - 1; i >= 0; --i) {
    ts.replay.push_front(ts.buf[static_cast<std::size_t>(ts.buf_head + i)]);
  }
  ts.buf_head = 0;
  ts.buf_count = 0;
  for (auto it = queued_correct.rbegin(); it != queued_correct.rend(); ++it) {
    ts.replay.push_front(*it);
  }
  for (auto it = replay_oldest_first.rbegin();
       it != replay_oldest_first.rend(); ++it) {
    ts.replay.push_front(*it);
  }

  if (history_checkpoint) {
    predictor_.restore_history(tid, *history_checkpoint,
                               /*apply_outcome=*/false, false);
  }
}

void FetchEngine::stall_until(ThreadId tid, Cycle until) {
  ThreadState& ts = threads_.at(tid);
  ts.stall_until = std::max(ts.stall_until, until);
}

bool FetchEngine::stalled(ThreadId tid, Cycle now) const {
  return now < threads_.at(tid).stall_until;
}

bool FetchEngine::on_wrong_path(ThreadId tid) const {
  return threads_.at(tid).wrong_path_active;
}

}  // namespace clusmt::frontend
