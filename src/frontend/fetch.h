// Fetch engine: per-thread program cursors, branch prediction, wrong-path
// injection, the per-thread decode queues that live inside the thread
// selection unit (paper §3), and the fetch selection policy ("always fetch
// from the thread with the lowest number of instructions in its queue").
//
// The engine also supports replaying correct-path µops after a policy-
// induced flush (Flush+): squashed correct-path µops are pushed back and
// re-delivered before new trace µops.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "frontend/branch_predictor.h"
#include "frontend/trace_cache.h"
#include "memory/tlb.h"
#include "trace/trace_source.h"
#include "trace/wrong_path.h"

namespace clusmt::frontend {

/// Fetch selection policy. The paper fixes "always fetch from the thread
/// with the lowest number of instructions in its queue" (§3) so the rename
/// selection policy is never starved of choices; round-robin is the
/// natural control for the ablate_fetch bench.
enum class FetchSelection : std::uint8_t {
  kFewestInQueue = 0,  // paper §3
  kRoundRobin,
};

struct FetchConfig {
  int fetch_width = 6;        // µops/cycle on a trace-cache hit
  int decode_queue_capacity = 24;
  int mispredict_penalty = 14;  // pipeline refill after resolution (Table 1)
  FetchSelection selection = FetchSelection::kFewestInQueue;
  BranchPredictorConfig predictor;
  TraceCacheConfig trace_cache;
};

/// A fetched µop annotated with front-end state the core needs for
/// squash/recovery and predictor training.
struct FetchedUop {
  trace::MicroOp op;
  bool wrong_path = false;
  bool mispredicted = false;           // branch that will trigger a squash
  std::uint64_t history_checkpoint = 0;  // history before this branch
  bool predicted_taken = false;
};

struct FetchStats {
  std::uint64_t fetched_uops = 0;
  std::uint64_t wrong_path_uops = 0;
  std::uint64_t fetch_cycles = 0;
  std::uint64_t tc_hit_cycles = 0;
  std::uint64_t mispredicts_seen = 0;
  std::uint64_t itlb_stalls = 0;

  bool operator==(const FetchStats&) const = default;
};

/// Fixed-capacity FIFO for the per-thread decode queue. The capacity is
/// config-bounded and small, so a flat ring beats std::deque's chunked
/// storage on the three per-µop operations (push, front, pop).
class DecodeQueue {
 public:
  void reset_capacity(int capacity) {
    buf_.assign(static_cast<std::size_t>(capacity), FetchedUop{});
    head_ = 0;
    size_ = 0;
  }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const FetchedUop& front() const { return buf_[head_]; }
  /// Appends a default-initialised entry in place and returns it — the
  /// fetch path fills it directly instead of copying a stack temporary.
  [[nodiscard]] FetchedUop& emplace_back() {
    assert(size_ < static_cast<int>(buf_.size()));
    FetchedUop& fu = buf_[static_cast<std::size_t>(wrap(head_ + size_))];
    fu = FetchedUop{};
    ++size_;
    return fu;
  }
  /// Bulk append of `count` correct-path µops (flags cleared), returning the
  /// LAST appended entry so the caller can annotate a terminating branch.
  /// Requires count >= 1 and room for all entries.
  FetchedUop& append_ops(const trace::MicroOp* ops, int count) {
    assert(count >= 1 && size_ + count <= static_cast<int>(buf_.size()));
    FetchedUop* last = nullptr;
    for (int i = 0; i < count; ++i) {
      FetchedUop& fu = buf_[static_cast<std::size_t>(wrap(head_ + size_ + i))];
      fu = FetchedUop{};
      fu.op = ops[i];
      last = &fu;
    }
    size_ += count;
    return *last;
  }
  void pop_front() {
    assert(size_ > 0);
    head_ = wrap(head_ + 1);
    --size_;
  }
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }
  /// Visits entries oldest to youngest.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (int i = 0; i < size_; ++i) {
      fn(buf_[static_cast<std::size_t>(wrap(head_ + i))]);
    }
  }

 private:
  [[nodiscard]] int wrap(int index) const noexcept {
    const int cap = static_cast<int>(buf_.size());
    return index >= cap ? index - cap : index;
  }
  std::vector<FetchedUop> buf_;
  int head_ = 0;
  int size_ = 0;
};

class FetchEngine {
 public:
  FetchEngine(const FetchConfig& config, int num_threads);

  /// Installs the correct-path source of a thread. The engine does not own
  /// the source's lifetime beyond the run; profiles must stay valid.
  void attach_thread(ThreadId tid, std::shared_ptr<trace::TraceSource> source,
                     const trace::TraceProfile* profile, std::uint64_t seed);

  /// Fetch selection policy (FetchConfig::selection): -1 when nobody can
  /// fetch. `eligible` bit i gates thread i (resource-assignment policies
  /// may veto threads, e.g. Stall/Flush+). Round-robin keeps a cursor, so
  /// selection mutates the engine.
  [[nodiscard]] ThreadId select_fetch_thread(std::uint32_t eligible_mask,
                                             Cycle now);

  /// Runs one fetch cycle for `tid`, pushing µops into its decode queue.
  void fetch_cycle(ThreadId tid, Cycle now);

  // --- Decode queue interface (consumed by rename) ---
  [[nodiscard]] int queue_size(ThreadId tid) const {
    return threads_[static_cast<std::size_t>(tid)].queue.size();
  }
  [[nodiscard]] bool queue_empty(ThreadId tid) const {
    return threads_[static_cast<std::size_t>(tid)].queue.empty();
  }
  [[nodiscard]] const FetchedUop& queue_front(ThreadId tid) const {
    return threads_[static_cast<std::size_t>(tid)].queue.front();
  }
  FetchedUop pop_front(ThreadId tid) {
    FetchedUop fu = queue_front(tid);
    drop_front(tid);
    return fu;
  }
  /// pop_front without materialising the (already consumed) front entry.
  void drop_front(ThreadId tid) {
    threads_[static_cast<std::size_t>(tid)].queue.pop_front();
  }

  // --- Recovery ---
  /// Branch misprediction resolved: drop wrong-path state, flush the decode
  /// queue (it only holds wrong-path µops), restore history and stall fetch
  /// for the refill penalty.
  void resolve_mispredict(ThreadId tid, std::uint64_t history_checkpoint,
                          bool actual_taken, Cycle now);

  /// Policy-induced flush (Flush+): clears wrong-path state and the decode
  /// queue, then requeues the squashed correct-path µops (oldest first) so
  /// they are re-delivered before new trace µops.
  void flush_and_replay(ThreadId tid,
                        std::span<const trace::MicroOp> replay_oldest_first,
                        std::optional<std::uint64_t> history_checkpoint);

  /// Blocks fetch for a thread until `until` (e.g. I-TLB walks, refill).
  void stall_until(ThreadId tid, Cycle until);
  [[nodiscard]] bool stalled(ThreadId tid, Cycle now) const;
  /// First cycle the thread may fetch again (skip-ahead horizon input).
  [[nodiscard]] Cycle stalled_until(ThreadId tid) const {
    return threads_[static_cast<std::size_t>(tid)].stall_until;
  }

  /// True while the thread is fetching down a mispredicted path.
  [[nodiscard]] bool on_wrong_path(ThreadId tid) const;

  [[nodiscard]] BranchPredictor& predictor() noexcept { return predictor_; }
  [[nodiscard]] const FetchStats& stats() const noexcept { return stats_; }

  /// Zeroes fetch/predictor/trace-cache statistics (state stays warm).
  void reset_stats() noexcept {
    stats_ = FetchStats{};
    predictor_.reset_stats();
    trace_cache_.reset_stats();
  }

 private:
  /// Correct-path µops prefetched per TraceSource::fill call: one virtual
  /// dispatch per buffer refill instead of one per µop, sized at several
  /// fetch groups.
  static constexpr int kPrefetch = 32;

  struct ThreadState {
    std::shared_ptr<trace::TraceSource> source;
    const trace::TraceProfile* profile = nullptr;
    std::uint64_t seed = 0;
    std::deque<trace::MicroOp> replay;  // refetch after flush, oldest first
    // Prefetch buffer over the source: buf[buf_head, buf_head+buf_count)
    // holds the next correct-path µops of the stream, refilled in batches.
    // Invariant: drained into `replay` on flush, so whenever `replay` is
    // non-empty the buffer is empty and replay is the stream front.
    std::array<trace::MicroOp, kPrefetch> buf;
    int buf_head = 0;
    int buf_count = 0;
    trace::WrongPathSource wrong_path;
    bool wrong_path_active = false;
    Cycle stall_until = 0;
    DecodeQueue queue;  // decode queue
  };

  /// Next correct-path µop (replay first, then the prefetch buffer).
  trace::MicroOp next_correct_uop(ThreadState& ts);
  [[nodiscard]] std::uint64_t peek_pc(ThreadState& ts);
  void refill_buffer(ThreadState& ts) {
    ts.source->fill(ts.buf.data(), kPrefetch);
    ts.buf_head = 0;
    ts.buf_count = kPrefetch;
  }

  // fetch_cycle body, split by path. A fetch group never mixes paths: a
  // mispredict ends the correct-path group (redirection bubble) and the
  // wrong path only clears outside fetch (resolve_mispredict / flush).
  void fetch_wrong_path(ThreadId tid, ThreadState& ts, int budget);
  void fetch_correct_path(ThreadId tid, ThreadState& ts, int budget);
  /// Predicts/updates for a correct-path branch already in the queue;
  /// returns true when the branch ends the fetch group.
  bool handle_correct_branch(ThreadId tid, ThreadState& ts, FetchedUop& fu);

  FetchConfig config_;
  int num_threads_;
  BranchPredictor predictor_;
  TraceCache trace_cache_;
  memory::Tlb itlb_;
  std::vector<ThreadState> threads_;
  FetchStats stats_;
  ThreadId rr_cursor_ = 0;  // next round-robin candidate
};

}  // namespace clusmt::frontend
