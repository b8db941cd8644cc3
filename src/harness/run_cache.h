// Process-wide, thread-safe memoisation of simulation runs, keyed by the
// RunKey content hash. Identical cells — repeated grid points, shared
// fairness baselines — are simulated exactly once per process no matter how
// many sweeps request them; concurrent requesters of an
// in-flight cell block on its future instead of recomputing.
//
// Attaching a RunStore (set_store_dir) adds a disk tier: a memory miss
// first tries to load the cell's persisted record, and freshly computed
// cells are spilled back, so identical cells are simulated at most once
// across *processes* sharing the cache directory, or across hosts whose
// directories are later unioned with merge_run_store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "harness/run_key.h"
#include "harness/run_store.h"
#include "harness/runner.h"

namespace clusmt::harness {

class RunCache {
 public:
  RunCache() = default;
  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// The process-wide instance every sweep shares by default.
  [[nodiscard]] static RunCache& instance();

  /// Returns the result for `key`, invoking `compute` at most once per key
  /// process-wide. The first requester loads the cell from the attached
  /// store (if any) or computes inline (on its own thread — never by
  /// re-entering a pool queue, so cells may resolve dependencies through
  /// the cache without deadlock), spilling a fresh compute back to the
  /// store; later requesters count a hit and wait. A throwing `compute`
  /// propagates to every waiter.
  [[nodiscard]] RunResult get_or_run(
      const RunKey& key, const std::function<RunResult()>& compute);

  /// Attaches (or, with an empty dir, detaches) the disk tier. Safe to call
  /// concurrently with get_or_run; in-flight owners keep the store they
  /// started with. Re-attaching also clears a write degradation (below).
  void set_store_dir(const std::string& dir);

  /// True once the disk tier has been demoted to read-only: after
  /// kDegradeAfterSaveFailures *consecutive* failed spills (full disk,
  /// revoked permissions) the cache stops attempting writes, warns once on
  /// stderr, and keeps serving loads + memory-tier caching — a full disk
  /// costs persistence, never the sweep. Cleared by set_store_dir.
  [[nodiscard]] bool store_write_degraded() const noexcept {
    return store_degraded_.load(std::memory_order_relaxed);
  }

  /// Failed spill attempts observed (for tests and progress reporting).
  [[nodiscard]] std::uint64_t save_failures() const noexcept {
    return save_failures_.load(std::memory_order_relaxed);
  }

  static constexpr int kDegradeAfterSaveFailures = 3;

  /// Requests served from a finished or in-flight in-memory entry.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Requests that invoked `compute` (actual simulations).
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Requests served by loading a persisted record instead of computing.
  [[nodiscard]] std::uint64_t disk_hits() const noexcept {
    return disk_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;

  /// Drops every finished in-memory entry and resets counters (the disk
  /// tier is untouched). Must not race with in-flight get_or_run calls
  /// (intended for tests).
  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<RunKey, std::shared_future<RunResult>> entries_;
  std::shared_ptr<const RunStore> store_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> save_failures_{0};
  std::atomic<int> consecutive_save_failures_{0};
  std::atomic<bool> store_degraded_{false};
  std::atomic<bool> warned_save_failure_{false};
};

/// The single-thread workload a fairness baseline of `trace` runs as. The
/// ONE place baseline workloads are shaped — baseline_key, baseline_run
/// and the end-to-end benchmark's baseline cells all build it here, so
/// their keys agree by construction.
[[nodiscard]] trace::WorkloadSpec baseline_workload(
    const trace::TraceSpec& trace);

/// Key of the single-thread fairness-baseline cell of `trace` on
/// baseline_config(config). The ONE place baseline cells are keyed —
/// run_sweep's baseline prefetch and its per-cell fairness lookup both go
/// through this pair, so their cache entries are shared by construction.
[[nodiscard]] RunKey baseline_key(const core::SimConfig& config,
                                  const trace::TraceSpec& trace, Cycle cycles,
                                  Cycle warmup);

/// Fetches (or runs exactly once) that baseline cell through `cache`.
[[nodiscard]] RunResult baseline_run(RunCache& cache,
                                     const core::SimConfig& config,
                                     const trace::TraceSpec& trace,
                                     Cycle cycles, Cycle warmup);

}  // namespace clusmt::harness
