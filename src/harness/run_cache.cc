#include "harness/run_cache.h"

#include <cstdio>

namespace clusmt::harness {

RunCache& RunCache::instance() {
  static RunCache cache;
  return cache;
}

RunResult RunCache::get_or_run(const RunKey& key,
                               const std::function<RunResult()>& compute) {
  std::promise<RunResult> promise;
  std::shared_future<RunResult> future;
  std::shared_ptr<const RunStore> store;
  bool owner = false;
  {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      it->second = promise.get_future().share();
      owner = true;
      store = store_;
    }
    future = it->second;
  }
  if (!owner) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return future.get();
  }
  // Disk tier before compute: a record persisted by an earlier process (or
  // a concurrent one — records are atomic, so a partial write is never
  // visible) satisfies the cell without simulating.
  if (store != nullptr) {
    if (std::optional<RunResult> loaded = store->load(key)) {
      disk_hits_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(*std::move(loaded));
      return future.get();
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  try {
    RunResult result = compute();
    // Best-effort spill: a full disk or read-only cache dir degrades to
    // process-local caching, it does not fail the run. After enough
    // consecutive failures the disk tier is demoted to read-only so a full
    // disk costs one warning and lost persistence, not a syscall per cell.
    if (store != nullptr &&
        !store_degraded_.load(std::memory_order_relaxed)) {
      if (store->save(key, result)) {
        consecutive_save_failures_.store(0, std::memory_order_relaxed);
      } else {
        save_failures_.fetch_add(1, std::memory_order_relaxed);
        if (!warned_save_failure_.exchange(true,
                                           std::memory_order_relaxed)) {
          std::fprintf(stderr,
                       "clusmt: warning: run-store spill to '%s' failed "
                       "(disk full or unwritable); results stay correct, "
                       "only persistence is lost\n",
                       store->dir().c_str());
        }
        const int consecutive =
            consecutive_save_failures_.fetch_add(
                1, std::memory_order_relaxed) + 1;
        if (consecutive >= kDegradeAfterSaveFailures &&
            !store_degraded_.exchange(true, std::memory_order_relaxed)) {
          std::fprintf(stderr,
                       "clusmt: warning: run store '%s' degraded to "
                       "memory-only after %d consecutive failed writes; "
                       "loads continue, new cells are not persisted\n",
                       store->dir().c_str(), consecutive);
        }
      }
    }
    promise.set_value(std::move(result));
  } catch (...) {
    // Cache the failure too: every requester of an invalid cell sees the
    // same exception instead of half of them re-running it.
    promise.set_exception(std::current_exception());
  }
  return future.get();
}

void RunCache::set_store_dir(const std::string& dir) {
  std::lock_guard lock(mutex_);
  store_ = dir.empty() ? nullptr : std::make_shared<const RunStore>(dir);
  // A new (or re-attached) directory gets a fresh chance at persistence.
  store_degraded_.store(false, std::memory_order_relaxed);
  consecutive_save_failures_.store(0, std::memory_order_relaxed);
  warned_save_failure_.store(false, std::memory_order_relaxed);
}

std::size_t RunCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void RunCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  disk_hits_.store(0, std::memory_order_relaxed);
  save_failures_.store(0, std::memory_order_relaxed);
  consecutive_save_failures_.store(0, std::memory_order_relaxed);
  store_degraded_.store(false, std::memory_order_relaxed);
  warned_save_failure_.store(false, std::memory_order_relaxed);
}

trace::WorkloadSpec baseline_workload(const trace::TraceSpec& trace) {
  trace::WorkloadSpec alone;
  alone.name = trace.id();
  alone.threads.push_back(trace);
  return alone;
}

RunKey baseline_key(const core::SimConfig& config,
                    const trace::TraceSpec& trace, Cycle cycles,
                    Cycle warmup) {
  return run_key(baseline_config(config), baseline_workload(trace), cycles,
                 warmup);
}

RunResult baseline_run(RunCache& cache, const core::SimConfig& config,
                       const trace::TraceSpec& trace, Cycle cycles,
                       Cycle warmup) {
  const core::SimConfig single = baseline_config(config);
  const trace::WorkloadSpec alone = baseline_workload(trace);
  return cache.get_or_run(
      run_key(single, alone, cycles, warmup),
      [&] { return simulate_workload(single, alone, cycles, warmup); });
}

}  // namespace clusmt::harness
