// Fixed-size worker pool + parallel_for used by the experiment harness to
// fan simulations out over host cores. Simulations share no mutable state,
// so the only synchronisation is the work queue itself.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace clusmt {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Enqueue a callable and get its result (or exception) as a future.
  /// This is the form the sweep engine schedules cells with: one flat
  /// queue, completion observed per cell, no intermediate barriers.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>>
  [[nodiscard]] std::future<R> submit_task(F&& fn) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    submit([task = std::move(task)] { (*task)(); });
    return future;
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  bool stop_ = false;
};

/// Runs fn(i) for i in [0, count) across `threads` workers (0 = all cores).
/// Blocks until completion. fn must be safe to call concurrently for
/// distinct indices.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace clusmt
