#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace clusmt {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

std::vector<std::future<void>> ThreadPool::submit_bulk(
    std::size_t count, std::function<void(std::size_t)> fn) {
  auto shared_fn =
      std::make_shared<std::function<void(std::size_t)>>(std::move(fn));
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < count; ++i) {
      auto task = std::make_shared<std::packaged_task<void()>>(
          [shared_fn, i] { (*shared_fn)(i); });
      futures.push_back(task->get_future());
      queue_.push([task = std::move(task)] { (*task)(); });
      ++in_flight_;
    }
  }
  cv_task_.notify_all();
  return futures;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (count == 0) return;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        fn(i);
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace clusmt
