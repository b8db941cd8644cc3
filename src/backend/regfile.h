// Physical register file of one (cluster, register class) pair: free list,
// readiness scoreboard, and per-thread occupancy accounting (the input to
// the paper's register-file assignment schemes and the RFOC counters of
// CDPRF).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace clusmt::backend {

struct RegFileStats {
  std::uint64_t allocations = 0;
  std::uint64_t alloc_failures = 0;  // empty free list at request time
};

class RegisterFile {
 public:
  /// capacity == 0 selects the "unbounded" mode used by the paper's Figure
  /// 2 study (a pool large enough to never exhaust).
  explicit RegisterFile(int capacity);

  /// Allocates a register for `owner`; returns its index or -1 when the
  /// free list is empty. Fresh registers start not-ready.
  int allocate(ThreadId owner);

  /// Returns a register to the free list; returns the thread that owned it
  /// (so callers maintaining per-thread occupancy views stay O(1)).
  ThreadId release(std::int16_t index);

  [[nodiscard]] bool ready(std::int16_t index) const {
    return ready_[index] != 0;
  }
  void set_ready(std::int16_t index) { ready_[index] = 1; }

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool unbounded() const noexcept { return unbounded_; }
  [[nodiscard]] int free_count() const noexcept {
    return static_cast<int>(free_.size());
  }
  [[nodiscard]] int used_by(ThreadId tid) const { return used_by_[tid]; }
  [[nodiscard]] const RegFileStats& stats() const noexcept { return stats_; }

 private:
  int capacity_;
  bool unbounded_;
  std::vector<std::int16_t> free_;
  std::vector<std::uint8_t> ready_;
  std::vector<ThreadId> owner_;
  int used_by_[kMaxThreads] = {};
  RegFileStats stats_;
};

}  // namespace clusmt::backend
