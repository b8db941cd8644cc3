// Memory Order Buffer: the shared load/store queue of the paper's machine
// (Table 1: MOB 128). Tracks program order per thread, blocks loads behind
// older same-thread stores with unresolved addresses, and forwards data
// from a matching older store without a cache access.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"

namespace clusmt::memory {

/// Outcome of the disambiguation check for a load about to issue.
enum class LoadCheck : std::uint8_t {
  kWait,     // an older store's address is unknown: must retry later
  kForward,  // an older store to the same 8-byte word supplies the data
  kAccess,   // safe to access the data cache
};

struct MobStats {
  std::uint64_t allocations = 0;
  std::uint64_t full_stalls = 0;
  std::uint64_t forwards = 0;
  std::uint64_t waits = 0;
  std::uint64_t cache_accesses = 0;

  bool operator==(const MobStats&) const = default;
};

class MemOrderBuffer {
 public:
  explicit MemOrderBuffer(int capacity);

  /// Allocates an entry in thread program order. Returns slot or -1 when
  /// full (renaming must stall).
  int allocate(ThreadId tid, std::uint64_t seq, bool is_store);

  /// Records the effective address once the AGU has produced it.
  void set_address(int slot, std::uint64_t addr);

  /// Disambiguates the load occupying `slot` against older same-thread
  /// stores. Updates forwarding statistics.
  [[nodiscard]] LoadCheck check_load(int slot);

  /// Frees an entry (commit or squash).
  void release(int slot);

  [[nodiscard]] int occupancy() const noexcept { return occupancy_; }
  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool full() const noexcept { return occupancy_ == capacity_; }
  [[nodiscard]] const MobStats& stats() const noexcept { return stats_; }
  void note_full_stall() noexcept { ++stats_.full_stalls; }
  /// Bulk form for quiescent-cycle skip-ahead: the skipped cycles would
  /// each have recorded the same number of MOB-full rename stalls.
  void note_full_stalls(std::uint64_t n) noexcept { stats_.full_stalls += n; }
  /// Bulk-credits `n` load-wait checks, as if check_load had returned
  /// kWait `n` times (quiescent skip-ahead replicating blocked retries).
  void note_waits(std::uint64_t n) noexcept { stats_.waits += n; }
  void reset_stats() noexcept { stats_ = MobStats{}; }

  /// Occupied entries of a thread, oldest first (for tests/inspection).
  [[nodiscard]] std::vector<int> thread_slots(ThreadId tid) const;

 private:
  struct Entry {
    ThreadId tid = -1;
    std::uint64_t seq = 0;
    std::uint64_t addr = 0;
    bool is_store = false;
    bool addr_known = false;
    bool in_use = false;
  };

  std::vector<Entry> entries_;
  std::vector<int> free_slots_;
  std::deque<int> order_[kMaxThreads];  // per-thread slots, oldest first
  // Per-thread *store* slots only, oldest first. Disambiguation only ever
  // inspects stores, so check_load binary-searches its program-order
  // position here and walks stores alone instead of rescanning the whole
  // thread order (loads included) on every probe and retry.
  std::deque<int> store_order_[kMaxThreads];
  int capacity_;
  int occupancy_ = 0;
  MobStats stats_;
};

}  // namespace clusmt::memory
