// Translation lookaside buffer: a set-associative cache of 4 KB page
// translations. Misses charge a fixed page-walk latency.
#pragma once

#include <cstdint>

#include "memory/cache.h"

namespace clusmt::memory {

class Tlb {
 public:
  /// `entries` and `assoc` as in Table 1 (1024-entry, 8-way).
  Tlb(int entries, int assoc, int walk_latency,
      int page_bytes = 4096);

  /// Translates; returns the added latency (0 on hit, walk latency on miss).
  [[nodiscard]] int access(std::uint64_t vaddr);

  [[nodiscard]] const CacheStats& stats() const noexcept {
    return cache_.stats();
  }
  void reset_stats() noexcept { cache_.reset_stats(); }

 private:
  SetAssocCache cache_;
  int walk_latency_;
};

}  // namespace clusmt::memory
