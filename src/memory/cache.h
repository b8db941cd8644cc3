// Generic set-associative, write-back, write-allocate cache model with true
// LRU replacement. Purely a timing/presence model: no data is stored.
#pragma once

#include <cstdint>
#include <vector>

namespace clusmt::memory {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  [[nodiscard]] std::uint64_t misses() const noexcept {
    return accesses - hits;
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

class SetAssocCache {
 public:
  /// size_bytes and line_bytes must be powers of two; assoc >= 1.
  SetAssocCache(std::uint64_t size_bytes, int assoc, int line_bytes);

  /// Looks up `addr`; on miss, allocates the line (evicting LRU).
  /// Returns true on hit. `is_write` marks the line dirty.
  bool access(std::uint64_t addr, bool is_write);

  /// Lookup without allocation or LRU update (for tests/invariants).
  [[nodiscard]] bool probe(std::uint64_t addr) const;

  /// Invalidates the whole cache (keeps statistics).
  void flush();

  /// Zeroes the statistics (keeps contents — used after warmup phases).
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }

 private:
  [[nodiscard]] std::uint64_t set_of(std::uint64_t addr) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const noexcept;

  int assoc_;
  std::uint64_t num_sets_;
  int line_shift_;
  // Line metadata, structure-of-arrays by set (num_sets_ * assoc_). The
  // valid and dirty bits live in the low bits of the tag word (tags are
  // line addresses, so the bottom bits are free after shifting up) and
  // recency is a per-set permutation of 1-byte ranks (assoc-1 = MRU,
  // 0 = LRU) instead of a 64-bit global-clock stamp per line: one probe
  // touches one tag row plus one rank row, and a 4 MB simulated L2 carries
  // ~0.5 MB of metadata instead of ~1.1 MB — the host cache footprint of
  // the model is part of the simulator's own hot loop. Rank promotion
  // preserves exactly the recency order the clock stamps encoded, so hit/
  // miss/eviction sequences are unchanged.
  std::vector<std::uint64_t> tags_;  // (tag << 2) | dirty << 1 | valid
  std::vector<std::uint8_t> rank_;   // per-set LRU ranks
  // Way most recently touched in each set. Temporal locality makes
  // back-to-back accesses to the same line the dominant pattern, so
  // access() checks this way first: a hit there is already at max rank and
  // needs no promotion sweep — one tag compare, zero rank writes. Purely a
  // cached derivative of rank_ (the way holding rank assoc-1), so hit/miss
  // and eviction sequences are bit-identical with the scan path.
  std::vector<std::uint8_t> mru_way_;
  CacheStats stats_;
};

}  // namespace clusmt::memory
