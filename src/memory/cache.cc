#include "memory/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace clusmt::memory {

SetAssocCache::SetAssocCache(std::uint64_t size_bytes, int assoc,
                             int line_bytes)
    : assoc_(assoc) {
  if (assoc < 1) throw std::invalid_argument("cache associativity < 1");
  if (!std::has_single_bit(size_bytes) ||
      !std::has_single_bit(static_cast<std::uint64_t>(line_bytes))) {
    throw std::invalid_argument("cache size/line must be powers of two");
  }
  const std::uint64_t lines = size_bytes / static_cast<std::uint64_t>(line_bytes);
  if (lines % static_cast<std::uint64_t>(assoc) != 0) {
    throw std::invalid_argument("cache size not divisible by assoc*line");
  }
  num_sets_ = lines / static_cast<std::uint64_t>(assoc);
  line_shift_ = std::countr_zero(static_cast<std::uint64_t>(line_bytes));
  tags_.resize(lines);
  rank_.resize(lines);
  mru_way_.resize(num_sets_);
}

std::uint64_t SetAssocCache::set_of(std::uint64_t addr) const noexcept {
  return (addr >> line_shift_) & (num_sets_ - 1);
}

std::uint64_t SetAssocCache::tag_of(std::uint64_t addr) const noexcept {
  return addr >> line_shift_;
}

namespace {
constexpr std::uint64_t kValid = 1;
constexpr std::uint64_t kDirty = 2;
constexpr int kTagShift = 2;
}  // namespace

bool SetAssocCache::access(std::uint64_t addr, bool is_write) {
  ++stats_.accesses;
  const std::uint64_t tag = tag_of(addr);
  const std::uint64_t set = set_of(addr);
  const std::uint64_t base = set * static_cast<std::uint64_t>(assoc_);
  std::uint64_t* tags = &tags_[base];
  std::uint8_t* rank = &rank_[base];

  // MRU front check: a repeat hit on the most recently touched way is
  // already at the top rank, so the promotion sweep below would be a
  // no-op — answer with one compare and no rank traffic.
  const int mru = mru_way_[set];
  if ((tags[mru] & kValid) && (tags[mru] >> kTagShift) == tag) {
    if (is_write) tags[mru] |= kDirty;
    ++stats_.hits;
    return true;
  }

  // Promotes `w` to MRU: every way more recent than it steps down one
  // rank. This keeps the set's valid ways in exactly the recency order a
  // per-line clock stamp would, so victim choice below is unchanged.
  const auto touch = [&](int w) {
    const std::uint8_t r = rank[w];
    for (int v = 0; v < assoc_; ++v) {
      if (rank[v] > r) --rank[v];
    }
    rank[w] = static_cast<std::uint8_t>(assoc_ - 1);
    mru_way_[set] = static_cast<std::uint8_t>(w);
  };

  // Victim: the last invalid way of the scan if any, else the valid way
  // with the lowest rank (the set's LRU line) — the same choice the
  // clock-stamp scan made.
  int victim = 0;
  for (int w = 0; w < assoc_; ++w) {
    const std::uint64_t t = tags[w];
    if ((t & kValid) && (t >> kTagShift) == tag) {
      touch(w);
      if (is_write) tags[w] |= kDirty;
      ++stats_.hits;
      return true;
    }
    if (!(t & kValid)) {
      victim = w;
    } else if ((tags[victim] & kValid) && rank[w] < rank[victim]) {
      victim = w;
    }
  }

  if (tags[victim] & kValid) {
    ++stats_.evictions;
    if (tags[victim] & kDirty) ++stats_.dirty_evictions;
  }
  tags[victim] = (tag << kTagShift) | kValid |
                 (is_write ? kDirty : std::uint64_t{0});
  touch(victim);
  return false;
}

bool SetAssocCache::probe(std::uint64_t addr) const {
  const std::uint64_t tag = tag_of(addr);
  const std::uint64_t base = set_of(addr) * static_cast<std::uint64_t>(assoc_);
  for (int w = 0; w < assoc_; ++w) {
    const std::uint64_t t = tags_[base + static_cast<std::uint64_t>(w)];
    if ((t & kValid) && (t >> kTagShift) == tag) return true;
  }
  return false;
}

void SetAssocCache::flush() {
  std::fill(tags_.begin(), tags_.end(), 0);
  std::fill(rank_.begin(), rank_.end(), std::uint8_t{0});
  std::fill(mru_way_.begin(), mru_way_.end(), std::uint8_t{0});
}

}  // namespace clusmt::memory
