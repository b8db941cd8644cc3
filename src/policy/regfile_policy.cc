#include "policy/regfile_policy.h"

#include <algorithm>

namespace clusmt::policy {

bool CssprfPolicy::allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                  ClusterId c, RegClass cls, int count) {
  if (view.rf_unbounded) return true;
  // Cap against the target cluster's own file: on heterogeneous grids a
  // wide cluster's half is legitimately larger than a narrow one's.
  const int limit =
      fraction_of(view.rf_capacity_of(c, cls), config_.partition_fraction);
  return view.rf_used[tid][c][static_cast<int>(cls)] + count <= limit;
}

bool CisprfPolicy::allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                  ClusterId /*c*/, RegClass cls, int count) {
  if (view.rf_unbounded) return true;
  const int limit =
      fraction_of(view.rf_capacity_total(cls), config_.partition_fraction);
  return view.rf_used_total(tid, cls) + count <= limit;
}

CdprfPolicy::CdprfPolicy(const PolicyConfig& config) : CsspPolicy(config) {
  for (auto& per_thread : state_) {
    for (auto& s : per_thread) s = PerThreadClass{};
  }
}

void CdprfPolicy::roll_interval(const PipelineView& view) {
  // Figure 8: threshold <- min(RFOC / interval, RF size / 2); RFOC <- 0.
  // The interval is a power of two so hardware divides with a shift.
  for (ThreadId t = 0; t < view.num_threads; ++t) {
    for (int k = 0; k < kNumRegClasses; ++k) {
      PerThreadClass& s = state_[t][k];
      const int half =
          fraction_of(view.rf_capacity_total(static_cast<RegClass>(k)),
                      config_.partition_fraction);
      const auto average =
          static_cast<int>(s.rfoc / std::max<Cycle>(1, config_.cdprf_interval));
      s.threshold = std::min(average, half);
      s.threshold_initialised = true;
      s.rfoc = 0;
    }
  }
}

void CdprfPolicy::begin_cycle(const PipelineView& view) {
  if (!started_) {
    started_ = true;
    interval_start_ = view.now;
    // Until the first measurement completes, guarantee each thread an equal
    // share of half the register file (behaves like CISPRF initially).
    for (ThreadId t = 0; t < view.num_threads; ++t) {
      for (int k = 0; k < kNumRegClasses; ++k) {
        state_[t][k].threshold =
            fraction_of(view.rf_capacity_total(static_cast<RegClass>(k)),
                        config_.partition_fraction);
      }
    }
  }

  // Figure 7, per cycle: starvation tracks consecutive register-starved
  // cycles; RFOC accumulates current occupancy plus the starvation counter
  // so a starved thread's threshold grows quickly next interval.
  for (ThreadId t = 0; t < view.num_threads; ++t) {
    for (int k = 0; k < kNumRegClasses; ++k) {
      PerThreadClass& s = state_[t][k];
      if (view.rf_blocked[t][k]) {
        ++s.starvation;
      } else {
        s.starvation = 0;
      }
      s.rfoc += static_cast<std::uint64_t>(
                    view.rf_used_total(t, static_cast<RegClass>(k))) +
                s.starvation;
    }
  }

  if (view.now - interval_start_ >= config_.cdprf_interval) {
    roll_interval(view);
    interval_start_ = view.now;
  }
}

Cycle CdprfPolicy::quiesce_horizon(Cycle now) const {
  if (!started_) return now;
  return interval_start_ + config_.cdprf_interval;
}

bool CdprfPolicy::allow_rf_alloc(const PipelineView& view, ThreadId tid,
                                 ClusterId /*c*/, RegClass cls, int count) {
  if (view.rf_unbounded) return true;
  const int k = static_cast<int>(cls);
  const int used = view.rf_used_total(tid, cls);

  // Within the guaranteed region: always allowed.
  if (used + count <= state_[tid][k].threshold) return true;

  // Beyond it: allowed only while every other thread can still reach its
  // own guaranteed region from the remaining free registers.
  int reserved_unused = 0;
  for (ThreadId t = 0; t < view.num_threads; ++t) {
    if (t == tid) continue;
    reserved_unused +=
        std::max(0, state_[t][k].threshold -
                        view.rf_used_total(t, static_cast<RegClass>(k)));
  }
  return view.rf_free_total(cls) - count >= reserved_unused;
}

}  // namespace clusmt::policy
