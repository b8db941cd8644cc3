// Field-by-field SimStats equality for the differential tests: each oracle
// (skip-ahead off, the reference issue scan, the reference event heap, the
// scalar shape) must reproduce the fast path's SimStats exactly, and a
// failure names the first diverging field instead of a bare mismatch.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/stats.h"

namespace clusmt::core {

inline void expect_stats_equal(const SimStats& a, const SimStats& b,
                               const std::string& label) {
#define CLUSMT_EXPECT_FIELD(field) \
  EXPECT_EQ(a.field, b.field) << label << ": SimStats::" #field " diverged"
  CLUSMT_EXPECT_FIELD(cycles);
  for (int t = 0; t < kMaxThreads; ++t) CLUSMT_EXPECT_FIELD(committed[t]);
  CLUSMT_EXPECT_FIELD(committed_copies);
  CLUSMT_EXPECT_FIELD(committed_branches);
  CLUSMT_EXPECT_FIELD(committed_loads);
  CLUSMT_EXPECT_FIELD(committed_stores);
  CLUSMT_EXPECT_FIELD(renamed_uops);
  CLUSMT_EXPECT_FIELD(copies_created);
  CLUSMT_EXPECT_FIELD(rename_cycles);
  CLUSMT_EXPECT_FIELD(rename_blocked_cycles);
  CLUSMT_EXPECT_FIELD(rename_block_iq);
  CLUSMT_EXPECT_FIELD(rename_block_rf);
  CLUSMT_EXPECT_FIELD(rename_block_rob);
  CLUSMT_EXPECT_FIELD(rename_block_mob);
  CLUSMT_EXPECT_FIELD(iq_pref_stall_events);
  CLUSMT_EXPECT_FIELD(non_preferred_dispatches);
  CLUSMT_EXPECT_FIELD(issued_uops);
  CLUSMT_EXPECT_FIELD(cycles_with_issue);
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < trace::kNumPortClasses; ++k) {
      CLUSMT_EXPECT_FIELD(imbalance_events[i][k]);
    }
  }
  CLUSMT_EXPECT_FIELD(squashed_uops);
  CLUSMT_EXPECT_FIELD(branches_resolved);
  CLUSMT_EXPECT_FIELD(mispredicts_resolved);
  CLUSMT_EXPECT_FIELD(policy_flushes);
  CLUSMT_EXPECT_FIELD(load_l2_misses);
  CLUSMT_EXPECT_FIELD(store_l2_misses);
  CLUSMT_EXPECT_FIELD(load_forwards);
#undef CLUSMT_EXPECT_FIELD
}

}  // namespace clusmt::core
