// Field-by-field SimStats equality for the differential tests: each oracle
// (skip-ahead off, the reference issue scan, the reference event heap, the
// scalar shape) must reproduce the fast path's SimStats exactly, and a
// failure names the diverging field instead of a bare mismatch.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/stats.h"

namespace clusmt::core {

inline void expect_stats_equal(const SimStats& a, const SimStats& b,
                               const std::string& label) {
  for_each_counter(
      [&](const char* name, std::uint64_t x, std::uint64_t y) {
        EXPECT_EQ(x, y) << label << ": SimStats::" << name << " diverged";
      },
      a, b);
  EXPECT_TRUE(a == b) << label
                      << ": SimStats differ in a counter for_each_counter "
                         "does not visit";
}

}  // namespace clusmt::core
