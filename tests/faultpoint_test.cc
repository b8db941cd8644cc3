// Fault-injection registry (common/faultpoint.h) units: arming and
// disarming, deterministic probabilistic firing and the fire counter. The
// crash mode is exercised end-to-end by tests/chaos_test.cc (firing it here
// would kill the test binary).
#include <gtest/gtest.h>

#include <string>

#include "common/faultpoint.h"

namespace clusmt {
namespace {

class FaultPointTest : public ::testing::Test {
 protected:
  void SetUp() override { faultpoint::disarm_all(); }
  void TearDown() override { faultpoint::disarm_all(); }
};

TEST_F(FaultPointTest, UnarmedPointsAreInert) {
  EXPECT_EQ(faultpoint::maybe_fail("test.never_armed"),
            faultpoint::Mode::kOff);
  EXPECT_FALSE(faultpoint::inject_error("test.never_armed"));
  EXPECT_EQ(faultpoint::total_fires(), 0u);
}

TEST_F(FaultPointTest, CertainErrorFiresEveryTimeAndCounts) {
  faultpoint::arm("test.err", faultpoint::Mode::kError);
  EXPECT_EQ(faultpoint::total_fires(), 0u) << "arming is not firing";
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(faultpoint::maybe_fail("test.err"), faultpoint::Mode::kError);
  }
  EXPECT_EQ(faultpoint::total_fires(), 5u);
  // Other points remain inert while one is armed.
  EXPECT_EQ(faultpoint::maybe_fail("test.other"), faultpoint::Mode::kOff);
}

TEST_F(FaultPointTest, InjectErrorCoversAllErrorLikeModes) {
  for (const faultpoint::Mode mode :
       {faultpoint::Mode::kError, faultpoint::Mode::kPartial,
        faultpoint::Mode::kEnospc}) {
    faultpoint::disarm_all();
    faultpoint::arm("test.like_err", mode);
    EXPECT_TRUE(faultpoint::inject_error("test.like_err"))
        << static_cast<int>(mode);
  }
}

TEST_F(FaultPointTest, ProbabilityZeroNeverFiresProbabilityOneAlwaysDoes) {
  faultpoint::arm("test.p0", faultpoint::Mode::kError, 0.0);
  faultpoint::arm("test.p1", faultpoint::Mode::kError, 1.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(faultpoint::maybe_fail("test.p0"), faultpoint::Mode::kOff);
    EXPECT_EQ(faultpoint::maybe_fail("test.p1"), faultpoint::Mode::kError);
  }
  EXPECT_EQ(faultpoint::total_fires(), 200u) << "only test.p1 fired";
}

TEST_F(FaultPointTest, FractionalProbabilityFiresSometimesDeterministically) {
  const auto run_schedule = [] {
    faultpoint::disarm_all();
    faultpoint::arm("test.half", faultpoint::Mode::kError, 0.5, /*seed=*/42);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += faultpoint::maybe_fail("test.half") ==
                         faultpoint::Mode::kError
                     ? '1'
                     : '0';
    }
    return pattern;
  };
  const std::string first = run_schedule();
  EXPECT_NE(first.find('1'), std::string::npos) << first;
  EXPECT_NE(first.find('0'), std::string::npos) << first;
  // Same (point, seed) → same stream: re-arming replays the pattern.
  EXPECT_EQ(first, run_schedule());
}

TEST_F(FaultPointTest, DisarmStopsFiring) {
  faultpoint::arm("test.d", faultpoint::Mode::kError);
  EXPECT_EQ(faultpoint::maybe_fail("test.d"), faultpoint::Mode::kError);
  faultpoint::disarm_all();
  EXPECT_EQ(faultpoint::maybe_fail("test.d"), faultpoint::Mode::kOff);
  EXPECT_EQ(faultpoint::total_fires(), 0u) << "disarm_all clears counters";
  // Re-arming with kOff is equivalent to disarming.
  faultpoint::arm("test.d", faultpoint::Mode::kError);
  faultpoint::arm("test.d", faultpoint::Mode::kOff);
  EXPECT_EQ(faultpoint::maybe_fail("test.d"), faultpoint::Mode::kOff);
}

}  // namespace
}  // namespace clusmt
