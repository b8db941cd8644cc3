// Fault-injection registry (common/faultpoint.h) units: arming/disarming,
// deterministic probabilistic firing, max_fires retirement,
// CLUSMT_FAULTS-style schedule parsing (including rejection of malformed
// entries) and fire counters. The crash mode is exercised end-to-end by
// tests/chaos_test.cc; here only its parsing is covered (firing it would
// kill the test binary).
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
  EXPECT_EQ(faultpoint::armed_count(), 0u);
  EXPECT_EQ(faultpoint::maybe_fail("test.never_armed"),
            faultpoint::Mode::kOff);
  EXPECT_FALSE(faultpoint::inject_error("test.never_armed"));
  EXPECT_EQ(faultpoint::fires("test.never_armed"), 0u);
  EXPECT_EQ(faultpoint::total_fires(), 0u);
}

TEST_F(FaultPointTest, CertainErrorFiresEveryTimeAndCounts) {
  faultpoint::arm("test.err", faultpoint::Mode::kError);
  EXPECT_EQ(faultpoint::armed_count(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(faultpoint::maybe_fail("test.err"), faultpoint::Mode::kError);
  }
  EXPECT_EQ(faultpoint::fires("test.err"), 5u);
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
  EXPECT_EQ(faultpoint::fires("test.p0"), 0u);
  EXPECT_EQ(faultpoint::fires("test.p1"), 200u);
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

TEST_F(FaultPointTest, MaxFiresRetiresThePoint) {
  faultpoint::arm("test.twice",
                  {faultpoint::Mode::kError, 1.0, 0, /*max_fires=*/2});
  EXPECT_EQ(faultpoint::maybe_fail("test.twice"), faultpoint::Mode::kError);
  EXPECT_EQ(faultpoint::maybe_fail("test.twice"), faultpoint::Mode::kError);
  EXPECT_EQ(faultpoint::maybe_fail("test.twice"), faultpoint::Mode::kOff)
      << "retired after max_fires";
  EXPECT_EQ(faultpoint::fires("test.twice"), 2u);
  EXPECT_EQ(faultpoint::armed_count(), 0u) << "retired points are not armed";
}

TEST_F(FaultPointTest, DisarmStopsFiring) {
  faultpoint::arm("test.d", faultpoint::Mode::kError);
  EXPECT_EQ(faultpoint::maybe_fail("test.d"), faultpoint::Mode::kError);
  EXPECT_TRUE(faultpoint::disarm("test.d"));
  EXPECT_EQ(faultpoint::maybe_fail("test.d"), faultpoint::Mode::kOff);
  EXPECT_FALSE(faultpoint::disarm("test.d")) << "already disarmed";
  // Re-arming with kOff is equivalent to disarming.
  faultpoint::arm("test.d", faultpoint::Mode::kError);
  faultpoint::arm("test.d", faultpoint::Mode::kOff);
  EXPECT_EQ(faultpoint::maybe_fail("test.d"), faultpoint::Mode::kOff);
}

TEST_F(FaultPointTest, ArmFromSpecParsesFullSchedules) {
  ASSERT_TRUE(faultpoint::arm_from_spec(
      "run_store.load:error:0.5:7;fsio.write:partial, "
      "run_store.save:error:1:0:3"));
  EXPECT_EQ(faultpoint::armed_count(), 3u);
  EXPECT_EQ(faultpoint::maybe_fail("fsio.write"), faultpoint::Mode::kPartial);
  // run_store.save carries max_fires=3.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(faultpoint::maybe_fail("run_store.save"),
              faultpoint::Mode::kError);
  }
  EXPECT_EQ(faultpoint::maybe_fail("run_store.save"), faultpoint::Mode::kOff);
}

TEST_F(FaultPointTest, ArmFromSpecToleratesEmptyAndRejectsMalformed) {
  EXPECT_TRUE(faultpoint::arm_from_spec(""));
  EXPECT_TRUE(faultpoint::arm_from_spec("  ,  ;  "));
  EXPECT_EQ(faultpoint::armed_count(), 0u);
  EXPECT_FALSE(faultpoint::arm_from_spec("lonely_point_no_mode"));
  EXPECT_FALSE(faultpoint::arm_from_spec("p:not_a_mode"));
  EXPECT_FALSE(faultpoint::arm_from_spec("p:error:not_a_number"));
  EXPECT_FALSE(faultpoint::arm_from_spec(":error"));
  EXPECT_FALSE(faultpoint::arm_from_spec("p:error:1:0:3:5"))
      << "a schedule has at most five fields";
  // Crash parses (its firing is covered by chaos_test).
  EXPECT_TRUE(faultpoint::arm_from_spec("p1:crash:0.0"));
  EXPECT_EQ(faultpoint::armed_count(), 1u);
}

TEST_F(FaultPointTest, ParseModeNamesEveryMode) {
  faultpoint::Mode mode;
  EXPECT_TRUE(faultpoint::parse_mode("error", mode));
  EXPECT_EQ(mode, faultpoint::Mode::kError);
  EXPECT_TRUE(faultpoint::parse_mode("partial", mode));
  EXPECT_EQ(mode, faultpoint::Mode::kPartial);
  EXPECT_TRUE(faultpoint::parse_mode("crash", mode));
  EXPECT_EQ(mode, faultpoint::Mode::kCrash);
  EXPECT_TRUE(faultpoint::parse_mode("enospc", mode));
  EXPECT_EQ(mode, faultpoint::Mode::kEnospc);
  EXPECT_TRUE(faultpoint::parse_mode("off", mode));
  EXPECT_EQ(mode, faultpoint::Mode::kOff);
  EXPECT_FALSE(faultpoint::parse_mode("delay", mode));
  EXPECT_FALSE(faultpoint::parse_mode("sigsegv", mode));
  EXPECT_FALSE(faultpoint::parse_mode("", mode));
}

}  // namespace
}  // namespace clusmt
