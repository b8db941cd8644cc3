// Unit tests for the future-work adaptations of policy/adaptive.h:
// Flush++ mode switching, DCRA classification and caps, hill-climbing
// trial mechanics, and the unready-count front-end gate.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/simulator.h"
#include "harness/presets.h"
#include "policy/adaptive.h"
#include "trace/workload.h"

namespace clusmt::policy {
namespace {

/// Baseline view: 2 threads, 2 clusters, 32-entry IQs, 64+64 registers.
PipelineView make_view(int threads = 2) {
  PipelineView v;
  v.num_threads = threads;
  v.num_clusters = 2;
  for (int c = 0; c < 2; ++c) {
    v.iq_capacity_c[c] = 32;
    for (int k = 0; k < kNumRegClasses; ++k) {
      v.rf_capacity_c[c][k] = 64;
      v.rf_free[c][k] = 64;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Flush++
// ---------------------------------------------------------------------------

TEST(FlushPlusPlus, StallModeWithTwoThreadsNeverFlushes) {
  FlushPlusPlusPolicy policy;
  PipelineView v = make_view(2);
  policy.begin_cycle(v);
  EXPECT_TRUE(policy.stall_mode());

  policy.on_l2_miss(0, /*load_seq=*/10, /*now=*/100);
  EXPECT_FALSE(policy.flush_request(101).has_value());
  // The missing thread is still fetch-gated (Stall semantics)...
  v.l2_pending[0] = true;
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b10u);
  // ...but keeps renaming its already-fetched µops.
  EXPECT_EQ(policy.rename_eligible(v, 0b11), 0b11u);
}

TEST(FlushPlusPlus, FlushModeWithFourThreads) {
  FlushPlusPlusPolicy policy;
  PipelineView v = make_view(4);
  policy.begin_cycle(v);
  EXPECT_FALSE(policy.stall_mode());

  policy.on_l2_miss(2, /*load_seq=*/42, /*now=*/7);
  const auto request = policy.flush_request(8);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->tid, 2);
  EXPECT_EQ(request->after_seq, 42u);

  // Squash performed: the thread is gated for rename too.
  policy.on_flush_done(2);
  EXPECT_EQ(policy.rename_eligible(v, 0b1111), 0b1011u);

  policy.on_l2_resolved(2, 42, 50);
  EXPECT_EQ(policy.rename_eligible(v, 0b1111), 0b1111u);
}

TEST(FlushPlusPlus, EarliestMisserExemptFromGatingInFlushMode) {
  FlushPlusPlusPolicy policy;
  PipelineView v = make_view(3);
  policy.begin_cycle(v);

  // A solo misser is flushed right away (Flush semantics).
  policy.on_l2_miss(1, 5, /*now=*/10);
  auto request = policy.flush_request(11);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->tid, 1);
  policy.on_flush_done(1);

  // A second misser arrives: it is flushed too, but the earliest misser
  // (thread 1) is now exempt from fetch gating and may continue.
  policy.on_l2_miss(0, 9, /*now=*/20);
  request = policy.flush_request(21);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->tid, 0);
  policy.on_flush_done(0);
  EXPECT_FALSE(policy.flush_request(22).has_value());
  EXPECT_EQ(policy.fetch_eligible(v, 0b111), 0b110u);
}

TEST(FlushPlusPlus, ModeFollowsThreadCount) {
  FlushPlusPlusPolicy policy;
  policy.begin_cycle(make_view(2));
  EXPECT_TRUE(policy.stall_mode());
  policy.begin_cycle(make_view(3));
  EXPECT_FALSE(policy.stall_mode());
  policy.begin_cycle(make_view(2));
  EXPECT_TRUE(policy.stall_mode());
}

// ---------------------------------------------------------------------------
// DCRA
// ---------------------------------------------------------------------------

TEST(Dcra, InactiveAloneGetsWholeResource) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  // Only thread 0 is active.
  v.decode_queue_depth[0] = 3;
  EXPECT_EQ(policy.cap_of(v, 0, 32), 32);
}

TEST(Dcra, TwoFastThreadsKeepFloorsForEachOther) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.decode_queue_depth[0] = 3;
  v.rob_occ[1] = 5;
  // Even share 16, fast floor 8: each may grow to 32 - 8 = 24.
  EXPECT_EQ(policy.cap_of(v, 0, 32), 24);
  EXPECT_EQ(policy.cap_of(v, 1, 32), 24);
}

TEST(Dcra, SlowThreadCappedAtFloorFastAbsorbsRemainder) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.decode_queue_depth[0] = 3;
  v.rob_occ[1] = 5;
  v.l2_pending[1] = true;  // thread 1 slow
  // Slow floor = 16 * 0.5 = 8; fast cap = 32 - 8 = 24.
  EXPECT_EQ(policy.cap_of(v, 1, 32), 8);
  EXPECT_EQ(policy.cap_of(v, 0, 32), 24);
}

TEST(Dcra, SlowShareKnobScalesTheSlowFloor) {
  PolicyConfig config;
  config.dcra_slow_share = 0.25;
  DcraPolicy policy{config};
  PipelineView v = make_view(2);
  v.decode_queue_depth[0] = 1;
  v.decode_queue_depth[1] = 1;
  v.l2_pending[1] = true;
  EXPECT_EQ(policy.cap_of(v, 1, 32), 4);   // 16 * 0.25
  EXPECT_EQ(policy.cap_of(v, 0, 32), 28);  // 32 - 4
}

TEST(Dcra, FourActiveThreadsShareWithFloors) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(4);
  for (int t = 0; t < 4; ++t) v.decode_queue_depth[t] = 1;
  // Even share 8, fast floor 4: cap = 32 - 3*4 = 20.
  EXPECT_EQ(policy.cap_of(v, 0, 32), 20);
  v.l2_pending[3] = true;
  EXPECT_EQ(policy.cap_of(v, 3, 32), 4);   // slow: capped at floor
  EXPECT_EQ(policy.cap_of(v, 0, 32), 20);  // 32 - 4 - 4 - 4
}

TEST(Dcra, IqCapIsPerCluster) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.decode_queue_depth[0] = 1;
  v.decode_queue_depth[1] = 1;
  v.l2_pending[0] = true;  // thread 0 slow: per-cluster cap 8
  v.iq_occ_tc[0][0] = 8;
  v.iq_occ_tc[0][1] = 0;
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));  // cluster 0 full
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 1, 1, 1));   // cluster 1 open
}

TEST(Dcra, RfCapIsTotalAcrossClusters) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.decode_queue_depth[0] = 1;
  v.decode_queue_depth[1] = 1;
  v.l2_pending[0] = true;  // thread 0 slow: total cap = 128 * 0.25 = 32
  v.rf_used[0][0][0] = 20;
  v.rf_used[0][1][0] = 12;  // 32 total in class kInt
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 1));
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 1, RegClass::kInt, 1));
  // The FP file is untouched; its own cap applies independently.
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 0, RegClass::kFp, 1));
}

TEST(Dcra, UnboundedRfNeverLimits) {
  DcraPolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.rf_unbounded = true;
  v.decode_queue_depth[0] = 1;
  v.decode_queue_depth[1] = 1;
  v.l2_pending[0] = true;
  v.rf_used[0][0][0] = 1000;
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 64));
}

// ---------------------------------------------------------------------------
// HillClimb
// ---------------------------------------------------------------------------

/// Advances `policy` through one epoch of `epoch` cycles, reporting
/// `committed` additional µops per thread at the boundary.
void run_epoch(HillClimbPolicy& policy, PipelineView& v, Cycle epoch,
               std::uint64_t committed0, std::uint64_t committed1) {
  v.now += epoch;
  v.committed[0] += committed0;
  v.committed[1] += committed1;
  policy.begin_cycle(v);
}

TEST(HillClimb, StartsWithEvenShares) {
  PolicyConfig config;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  policy.begin_cycle(v);
  EXPECT_DOUBLE_EQ(policy.share(0), 0.5);
  EXPECT_DOUBLE_EQ(policy.share(1), 0.5);
  EXPECT_DOUBLE_EQ(policy.trial_share(0), 0.5);
}

TEST(HillClimb, TrialsProbeUpAndDownThenAdoptBest) {
  PolicyConfig config;
  config.hillclimb_epoch = 100;
  config.hillclimb_delta = 0.125;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  v.now = 1;
  policy.begin_cycle(v);  // arms epoch 0 (base trial)

  run_epoch(policy, v, 100, 500, 500);  // base scores 1000
  EXPECT_DOUBLE_EQ(policy.trial_share(0), 0.625);  // up-trial armed

  run_epoch(policy, v, 100, 900, 400);  // up scores 1300 (best)
  EXPECT_DOUBLE_EQ(policy.trial_share(0), 0.375);  // down-trial armed

  run_epoch(policy, v, 100, 300, 500);  // down scores 800
  EXPECT_EQ(policy.rounds_completed(), 1u);
  // The up-trial won: thread 0's incumbent share moved up by delta.
  EXPECT_DOUBLE_EQ(policy.share(0), 0.625);
  EXPECT_DOUBLE_EQ(policy.share(1), 0.375);
  EXPECT_NEAR(policy.share(0) + policy.share(1), 1.0, 1e-12);
}

TEST(HillClimb, KeepsBaseWhenPerturbationsLose) {
  PolicyConfig config;
  config.hillclimb_epoch = 100;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  v.now = 1;
  policy.begin_cycle(v);

  run_epoch(policy, v, 100, 800, 800);  // base 1600
  run_epoch(policy, v, 100, 500, 500);  // up 1000
  run_epoch(policy, v, 100, 400, 400);  // down 800
  EXPECT_EQ(policy.rounds_completed(), 1u);
  EXPECT_DOUBLE_EQ(policy.share(0), 0.5);
  EXPECT_DOUBLE_EQ(policy.share(1), 0.5);
}

TEST(HillClimb, SharesRespectFloorUnderRepeatedWins) {
  PolicyConfig config;
  config.hillclimb_epoch = 100;
  config.hillclimb_delta = 0.25;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  v.now = 1;
  policy.begin_cycle(v);

  // Thread 0's up-trial always wins; shares must stop at the floor.
  for (int round = 0; round < 6; ++round) {
    run_epoch(policy, v, 100, 100, 100);          // base
    run_epoch(policy, v, 100, 10000, 100);        // up wins...
    run_epoch(policy, v, 100, 50, 50);            // ...down loses
  }
  const double floor = HillClimbPolicy::share_floor(2);
  EXPECT_GE(policy.share(0), floor - 1e-12);
  EXPECT_GE(policy.share(1), floor - 1e-12);
  EXPECT_NEAR(policy.share(0) + policy.share(1), 1.0, 1e-12);
}

TEST(HillClimb, StatsResetRearmsEpochWithoutAdopting) {
  PolicyConfig config;
  config.hillclimb_epoch = 100;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  v.now = 1;
  v.committed[0] = 5000;
  v.committed[1] = 5000;
  policy.begin_cycle(v);

  // A reset_stats() makes committed run backwards across the boundary.
  v.now += 100;
  v.committed[0] = 10;
  v.committed[1] = 10;
  policy.begin_cycle(v);
  EXPECT_EQ(policy.rounds_completed(), 0u);
  EXPECT_DOUBLE_EQ(policy.trial_share(0), 0.5);  // still the base trial
}

TEST(HillClimb, CapsFollowTrialShares) {
  PolicyConfig config;
  config.hillclimb_epoch = 100;
  config.hillclimb_delta = 0.25;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  v.now = 1;
  policy.begin_cycle(v);
  // Base trial: share 0.5 of a 32-entry IQ = 16 per cluster.
  v.iq_occ_tc[0][0] = 16;
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
  v.iq_occ_tc[0][0] = 15;
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
  // RF total: 0.5 of 128 = 64.
  v.rf_used[0][0][0] = 32;
  v.rf_used[0][1][0] = 32;
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 1));
}

TEST(HillClimb, RotatesPerturbedThreadAcrossRounds) {
  PolicyConfig config;
  config.hillclimb_epoch = 100;
  config.hillclimb_delta = 0.125;
  HillClimbPolicy policy{config};
  PipelineView v = make_view(2);
  v.now = 1;
  policy.begin_cycle(v);

  // Round 0 perturbs thread 0; all trials score equally (base adopted).
  run_epoch(policy, v, 100, 100, 100);
  run_epoch(policy, v, 100, 100, 100);
  run_epoch(policy, v, 100, 100, 100);
  EXPECT_EQ(policy.rounds_completed(), 1u);
  // Round 1 perturbs thread 1: its up-trial raises share(1).
  run_epoch(policy, v, 100, 100, 100);  // base
  EXPECT_DOUBLE_EQ(policy.trial_share(1), 0.625);
}

// ---------------------------------------------------------------------------
// UnreadyGate
// ---------------------------------------------------------------------------

TEST(UnreadyGate, GatesThreadsAboveThreshold) {
  UnreadyGatePolicy policy{PolicyConfig{}};  // fraction 0.25 of 64 = 16
  PipelineView v = make_view(2);
  EXPECT_EQ(policy.gate_threshold(v), 16);

  v.iq_unready_tc[0][0] = 10;
  v.iq_unready_tc[0][1] = 7;  // 17 > 16: gated
  v.iq_unready_tc[1][0] = 16;  // exactly at threshold: not gated
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b10u);
}

TEST(UnreadyGate, ThresholdHasFloorOfFour) {
  PolicyConfig config;
  config.unready_gate_fraction = 0.01;
  UnreadyGatePolicy policy{config};
  PipelineView v = make_view(2);
  v.iq_capacity_c[0] = v.iq_capacity_c[1] = 4;  // 0.01 * 8 would round to 0
  EXPECT_EQ(policy.gate_threshold(v), 4);
}

TEST(UnreadyGate, RenameSelectionPrefersFewestUnready) {
  UnreadyGatePolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.iq_unready_tc[0][0] = 8;
  v.iq_unready_tc[1][0] = 2;
  // Thread 1 has fewer unready µops even though it has more in flight.
  v.iq_occ_tc[0][0] = 10;
  v.iq_occ_tc[1][0] = 20;
  EXPECT_EQ(policy.select_rename_thread(v, 0b11), 1);
}

TEST(UnreadyGate, FallsBackToIcountOnUnreadyTies) {
  UnreadyGatePolicy policy{PolicyConfig{}};
  PipelineView v = make_view(2);
  v.iq_unready_tc[0][0] = 4;
  v.iq_unready_tc[1][0] = 4;
  v.iq_occ_tc[0][0] = 3;
  v.iq_occ_tc[1][0] = 9;
  EXPECT_EQ(policy.select_rename_thread(v, 0b11), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: the extension schemes drive the real pipeline
// ---------------------------------------------------------------------------

class AdaptiveEndToEnd : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AdaptiveEndToEnd, TwoThreadsCommitAndRespectDeterminism) {
  trace::TracePool pool(4242);
  core::SimConfig config = harness::paper_baseline();
  config.policy = GetParam();

  auto run_once = [&]() {
    core::Simulator sim(config);
    sim.attach_thread(0, pool.get(trace::Category::kISpec00,
                                  trace::TraceKind::kIlp, 0));
    sim.attach_thread(1, pool.get(trace::Category::kServer,
                                  trace::TraceKind::kMem, 0));
    sim.run(30000);
    return sim.stats();
  };

  const core::SimStats a = run_once();
  const core::SimStats b = run_once();
  EXPECT_GT(a.committed[0], 100u);
  EXPECT_GT(a.committed[1], 50u);
  EXPECT_EQ(a.committed[0], b.committed[0]);
  EXPECT_EQ(a.committed[1], b.committed[1]);
  EXPECT_EQ(a.copies_created, b.copies_created);
}

INSTANTIATE_TEST_SUITE_P(
    Extensions, AdaptiveEndToEnd,
    ::testing::Values(PolicyKind::kFlushPlusPlus, PolicyKind::kDcra,
                      PolicyKind::kHillClimb, PolicyKind::kUnreadyGate),
    [](const ::testing::TestParamInfo<PolicyKind>& info) {
      std::string name{policy_kind_name(info.param)};
      for (char& ch : name) {
        if (ch == '+') ch = 'P';
      }
      return name;
    });

TEST(AdaptiveEndToEnd, HillClimbLearnsInsideTheSimulator) {
  trace::TracePool pool(77);
  core::SimConfig config = harness::paper_baseline();
  config.policy = policy::PolicyKind::kHillClimb;
  config.policy_config.hillclimb_epoch = 2048;
  core::Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kISpec00,
                                trace::TraceKind::kIlp, 0));
  sim.attach_thread(1, pool.get(trace::Category::kISpec00,
                                trace::TraceKind::kMem, 0));
  sim.run(60000);
  const auto& policy =
      dynamic_cast<const HillClimbPolicy&>(sim.policy());
  // 60000 cycles / 2048-cycle epochs / 3 trials per round >= 8 rounds.
  EXPECT_GE(policy.rounds_completed(), 8u);
  const double floor = HillClimbPolicy::share_floor(2);
  EXPECT_GE(policy.share(0), floor - 1e-12);
  EXPECT_GE(policy.share(1), floor - 1e-12);
  EXPECT_NEAR(policy.share(0) + policy.share(1), 1.0, 1e-9);
}

}  // namespace
}  // namespace clusmt::policy
