#include <gtest/gtest.h>

#include "policy/partition.h"
#include "policy/policy.h"
#include "policy/regfile_policy.h"
#include "policy/simple.h"

namespace clusmt::policy {
namespace {

/// Baseline view: 2 threads, 2 clusters, 32-entry IQs, 64+64 registers.
PipelineView make_view() {
  PipelineView v;
  v.num_threads = 2;
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

TEST(PolicyFactory, NamesRoundTrip) {
  for (PolicyKind kind : all_policy_kinds()) {
    const auto parsed = parse_policy_kind(policy_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    const auto policy = make_policy(kind);
    EXPECT_EQ(policy->name(), policy_kind_name(kind));
  }
  EXPECT_FALSE(parse_policy_kind("NoSuchScheme").has_value());
  EXPECT_EQ(all_policy_kinds().size(), 14u);  // 10 paper + 4 extensions
}

TEST(Icount, SelectsFewestInFlight) {
  IcountPolicy policy;
  PipelineView v = make_view();
  v.iq_occ_tc[0][0] = 10;
  v.iq_occ_tc[0][1] = 5;  // thread 0: 15 in flight
  v.iq_occ_tc[1][0] = 3;
  v.iq_occ_tc[1][1] = 4;  // thread 1: 7 in flight
  EXPECT_EQ(policy.select_rename_thread(v, 0b11), 1);
  EXPECT_EQ(policy.select_rename_thread(v, 0b01), 0);  // masked
  EXPECT_EQ(policy.select_rename_thread(v, 0b00), -1);
}

TEST(Icount, TieAlternates) {
  IcountPolicy policy;
  PipelineView v = make_view();  // both zero in flight
  const ThreadId first = policy.select_rename_thread(v, 0b11);
  const ThreadId second = policy.select_rename_thread(v, 0b11);
  EXPECT_NE(first, second);
}

TEST(Icount, NoResourceLimits) {
  IcountPolicy policy;
  PipelineView v = make_view();
  v.iq_occ_tc[0][0] = 31;
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 64));
}

TEST(Stall, GatesFetchOnlyForMissingThreads) {
  StallPolicy policy;
  PipelineView v = make_view();
  v.l2_pending[0] = true;
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b10u);
  // Rename proceeds for already-fetched µops (Tullsen & Brown's STALL).
  EXPECT_EQ(policy.rename_eligible(v, 0b11), 0b11u);
  v.l2_pending[1] = true;
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b00u);
}

TEST(FlushPlus, SingleMisserIsFlushedAndGated) {
  FlushPlusPolicy policy;
  PipelineView v = make_view();
  policy.on_l2_miss(0, /*load_seq=*/100, /*now=*/50);
  const auto request = policy.flush_request(51);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->tid, 0);
  EXPECT_EQ(request->after_seq, 100u);
  policy.on_flush_done(0);
  EXPECT_FALSE(policy.flush_request(52).has_value());  // one flush per miss
  v.l2_pending[0] = true;
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b10u);
  // Miss resolves: thread released.
  policy.on_l2_resolved(0, 100, 200);
  v.l2_pending[0] = false;
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b11u);
}

TEST(FlushPlus, EarliestMisserContinuesWhenBothMiss) {
  FlushPlusPolicy policy;
  PipelineView v = make_view();
  policy.on_l2_miss(0, 10, /*now=*/100);  // thread 0 misses first
  policy.on_flush_done(0);
  policy.on_l2_miss(1, 20, /*now=*/150);  // thread 1 misses second
  // Thread 1 must be flushed; thread 0 (earliest) continues.
  const auto request = policy.flush_request(151);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->tid, 1);
  policy.on_flush_done(1);
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b01u);  // only t0 fetches
  // Thread 0 resolves: thread 1 is now the sole misser, still gated.
  policy.on_l2_resolved(0, 10, 300);
  EXPECT_EQ(policy.fetch_eligible(v, 0b11), 0b01u);
}

TEST(FlushPlus, FlushBoundaryIsOldestMissingLoad) {
  FlushPlusPolicy policy;
  policy.on_l2_miss(0, 50, 10);
  policy.on_l2_miss(0, 30, 12);  // older load also misses
  const auto request = policy.flush_request(13);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->after_seq, 30u);
}

TEST(Cisp, CapsTotalOccupancyClusterBlind) {
  PolicyConfig config;
  CispPolicy policy(config);
  PipelineView v = make_view();  // total capacity 64, cap 32
  v.iq_occ_tc[0][0] = 30;
  v.iq_occ_tc[0][1] = 0;
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 2, 2));   // reaches 32
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 3, 3));  // would exceed
  v.iq_occ_tc[0][1] = 2;
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 1, 1, 1));  // 33 > cap anywhere
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 1, 0, 32, 32));  // other thread free
}

TEST(Cisp, CountsWholeRenameGroupAcrossClusters) {
  // Regression: a µop plus its copies land in different clusters; the
  // cluster-blind cap must account for the group total, not each part.
  PolicyConfig config;
  CispPolicy policy(config);
  PipelineView v = make_view();
  v.iq_occ_tc[0][0] = 31;  // thread total 31, cap 32
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 1, 2));  // µop + 1 copy
}

TEST(Cssp, CapsPerClusterOccupancy) {
  PolicyConfig config;
  CsspPolicy policy(config);
  PipelineView v = make_view();  // per-cluster cap 16
  v.iq_occ_tc[0][0] = 16;
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 1, 16, 16));
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 1, 17, 17));
}

TEST(Cspsp, GuaranteePlusSharedPool) {
  PolicyConfig config;  // guarantee 25% = 8; shared pool = 32 - 16 = 16
  CspspPolicy policy(config);
  PipelineView v = make_view();
  // Within the guarantee: always allowed.
  v.iq_occ_tc[0][0] = 7;
  v.iq_occ[0] = 7;
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
  // Beyond the guarantee: allowed while the other thread's reserved slice
  // stays available. t1 uses 0, so 8 slots stay reserved for it.
  v.iq_occ_tc[0][0] = 8;
  v.iq_occ[0] = 8;
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 16, 16));   // 24 + 8 res = 32
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 17, 17));  // would eat reserve
  // When t1 already uses its slice, t0 can push to capacity.
  v.iq_occ_tc[1][0] = 8;
  v.iq_occ[0] = 16;
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 16, 16));
}

TEST(PrivateClusters, PinsThreadToItsCluster) {
  PrivateClustersPolicy policy;
  PipelineView v = make_view();
  EXPECT_EQ(policy.forced_cluster(v, 0), 0);
  EXPECT_EQ(policy.forced_cluster(v, 1), 1);
  EXPECT_TRUE(policy.allow_iq_dispatch(v, 0, 0, 32, 32));
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 1, 1, 1));
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 1, 0, 1, 1));
}

TEST(Cssprf, PerClusterRegisterCap) {
  PolicyConfig config;
  CssprfPolicy policy(config);
  PipelineView v = make_view();  // 64/cluster, cap 32
  v.rf_used[0][0][0] = 32;
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 1));
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 1, RegClass::kInt, 32));
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 0, RegClass::kFp, 1));
  // Unbounded mode disables the cap.
  v.rf_unbounded = true;
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 1));
}

TEST(Cisprf, TotalRegisterCap) {
  PolicyConfig config;
  CisprfPolicy policy(config);
  PipelineView v = make_view();  // 128 total, cap 64
  v.rf_used[0][0][0] = 40;
  v.rf_used[0][1][0] = 24;  // 64 total
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, 1));
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 1, RegClass::kInt, 1));
  v.rf_used[0][1][0] = 23;
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 1, RegClass::kInt, 1));
}

TEST(Cdprf, InitialThresholdIsHalf) {
  PolicyConfig config;
  CdprfPolicy policy(config);
  PipelineView v = make_view();  // 64/cluster => 128 total, half = 64
  v.now = 0;
  policy.begin_cycle(v);
  EXPECT_EQ(policy.threshold(0, RegClass::kInt), 64);
  EXPECT_EQ(policy.threshold(1, RegClass::kFp), 64);
}

TEST(Cdprf, StarvationCounterTracksBlockedCycles) {
  PolicyConfig config;
  CdprfPolicy policy(config);
  PipelineView v = make_view();
  v.now = 0;
  policy.begin_cycle(v);
  v.rf_blocked[0][0] = true;
  for (int i = 1; i <= 3; ++i) {
    v.now = static_cast<Cycle>(i);
    policy.begin_cycle(v);
  }
  EXPECT_EQ(policy.starvation(0, RegClass::kInt), 3u);
  v.rf_blocked[0][0] = false;
  v.now = 4;
  policy.begin_cycle(v);
  EXPECT_EQ(policy.starvation(0, RegClass::kInt), 0u);  // reset when unblocked
}

TEST(Cdprf, RfocAccumulatesOccupancyPlusStarvation) {
  PolicyConfig config;
  CdprfPolicy policy(config);
  PipelineView v = make_view();
  v.now = 0;
  policy.begin_cycle(v);  // occupancy 0, starvation 0
  v.rf_used[0][0][0] = 10;
  v.rf_used[0][1][0] = 5;
  v.rf_blocked[0][0] = true;
  v.now = 1;
  policy.begin_cycle(v);  // +15 occupancy +1 starvation
  EXPECT_EQ(policy.rfoc(0, RegClass::kInt), 16u);
}

TEST(Cdprf, IntervalRollSetsThresholdToAverageCappedAtHalf) {
  PolicyConfig config;
  config.cdprf_interval = 4;
  CdprfPolicy policy(config);
  PipelineView v = make_view();
  v.rf_used[0][0][0] = 20;  // constant occupancy 20
  v.rf_used[1][0][0] = 70;
  v.rf_used[1][1][0] = 70;  // thread 1: 140 -> capped at half (64)
  // begin_cycle accumulates at now = 0..4 (5 samples) and rolls the
  // interval after the accumulation at now == 4.
  for (Cycle t = 0; t <= 4; ++t) {
    v.now = t;
    policy.begin_cycle(v);
  }
  // threshold(0) = RFOC / interval = (5 * 20) / 4 = 25.
  EXPECT_EQ(policy.threshold(0, RegClass::kInt), 25);
  EXPECT_EQ(policy.threshold(1, RegClass::kInt), 64);  // capped at half
}

TEST(Cdprf, GuaranteeProtectsOtherThread) {
  PolicyConfig config;
  config.cdprf_interval = 2;
  CdprfPolicy policy(config);
  PipelineView v = make_view();
  // Interval passes with t1 holding 30 int registers every cycle:
  // RFOC = 3 samples * 30 = 90; threshold = 90 / 2 = 45.
  v.rf_used[1][0][0] = 30;
  for (Cycle t = 0; t <= 2; ++t) {
    v.now = t;
    policy.begin_cycle(v);
  }
  ASSERT_EQ(policy.threshold(1, RegClass::kInt), 45);
  const int t1_guarantee = 45;
  // t0 above its own threshold may only allocate while t1's guarantee
  // remains satisfiable from the free registers.
  v.rf_used[0][0][0] = 50;
  v.rf_used[0][1][0] = 14;  // t0 uses 64 total, above its threshold
  v.rf_used[1][0][0] = 0;   // t1 currently uses none
  const int free_total = 128 - 64;
  v.rf_free[0][0] = free_total / 2;
  v.rf_free[1][0] = free_total - free_total / 2;
  const int slack = free_total - t1_guarantee;  // 64 - 45 = 19
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, slack));
  EXPECT_FALSE(policy.allow_rf_alloc(v, 0, 0, RegClass::kInt, slack + 1));
}

TEST(Cdprf, WithinThresholdAlwaysAllowed) {
  PolicyConfig config;
  CdprfPolicy policy(config);
  PipelineView v = make_view();
  v.now = 0;
  policy.begin_cycle(v);  // thresholds = 64 (half of 128 total)
  v.rf_used[0][0][0] = 10;
  v.rf_free[0][0] = 0;  // cluster 0 empty, but cluster 1 has registers
  EXPECT_TRUE(policy.allow_rf_alloc(v, 0, 1, RegClass::kInt, 1));
}

TEST(PartitionFraction, ScalesWithConfig) {
  PolicyConfig config;
  config.partition_fraction = 0.25;
  CsspPolicy policy(config);
  PipelineView v = make_view();
  v.iq_occ_tc[0][0] = 8;  // cap = 32 * 0.25 = 8
  EXPECT_FALSE(policy.allow_iq_dispatch(v, 0, 0, 1, 1));
}

}  // namespace
}  // namespace clusmt::policy
