// Heterogeneous cluster shapes: the refactor's behaviour-preservation
// oracle plus directed coverage of the new capability paths.
//
// The homogeneity oracle is the load-bearing test: a machine described by
// explicit all-equal ClusterShape overrides (and a fully written link
// matrix) must produce field-for-field identical SimStats to the same
// machine described by the legacy scalars alone, for every scheme and for
// both thread counts — i.e. zero-means-inherit is an encoding detail, not
// a behaviour change. The directed tests then pin down that heterogeneous
// shapes actually reach the hardware: port mixes per width, per-pair link
// latencies, capacity-scaled steering, and constructor validation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "backend/interconnect.h"
#include "backend/ports.h"
#include "common/cli.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "harness/runner.h"
#include "harness/shape_flags.h"
#include "policy/policy.h"
#include "steer/steering.h"
#include "trace/workload.h"
#include "stats_equal.h"

namespace clusmt::core {
namespace {

/// The same machine re-described with explicit all-equal shape overrides:
/// every ClusterShape field set to the scalar it would have inherited, and
/// the full link matrix written out.
SimConfig with_explicit_shapes(const SimConfig& base) {
  SimConfig shaped = base;
  for (int c = 0; c < base.num_clusters; ++c) {
    shaped.shape[c].issue_width = base.issue_width;
    shaped.shape[c].iq_entries = base.iq_entries;
    if (!base.rf_unbounded()) {
      shaped.shape[c].int_regs = base.int_regs;
      shaped.shape[c].fp_regs = base.fp_regs;
    }
    for (int to = 0; to < base.num_clusters; ++to) {
      shaped.link_latency_cc[c][to] = base.link_latency;
    }
  }
  return shaped;
}

TEST(HeteroHomogeneityOracle, ExplicitEqualShapesMatchScalarsEveryScheme) {
  // 14 schemes x {2T, SMT4}: the scalar description and the explicit
  // all-equal shape description must be indistinguishable in SimStats.
  struct Machine {
    const char* name;
    SimConfig config;
    trace::WorkloadSpec workload;
  };
  const std::vector<Machine> machines = {
      {"2T", harness::paper_baseline(),
       trace::build_quick_suite(1, 1, 2).front()},
      {"SMT4", harness::smt4_baseline(),
       trace::build_smt4_suite(1, 2).front()},
  };
  for (const Machine& m : machines) {
    for (policy::PolicyKind kind : policy::all_policy_kinds()) {
      SimConfig scalar = m.config;
      scalar.policy = kind;
      const SimConfig shaped = with_explicit_shapes(scalar);
      const harness::RunResult a =
          harness::simulate_workload(scalar, m.workload, 3000, 500);
      const harness::RunResult b =
          harness::simulate_workload(shaped, m.workload, 3000, 500);
      expect_stats_equal(
          a.stats, b.stats,
          std::string(m.name) + "/" +
              std::string(policy::policy_kind_name(kind)));
    }
  }
}

TEST(HeteroSmoke, AsymmetricShapesRunAndValidate) {
  // A 2:1-width, lopsided-IQ/RF, far-link machine must run every scheme
  // without tripping the incremental-view validator or the watchdog.
  const trace::WorkloadSpec workload =
      trace::build_quick_suite(1, 1, 2).front();
  for (policy::PolicyKind kind : policy::all_policy_kinds()) {
    SimConfig config = harness::paper_baseline();
    config.policy = kind;
    config.shape[0] = {.issue_width = 4, .iq_entries = 48, .int_regs = 96,
                       .fp_regs = 96};
    config.shape[1] = {.issue_width = 2, .iq_entries = 16, .int_regs = 32,
                       .fp_regs = 32};
    config.link_latency_cc[0][1] = 4;
    config.link_latency_cc[1][0] = 4;
    Simulator sim(config);
    for (std::size_t t = 0; t < workload.threads.size(); ++t) {
      sim.attach_thread(static_cast<ThreadId>(t), workload.threads[t]);
    }
    sim.run(2500);
    EXPECT_TRUE(sim.validate_view())
        << policy::policy_kind_name(kind);
    EXPECT_GT(sim.stats().committed_total(), 0u)
        << policy::policy_kind_name(kind);
  }
}

TEST(HeteroSmoke, ShapeOverridesReachTheHardware) {
  SimConfig config = harness::paper_baseline();
  config.shape[0] = {.issue_width = 4, .iq_entries = 48, .int_regs = 96,
                     .fp_regs = 80};
  config.link_latency_cc[0][1] = 5;
  Simulator sim(config);
  EXPECT_EQ(sim.cluster(0).ports().num_ports(), 4);
  EXPECT_EQ(sim.cluster(1).ports().num_ports(), 3);
  EXPECT_EQ(sim.cluster(0).iq().capacity(), 48);
  EXPECT_EQ(sim.cluster(1).iq().capacity(), 32);
  EXPECT_EQ(sim.cluster(0).rf(RegClass::kInt).capacity(), 96);
  EXPECT_EQ(sim.cluster(0).rf(RegClass::kFp).capacity(), 80);
  EXPECT_EQ(sim.cluster(1).rf(RegClass::kInt).capacity(), 64);
  EXPECT_EQ(sim.view().rf_capacity_of(0, RegClass::kInt), 96);
  EXPECT_EQ(sim.view().rf_capacity_of(1, RegClass::kInt), 64);
  EXPECT_EQ(sim.view().rf_capacity_total(RegClass::kInt), 160);
  EXPECT_EQ(sim.interconnect().latency(0, 1), 5);
  EXPECT_EQ(sim.interconnect().latency(1, 0), 1);
}

TEST(HeteroSmoke, ShapeChangesSimulationOutcome) {
  // Sanity that heterogeneity is not cosmetic: a narrowed cluster 1 and a
  // far link must perturb the committed stream of a busy two-thread run.
  const trace::WorkloadSpec workload =
      trace::build_quick_suite(1, 1, 2).front();
  SimConfig flat = harness::paper_baseline();
  SimConfig narrow = flat;
  narrow.shape[1].issue_width = 1;
  SimConfig far = flat;
  far.link_latency_cc[0][1] = 8;
  far.link_latency_cc[1][0] = 8;
  const auto run = [&](const SimConfig& c) {
    return harness::simulate_workload(c, workload, 4000, 500).stats;
  };
  const SimStats flat_stats = run(flat);
  const SimStats narrow_stats = run(narrow);
  const SimStats far_stats = run(far);
  EXPECT_NE(flat_stats.issued_uops, narrow_stats.issued_uops);
  EXPECT_NE(flat_stats.committed_total(), far_stats.committed_total());
}

// ---- Config accessors ----------------------------------------------------

TEST(ClusterShapeConfig, ZeroMeansInherit) {
  SimConfig c;
  c.iq_entries = 32;
  c.int_regs = 100;
  c.fp_regs = 90;
  c.issue_width = 3;
  c.link_latency = 2;
  EXPECT_EQ(c.effective_iq_entries(0), 32);
  EXPECT_EQ(c.effective_issue_width(1), 3);
  EXPECT_EQ(c.effective_int_regs(0), 100);
  EXPECT_EQ(c.effective_fp_regs(1), 90);
  EXPECT_EQ(c.effective_link_latency(0, 1), 2);

  c.shape[1] = {.issue_width = 2, .iq_entries = 16, .int_regs = 48,
                .fp_regs = 40};
  c.link_latency_cc[1][0] = 7;
  EXPECT_EQ(c.effective_iq_entries(1), 16);
  EXPECT_EQ(c.effective_issue_width(1), 2);
  EXPECT_EQ(c.effective_int_regs(1), 48);
  EXPECT_EQ(c.effective_fp_regs(1), 40);
  EXPECT_EQ(c.effective_regs(1, RegClass::kInt), 48);
  EXPECT_EQ(c.effective_regs(1, RegClass::kFp), 40);
  EXPECT_EQ(c.effective_link_latency(1, 0), 7);
  EXPECT_EQ(c.effective_link_latency(0, 1), 2) << "direction matters";
  // Cluster 0 still inherits everything.
  EXPECT_EQ(c.effective_iq_entries(0), 32);
  EXPECT_EQ(c.effective_issue_width(0), 3);
}

// ---- Constructor validation ----------------------------------------------

TEST(HeteroValidation, MalformedShapesAreRejected) {
  const auto reject = [](void (*mutate)(SimConfig&)) {
    SimConfig config = harness::paper_baseline();
    mutate(config);
    EXPECT_THROW(Simulator sim(config), std::invalid_argument);
  };
  reject([](SimConfig& c) { c.shape[0].iq_entries = -1; });
  reject([](SimConfig& c) { c.shape[1].int_regs = -4; });
  reject([](SimConfig& c) { c.shape[0].issue_width = 9; });
  reject([](SimConfig& c) { c.link_latency_cc[0][1] = -2; });
  // Unbounded register mode is machine-wide; a per-cluster bounded
  // override contradicts it.
  reject([](SimConfig& c) {
    c.int_regs = 0;
    c.fp_regs = 0;
    c.shape[0].int_regs = 64;
  });
  // The register floor sums per-cluster effective sizes: 20+12 = 32 < the
  // 2 threads x 16 arch + 6 rename headroom = 38 required.
  reject([](SimConfig& c) {
    c.shape[0].int_regs = 20;
    c.shape[1].int_regs = 12;
  });
}

TEST(HeteroValidation, TrailingShapeSlotsAreInert) {
  // Shape entries past num_clusters never instantiate hardware; garbage
  // there must not reject an otherwise valid machine.
  SimConfig config = harness::paper_baseline();
  config.shape[3] = {.issue_width = -5, .iq_entries = -5, .int_regs = -5,
                     .fp_regs = -5};
  EXPECT_NO_THROW(Simulator sim(config));
}

// ---- Port mixes ----------------------------------------------------------

TEST(HeteroPorts, GeneralizedMixMatchesTable1AtWidth3) {
  using trace::PortClass;
  for (int p : {0, 1}) {
    EXPECT_TRUE(backend::PortSet::compatible(p, PortClass::kFpSimd, 3));
    EXPECT_FALSE(backend::PortSet::compatible(p, PortClass::kMem, 3));
  }
  EXPECT_FALSE(backend::PortSet::compatible(2, PortClass::kFpSimd, 3));
  EXPECT_TRUE(backend::PortSet::compatible(2, PortClass::kMem, 3));
}

TEST(HeteroPorts, NarrowAndWideMixes) {
  using trace::PortClass;
  // Width 1: a single universal port.
  for (PortClass cls :
       {PortClass::kInt, PortClass::kFpSimd, PortClass::kMem}) {
    EXPECT_TRUE(backend::PortSet::compatible(0, cls, 1));
  }
  // Width 2: port 0 int+fp/simd, port 1 int+mem.
  EXPECT_TRUE(backend::PortSet::compatible(0, PortClass::kFpSimd, 2));
  EXPECT_FALSE(backend::PortSet::compatible(1, PortClass::kFpSimd, 2));
  EXPECT_TRUE(backend::PortSet::compatible(1, PortClass::kMem, 2));
  EXPECT_FALSE(backend::PortSet::compatible(0, PortClass::kMem, 2));
  // Width 4: three fp/simd-capable ports, mem rides the last.
  backend::PortSet wide(4);
  EXPECT_EQ(wide.free_compatible(PortClass::kInt), 4);
  EXPECT_EQ(wide.free_compatible(PortClass::kFpSimd), 3);
  EXPECT_EQ(wide.free_compatible(PortClass::kMem), 1);
  // A width-2 set saturates after two bookings.
  backend::PortSet narrow(2);
  EXPECT_TRUE(narrow.try_book(PortClass::kFpSimd));
  EXPECT_FALSE(narrow.try_book(PortClass::kFpSimd)) << "one fp port";
  EXPECT_TRUE(narrow.try_book(PortClass::kMem));
  EXPECT_TRUE(narrow.all_booked());
  narrow.new_cycle();
  EXPECT_TRUE(narrow.try_book(PortClass::kInt));
  EXPECT_TRUE(narrow.try_book(PortClass::kInt));
  EXPECT_FALSE(narrow.try_book(PortClass::kInt));
}

// ---- Interconnect pair latency -------------------------------------------

TEST(HeteroInterconnect, PairOverridesFallBackToBase) {
  backend::Interconnect net(2, 3);
  EXPECT_EQ(net.latency(0, 1), 3);
  net.set_pair_latency(0, 1, 9);
  EXPECT_EQ(net.latency(0, 1), 9);
  EXPECT_EQ(net.latency(1, 0), 3) << "directed override";
  net.set_pair_latency(0, 1, 0);
  EXPECT_EQ(net.latency(0, 1), 3) << "zero restores the base";
  EXPECT_THROW(net.set_pair_latency(0, 1, -1), std::invalid_argument);
  EXPECT_THROW(net.set_pair_latency(kMaxClusters, 0, 1),
               std::invalid_argument);
}

// ---- Shape flags ---------------------------------------------------------

TEST(ShapeFlags, ListsApplyPerCluster) {
  const char* argv[] = {"prog", "--width=4,2", "--iq=48,16",
                        "--int-regs=96,32", "--fp-regs=80,48",
                        "--link=0,4,2,0"};
  const CliArgs args(6, argv);
  SimConfig config = harness::paper_baseline();
  harness::apply_shape_flags(args, config);
  EXPECT_EQ(config.shape[0].issue_width, 4);
  EXPECT_EQ(config.shape[1].issue_width, 2);
  EXPECT_EQ(config.shape[0].iq_entries, 48);
  EXPECT_EQ(config.shape[1].int_regs, 32);
  EXPECT_EQ(config.shape[1].fp_regs, 48);
  EXPECT_EQ(config.link_latency_cc[0][1], 4);
  EXPECT_EQ(config.link_latency_cc[1][0], 2);
  EXPECT_EQ(config.effective_link_latency(0, 0), config.link_latency)
      << "0 in the matrix inherits";
}

TEST(ShapeFlags, AbsentFlagsLeaveConfigUntouched) {
  const char* argv[] = {"prog", "--cycles=100"};
  const CliArgs args(2, argv);
  const SimConfig before = harness::paper_baseline();
  SimConfig config = before;
  harness::apply_shape_flags(args, config);
  for (int c = 0; c < kMaxClusters; ++c) {
    EXPECT_EQ(config.shape[c].issue_width, before.shape[c].issue_width);
    EXPECT_EQ(config.shape[c].iq_entries, before.shape[c].iq_entries);
  }
}

TEST(ShapeFlagsDeath, WrongArityExitsWithError) {
  // Three widths on a two-cluster machine is a usage error: silently
  // dropping or recycling entries would shape a different machine.
  const char* argv[] = {"prog", "--width=4,2,1"};
  const CliArgs args(2, argv);
  SimConfig config = harness::paper_baseline();
  EXPECT_EXIT(harness::apply_shape_flags(args, config),
              ::testing::ExitedWithCode(2),
              "--width expects 2 comma-separated values");
}

TEST(ShapeFlagsDeath, LinkMatrixArityIsClustersSquared) {
  const char* argv[] = {"prog", "--link=1,4"};
  const CliArgs args(2, argv);
  SimConfig config = harness::paper_baseline();
  EXPECT_EXIT(harness::apply_shape_flags(args, config),
              ::testing::ExitedWithCode(2),
              "--link expects 4 comma-separated values");
}

TEST(ShapeFlagsDeath, ClusterCountOutOfRangeExitsWithError) {
  const char* argv[] = {"prog", "--clusters=9"};
  const CliArgs args(2, argv);
  SimConfig config = harness::paper_baseline();
  EXPECT_EXIT(harness::apply_shape_flags(args, config),
              ::testing::ExitedWithCode(2), "--clusters expects 1..4");
}

TEST(ShapeFlagsDeath, ValueBeyondIntExitsWithError) {
  // 2^32 + 32 entries used to wrap to a 32-entry IQ in the int cast.
  const char* argv[] = {"prog", "--clusters=2", "--iq=4294967328,16"};
  const CliArgs args(3, argv);
  SimConfig config = harness::paper_baseline();
  EXPECT_EXIT(harness::apply_shape_flags(args, config),
              ::testing::ExitedWithCode(2),
              "--iq expects a comma-separated list of non-negative integers");
}

// ---- Capability-aware steering -------------------------------------------

TEST(HeteroSteering, EqualCapacitiesAreTheIdentityScale) {
  steer::Steering s(steer::SteeringKind::kLeastLoaded, 2, 6);
  const int caps[] = {32, 32};
  s.set_capacities(caps);
  EXPECT_EQ(s.scaled_load(0, 17), 17);
  EXPECT_EQ(s.scaled_load(1, 31), 31);
}

TEST(HeteroSteering, LeastLoadedComparesRelativeToCapacity) {
  steer::Steering s(steer::SteeringKind::kLeastLoaded, 2, 6);
  const int caps[] = {48, 16};
  s.set_capacities(caps);
  // Raw occupancy says cluster 1 is lighter (12 < 30); relative to
  // capacity cluster 0 is (30/48 scales to 30, 12/16 scales to 36).
  EXPECT_EQ(s.scaled_load(0, 30), 30);
  EXPECT_EQ(s.scaled_load(1, 12), 36);
  const int dep[] = {0, 0};
  const int occ[] = {30, 12};
  EXPECT_EQ(s.preferred(dep, occ), 0);
}

TEST(HeteroSteering, BalanceOverrideUsesScaledImbalance) {
  steer::Steering s(steer::SteeringKind::kDependenceBalance, 2, 6);
  const int caps[] = {48, 16};
  s.set_capacities(caps);
  // All operands live in cluster 1. Raw imbalance 8-10 = -2 would never
  // override; scaled (24 vs 10) exceeds the threshold, so the vote is
  // overridden to the relatively lighter cluster 0.
  const int dep[] = {0, 2};
  const int occ[] = {10, 8};
  EXPECT_EQ(s.preferred(dep, occ), 0);
  EXPECT_EQ(s.stats().balance_overrides, 1u);
}

TEST(HeteroSteering, InvalidCapacitiesAreRejected) {
  steer::Steering s(steer::SteeringKind::kLeastLoaded, 2, 6);
  const int zero[] = {32, 0};
  EXPECT_THROW(s.set_capacities(zero), std::invalid_argument);
  const int too_few[] = {32};
  EXPECT_THROW(s.set_capacities(too_few), std::invalid_argument);
}

}  // namespace
}  // namespace clusmt::core
