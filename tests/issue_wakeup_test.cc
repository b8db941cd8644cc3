// Differential coverage for the event-driven wakeup issue path: the
// kWakeup model must be bit-identical to the kScanReference oracle (the
// original probe-every-slot-every-cycle scan) across schemes, thread
// counts, bounded/unbounded register files and squash-heavy traces — and
// the incrementally-maintained structures (wakeup CAM, PipelineView
// counters) must survive squash storms and cross-cluster copy traffic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulator.h"
#include "harness/presets.h"
#include "policy/policy.h"
#include "trace/workload.h"
#include "stats_equal.h"

namespace clusmt::core {
namespace {

/// Pool traces with an optional squash-heavy override: a high fraction of
/// hard-to-predict branches keeps the recovery path (IQ teardown on
/// squash) permanently busy.
std::vector<trace::TraceSpec> make_threads(int num_threads, bool squash_heavy,
                                           std::uint64_t seed) {
  const trace::TracePool pool(seed);
  std::vector<trace::TraceSpec> threads;
  for (int t = 0; t < num_threads; ++t) {
    trace::TraceSpec spec =
        pool.get(t % 2 == 0 ? trace::Category::kISpec00
                            : trace::Category::kFSpec00,
                 t % 2 == 0 ? trace::TraceKind::kIlp : trace::TraceKind::kMem,
                 t % trace::TracePool::kVariantsPerKind);
    if (squash_heavy) {
      spec.profile.hard_branch_fraction = 0.5;
      spec.profile.name += "+squashy";
    }
    threads.push_back(std::move(spec));
  }
  return threads;
}

SimStats run_once(const SimConfig& config, Simulator::IssueModel model,
                  const std::vector<trace::TraceSpec>& threads, Cycle warmup,
                  Cycle cycles) {
  Simulator sim(config);
  sim.set_issue_model(model);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sim.attach_thread(static_cast<ThreadId>(t), threads[t]);
  }
  sim.run(warmup);
  sim.reset_stats();
  sim.run(cycles);
  // The incremental PipelineView must agree with a from-scratch rebuild
  // at the end of every run, and the wakeup CAM bookkeeping must be
  // internally consistent, in both issue models.
  EXPECT_TRUE(sim.validate_view());
  for (int c = 0; c < config.num_clusters; ++c) {
    EXPECT_TRUE(sim.cluster(c).iq().validate());
  }
  return sim.stats();
}

TEST(IssueWakeupDifferential, MatchesScanReferenceAcrossGrid) {
  struct MachineCase {
    const char* name;
    SimConfig config;
    int threads;
  };
  const MachineCase machines[] = {
      {"bounded-2t", harness::rf_study_config(64), 2},
      {"unbounded-2t", harness::iq_study_config(32), 2},
      {"smt4", harness::smt4_baseline(), 4},
  };
  const policy::PolicyKind schemes[] = {
      policy::PolicyKind::kIcount, policy::PolicyKind::kCssp,
      policy::PolicyKind::kCdprf, policy::PolicyKind::kFlushPlus};

  for (const MachineCase& machine : machines) {
    for (const policy::PolicyKind scheme : schemes) {
      for (const bool squash_heavy : {false, true}) {
        SimConfig config = machine.config;
        config.policy = scheme;
        const auto threads =
            make_threads(machine.threads, squash_heavy, /*seed=*/7);
        const std::string label =
            std::string(machine.name) + "/" +
            std::string(policy::policy_kind_name(scheme)) +
            (squash_heavy ? "/squash-heavy" : "/plain");
        const SimStats wakeup =
            run_once(config, Simulator::IssueModel::kWakeup, threads,
                     /*warmup=*/1000, /*cycles=*/5000);
        const SimStats reference =
            run_once(config, Simulator::IssueModel::kScanReference, threads,
                     /*warmup=*/1000, /*cycles=*/5000);
        expect_stats_equal(wakeup, reference, label);
      }
    }
  }
}

TEST(IssueWakeupDifferential, ConsumerTeardownSurvivesSquashStorm) {
  // Squash-heavy run, checked in small steps: every chunk boundary the
  // wakeup CAM (watch lists, ready lists, waiting counters) and the
  // incremental view must still cross-check — a leaked watch from a
  // squashed entry fails validate() loudly here.
  SimConfig config = harness::rf_study_config(64);
  config.policy = policy::PolicyKind::kIcount;
  Simulator sim(config);
  const auto threads = make_threads(2, /*squash_heavy=*/true, /*seed=*/11);
  for (int t = 0; t < 2; ++t) sim.attach_thread(t, threads[t]);
  for (int chunk = 0; chunk < 80; ++chunk) {
    sim.run(50);
    ASSERT_TRUE(sim.validate_view()) << "chunk " << chunk;
    for (int c = 0; c < config.num_clusters; ++c) {
      ASSERT_TRUE(sim.cluster(c).iq().validate())
          << "chunk " << chunk << " cluster " << c;
    }
  }
  EXPECT_GT(sim.stats().squashed_uops, 0u)
      << "squash-heavy trace never squashed; the storm test tested nothing";
}

TEST(IssueWakeupDifferential, CrossClusterCopyArrivalWakesConsumers) {
  // Dependence steering on a two-thread mix creates cross-cluster copies;
  // each consumer sleeps in the wakeup CAM until the copy's kCopyArrive
  // event marks the replica ready. If arrival-driven wakeup were broken,
  // consumers would deadlock (watchdog) or copies would never commit.
  SimConfig config = harness::rf_study_config(64);
  Simulator sim(config);
  const auto threads = make_threads(2, /*squash_heavy=*/false, /*seed=*/3);
  for (int t = 0; t < 2; ++t) sim.attach_thread(t, threads[t]);
  sim.run(6000);
  EXPECT_GT(sim.stats().copies_created, 0u);
  EXPECT_GT(sim.stats().committed_copies, 0u);
  EXPECT_TRUE(sim.validate_view());
  for (int c = 0; c < config.num_clusters; ++c) {
    EXPECT_TRUE(sim.cluster(c).iq().validate());
  }
}

}  // namespace
}  // namespace clusmt::core
