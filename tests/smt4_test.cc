// Four-thread (SMT4) integration tests: the paper evaluates two threads,
// but the machine model accepts up to kMaxThreads contexts. These tests
// pin down the >2-thread behaviour the Flush++ extension targets and the
// generalisation of the suite/sweep/fairness plumbing.
#include <gtest/gtest.h>

#include <set>

#include "core/simulator.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "policy/adaptive.h"
#include "trace/workload.h"

namespace clusmt {
namespace {

core::SimConfig smt4_config(policy::PolicyKind kind) {
  core::SimConfig config = harness::smt4_baseline();
  config.policy = kind;
  return config;
}

TEST(Smt4Config, RejectsRegisterFilesBelowArchitecturalFloor) {
  // 4 threads x 32 FP arch registers = 128 committed mappings; 64 regs per
  // cluster (128 total) leaves rename no headroom and wedges the machine.
  core::SimConfig config = harness::paper_baseline();  // 64 regs/cluster
  config.num_threads = 4;
  EXPECT_THROW(core::Simulator{config}, std::invalid_argument);

  // Unbounded register files are exempt from the floor.
  config.int_regs = 0;
  config.fp_regs = 0;
  EXPECT_NO_THROW(core::Simulator{config});

  // The SMT4 preset satisfies it by construction.
  EXPECT_NO_THROW(core::Simulator{harness::smt4_baseline()});
}

trace::WorkloadSpec first_mix(const std::vector<trace::WorkloadSpec>& suite) {
  for (const auto& w : suite) {
    if (w.type == "mix") return w;
  }
  return suite.front();
}

TEST(Smt4Suite, BuildsFourThreadWorkloads) {
  const auto suite = trace::build_smt4_suite(7, /*mixes_count=*/16);
  // 9 plain categories x 4 workloads + 2 ISPEC-FSPEC + 16 mixes.
  EXPECT_EQ(suite.size(), 9u * 4u + 2u + 16u);
  for (const auto& w : suite) {
    EXPECT_EQ(w.threads.size(), 4u) << w.name;
    EXPECT_NE(w.name.find(".4."), std::string::npos) << w.name;
  }
}

TEST(Smt4Suite, MixWorkloadsUseDistinctTraces) {
  const auto suite = trace::build_smt4_suite(7);
  for (const auto& w : suite) {
    if (w.category != "mixes") continue;
    std::set<std::string> ids;
    for (const auto& t : w.threads) ids.insert(t.id());
    EXPECT_EQ(ids.size(), 4u) << w.name;
  }
}

TEST(Smt4Suite, DeterministicForSameSeed) {
  const auto a = trace::build_smt4_suite(99);
  const auto b = trace::build_smt4_suite(99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(a[i].threads[t].id(), b[i].threads[t].id());
      EXPECT_EQ(a[i].threads[t].seed, b[i].threads[t].seed);
    }
  }
}

TEST(Smt4Sim, FourThreadsAllCommit) {
  const auto suite = trace::build_smt4_suite(11);
  const trace::WorkloadSpec w = first_mix(suite);

  core::Simulator sim(smt4_config(policy::PolicyKind::kIcount));
  for (int t = 0; t < 4; ++t) sim.attach_thread(t, w.threads[t]);
  sim.run(40000);
  for (int t = 0; t < 4; ++t) {
    EXPECT_GT(sim.stats().committed[t], 50u) << "thread " << t;
  }
}

TEST(Smt4Sim, EveryPolicyMakesProgressWithFourThreads) {
  const auto suite = trace::build_smt4_suite(13);
  const trace::WorkloadSpec w = first_mix(suite);
  for (policy::PolicyKind kind : policy::all_policy_kinds()) {
    core::Simulator sim(smt4_config(kind));
    for (int t = 0; t < 4; ++t) sim.attach_thread(t, w.threads[t]);
    ASSERT_NO_THROW(sim.run(30000))
        << "policy " << policy::policy_kind_name(kind);
    EXPECT_GT(sim.stats().committed_total(), 2000u)
        << "policy " << policy::policy_kind_name(kind);
  }
}

TEST(Smt4Sim, FlushPlusPlusEntersFlushModeAtFour) {
  core::Simulator sim(smt4_config(policy::PolicyKind::kFlushPlusPlus));
  const auto suite = trace::build_smt4_suite(17);
  const trace::WorkloadSpec w = first_mix(suite);
  for (int t = 0; t < 4; ++t) sim.attach_thread(t, w.threads[t]);
  sim.run(5000);
  const auto& policy =
      dynamic_cast<const policy::FlushPlusPlusPolicy&>(sim.policy());
  EXPECT_FALSE(policy.stall_mode());
}

TEST(Smt4Sim, FlushPlusPlusActuallyFlushesWithFourThreads) {
  const auto suite = trace::build_smt4_suite(19);
  // A memory-heavy workload guarantees L2 misses.
  const trace::WorkloadSpec* mem = nullptr;
  for (const auto& w : suite) {
    if (w.type == "mem") {
      mem = &w;
      break;
    }
  }
  ASSERT_NE(mem, nullptr);

  core::Simulator sim(smt4_config(policy::PolicyKind::kFlushPlusPlus));
  for (int t = 0; t < 4; ++t) sim.attach_thread(t, mem->threads[t]);
  sim.run(60000);
  EXPECT_GT(sim.stats().policy_flushes, 0u);
}

TEST(Smt4Sim, FlushPlusPlusNeverFlushesWithTwoThreads) {
  const auto suite = trace::build_quick_suite(19, /*per_type=*/1);
  const trace::WorkloadSpec* mem = nullptr;
  for (const auto& w : suite) {
    if (w.type == "mem") {
      mem = &w;
      break;
    }
  }
  ASSERT_NE(mem, nullptr);

  core::SimConfig config = harness::paper_baseline();
  config.policy = policy::PolicyKind::kFlushPlusPlus;
  core::Simulator sim(config);
  sim.attach_thread(0, mem->threads[0]);
  sim.attach_thread(1, mem->threads[1]);
  sim.run(60000);
  EXPECT_EQ(sim.stats().policy_flushes, 0u);
}

TEST(Smt4Sweep, RunsWorkloadAndComputesFairness) {
  const auto suite = trace::build_smt4_suite(23, /*mixes_count=*/1);
  harness::RunCache cache;
  harness::SweepSpec spec;
  spec.suite = {first_mix(suite)};
  spec.cycles = 20000;
  spec.warmup = 5000;
  spec.with_fairness = true;
  spec.progress = false;
  spec.cache = &cache;
  spec.points.push_back({"CSSP", smt4_config(policy::PolicyKind::kCssp)});

  const harness::RunResult result = harness::run_sweep(spec).cells[0][0];
  for (int t = 0; t < 4; ++t) EXPECT_GT(result.ipc[t], 0.0);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.fairness, 0.0);
  EXPECT_LE(result.fairness, 1.0 + 1e-9);
}

TEST(Smt4Sweep, RejectsTwoThreadWorkloadUnderFourThreadConfig) {
  const core::SimConfig config = smt4_config(policy::PolicyKind::kIcount);
  const auto two_thread = trace::build_quick_suite(5, 1, 1);
  EXPECT_THROW(
      (void)harness::simulate_workload(config, two_thread.front(), 1000, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace clusmt
