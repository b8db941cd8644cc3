#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/faultpoint.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

TEST(Presets, MatchPaperMethodology) {
  const core::SimConfig base = paper_baseline();
  EXPECT_EQ(base.iq_entries, 32);
  EXPECT_EQ(base.int_regs, 64);
  EXPECT_EQ(base.rob_entries, 128);
  EXPECT_FALSE(base.rf_unbounded());

  const core::SimConfig iq = iq_study_config(64);
  EXPECT_EQ(iq.iq_entries, 64);
  EXPECT_TRUE(iq.rf_unbounded());
  EXPECT_EQ(iq.effective_rob_entries(), 4096);

  const core::SimConfig rf = rf_study_config(128);
  EXPECT_EQ(rf.int_regs, 128);
  EXPECT_EQ(rf.fp_regs, 128);
}

TEST(SimulateWorkload, DeterministicAcrossCalls) {
  const auto suite = trace::build_quick_suite(1, 1, 1);
  const RunResult a = simulate_workload(paper_baseline(), suite[0], 4000, 1000);
  const RunResult b = simulate_workload(paper_baseline(), suite[0], 4000, 1000);
  EXPECT_EQ(a.stats.committed_total(), b.stats.committed_total());
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(SimulateWorkload, RejectsThreadCountMismatch) {
  trace::WorkloadSpec bad;
  bad.name = "bad";
  bad.threads.resize(1);  // config expects 2
  EXPECT_THROW((void)simulate_workload(paper_baseline(), bad, 1000, 0),
               std::invalid_argument);
}

TEST(BaselineRun, SimulatedOncePerTrace) {
  const auto suite = trace::build_quick_suite(1, 1, 1);
  RunCache cache;
  const trace::TraceSpec& trace = suite[0].threads[0];
  const double first =
      baseline_run(cache, paper_baseline(), trace, 3000, 1000).ipc[0];
  const double second =
      baseline_run(cache, paper_baseline(), trace, 3000, 1000).ipc[0];
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

// Regression: the baseline cache used to key by workload *name*, so two
// distinct traces sharing a name silently served one trace's IPC for both.
// Content keying must give each its own baseline.
TEST(BaselineRun, KeyedByContentNotName) {
  const auto suite = trace::build_quick_suite(1, 1, 1);
  RunCache cache;
  const auto ipc = [&](const trace::TraceSpec& trace) {
    return baseline_run(cache, paper_baseline(), trace, 3000, 1000).ipc[0];
  };

  trace::TraceSpec ilp = suite[0].threads[0];
  trace::TraceSpec mem = ilp;  // same display name...
  mem.seed ^= 0x9e3779b97f4a7c15ull;
  mem.profile.dep_geo_p = 0.9;  // ...but a very different program
  mem.profile.chase_fraction = 0.3;
  ASSERT_EQ(ilp.id(), mem.id());

  const double ipc_ilp = ipc(ilp);
  const double ipc_mem = ipc(mem);
  EXPECT_GT(ipc_ilp, 0.0);
  EXPECT_GT(ipc_mem, 0.0);
  EXPECT_NE(ipc_ilp, ipc_mem);

  // And identical content under a different name shares the cached run.
  trace::TraceSpec alias = ilp;
  alias.profile.name = "alias-of-" + ilp.id();
  EXPECT_DOUBLE_EQ(ipc(alias), ipc_ilp);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(RunSweep, CellsFollowSuiteOrderWithFairnessInUnitInterval) {
  const auto quick = trace::build_quick_suite(3, 1, 2);
  RunCache cache;
  SweepSpec spec;
  spec.suite.assign(quick.begin(), quick.begin() + 3);
  spec.cycles = 3000;
  spec.warmup = 1000;
  spec.with_fairness = true;
  spec.jobs = 2;
  spec.progress = false;
  spec.cache = &cache;
  spec.points.push_back({"base", paper_baseline()});

  const SweepResult res = run_sweep(spec);
  ASSERT_EQ(res.cells.size(), 1u);
  ASSERT_EQ(res.cells[0].size(), spec.suite.size());
  for (std::size_t i = 0; i < spec.suite.size(); ++i) {
    const RunResult& r = res.cells[0][i];
    EXPECT_EQ(r.workload, spec.suite[i].name);
    EXPECT_EQ(r.category, spec.suite[i].category);
    EXPECT_GT(r.throughput, 0.0);
    EXPECT_GT(r.fairness, 0.0);
    EXPECT_LE(r.fairness, 1.0);
  }
}

TEST(ByCategory, AggregatesInDisplayOrderWithAvg) {
  const auto suite = trace::build_quick_suite(1, 1, 2);
  std::vector<double> metric(suite.size());
  for (std::size_t i = 0; i < metric.size(); ++i) {
    metric[i] = static_cast<double>(i + 1);
  }
  const auto rows = by_category(suite, metric);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back().first, "AVG");
  double expected_avg = 0;
  for (double m : metric) expected_avg += m;
  expected_avg /= static_cast<double>(metric.size());
  EXPECT_NEAR(rows.back().second, expected_avg, 1e-12);
  // Categories appear in display order.
  const auto& order = trace::category_display_order();
  std::size_t cursor = 0;
  for (std::size_t r = 0; r + 1 < rows.size(); ++r) {
    while (cursor < order.size() && order[cursor] != rows[r].first) ++cursor;
    EXPECT_LT(cursor, order.size()) << "unexpected row " << rows[r].first;
  }
}

TEST(ByCategory, SizeMismatchThrows) {
  const auto suite = trace::build_quick_suite(1, 1, 1);
  EXPECT_THROW((void)by_category(suite, std::vector<double>(1)),
               std::invalid_argument);
}

TEST(RunCacheDegrade, ConsecutiveSaveFailuresDemoteTheStoreToReadOnly) {
  const std::string dir = ::testing::TempDir() + "clusmt_degrade_store";
  RunCache cache;
  cache.set_store_dir(dir);
  ASSERT_FALSE(cache.store_write_degraded());

  // Every spill fails, as on a full disk. One failure is not degradation
  // (a transient); kDegradeAfterSaveFailures consecutive ones are.
  faultpoint::arm("run_store.save", faultpoint::Mode::kError);
  const auto fill = [&](std::uint64_t from, std::uint64_t n) {
    for (std::uint64_t i = from; i < from + n; ++i) {
      (void)cache.get_or_run(RunKey{i, ~i}, [] { return RunResult{}; });
    }
  };
  fill(0, 1);
  EXPECT_FALSE(cache.store_write_degraded()) << "one failure is transient";
  EXPECT_EQ(cache.save_failures(), 1u);
  fill(1, RunCache::kDegradeAfterSaveFailures - 1);
  EXPECT_TRUE(cache.store_write_degraded());
  const std::uint64_t failures_at_degrade = cache.save_failures();

  // Degraded = memory-only: further cells compute fine, attempt no saves.
  faultpoint::disarm_all();  // the disk "recovers" — too late, we stopped
  fill(100, 3);
  EXPECT_EQ(cache.save_failures(), failures_at_degrade)
      << "degraded cache must stop attempting saves";
  EXPECT_TRUE(cache.store_write_degraded());
  EXPECT_EQ(cache.misses(),
            static_cast<std::uint64_t>(RunCache::kDegradeAfterSaveFailures) +
                3)
      << "every cell still computes and memoizes";

  // Re-attaching a store clears the demotion and saves flow again.
  cache.set_store_dir(dir);
  EXPECT_FALSE(cache.store_write_degraded());
  fill(200, 1);
  EXPECT_EQ(cache.save_failures(), failures_at_degrade)
      << "healthy disk: no new failures";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(RunCacheDegrade, RecoveryBetweenFailuresResetsTheStrikeCount) {
  const std::string dir = ::testing::TempDir() + "clusmt_flaky_store";
  RunCache cache;
  cache.set_store_dir(dir);

  std::uint64_t next = 0;
  const auto one = [&] {
    (void)cache.get_or_run(RunKey{next, ~next}, [] { return RunResult{}; });
    ++next;
  };
  // Alternate fail/succeed well past the threshold: never degrades,
  // because the failures are not consecutive.
  for (int i = 0; i < 2 * RunCache::kDegradeAfterSaveFailures; ++i) {
    faultpoint::arm("run_store.save", faultpoint::Mode::kError);
    one();
    faultpoint::disarm_all();
    one();
  }
  EXPECT_FALSE(cache.store_write_degraded());
  EXPECT_EQ(cache.save_failures(),
            static_cast<std::uint64_t>(2 * RunCache::kDegradeAfterSaveFailures));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace clusmt::harness
