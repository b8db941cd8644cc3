#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/run_key.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace clusmt::harness {
namespace {

std::vector<trace::WorkloadSpec> tiny_suite(std::size_t n) {
  auto suite = trace::build_quick_suite(1, 1, 2);
  suite.resize(std::min(n, suite.size()));
  return suite;
}

// ---- RunKey --------------------------------------------------------------

TEST(RunKey, SensitiveToEveryRunInput) {
  const auto suite = tiny_suite(1);
  const core::SimConfig base = paper_baseline();
  const RunKey key = run_key(base, suite[0], 1000, 200);
  EXPECT_EQ(run_key(base, suite[0], 1000, 200), key);

  core::SimConfig other = base;
  other.policy = policy::PolicyKind::kCssp;
  EXPECT_NE(run_key(other, suite[0], 1000, 200), key);
  other = base;
  other.policy_config.cdprf_interval = 4096;
  EXPECT_NE(run_key(other, suite[0], 1000, 200), key);

  EXPECT_NE(run_key(base, suite[0], 2000, 200), key);
  EXPECT_NE(run_key(base, suite[0], 1000, 100), key);

  trace::WorkloadSpec reseeded = suite[0];
  reseeded.threads[0].seed ^= 1;
  EXPECT_NE(run_key(base, reseeded, 1000, 200), key);
}

TEST(RunKey, SensitiveToEveryClusterShapeField) {
  // Heterogeneous grids: every per-cluster shape field, the width scalar
  // and every link-matrix slot must perturb the content hash — a missed
  // field silently merges cache entries for different machines.
  const auto suite = tiny_suite(1);
  const core::SimConfig base = paper_baseline();
  const RunKey key = run_key(base, suite[0], 1000, 200);

  const auto perturbed = [&](void (*mutate)(core::SimConfig&)) {
    core::SimConfig other = base;
    mutate(other);
    return run_key(other, suite[0], 1000, 200);
  };
  EXPECT_NE(perturbed([](core::SimConfig& c) { c.issue_width = 4; }), key);
  for (int cl = 0; cl < kMaxClusters; ++cl) {
    core::SimConfig other = base;
    other.shape[cl].issue_width = 2;
    EXPECT_NE(run_key(other, suite[0], 1000, 200), key) << "width " << cl;
    other = base;
    other.shape[cl].iq_entries = 48;
    EXPECT_NE(run_key(other, suite[0], 1000, 200), key) << "iq " << cl;
    other = base;
    other.shape[cl].int_regs = 96;
    EXPECT_NE(run_key(other, suite[0], 1000, 200), key) << "int " << cl;
    other = base;
    other.shape[cl].fp_regs = 96;
    EXPECT_NE(run_key(other, suite[0], 1000, 200), key) << "fp " << cl;
  }
  for (int from = 0; from < kMaxClusters; ++from) {
    for (int to = 0; to < kMaxClusters; ++to) {
      core::SimConfig other = base;
      other.link_latency_cc[from][to] = 9;
      EXPECT_NE(run_key(other, suite[0], 1000, 200), key)
          << "link " << from << "->" << to;
    }
  }
  // Distinct fields must not alias each other either: the same value in
  // a different slot is a different machine.
  core::SimConfig a = base;
  a.shape[0].iq_entries = 48;
  core::SimConfig b = base;
  b.shape[1].iq_entries = 48;
  EXPECT_NE(run_key(a, suite[0], 1000, 200),
            run_key(b, suite[0], 1000, 200));
}

TEST(RunKey, TraceContentNotNameIsIdentity) {
  const auto suite = tiny_suite(1);
  trace::TraceSpec a = suite[0].threads[0];
  trace::TraceSpec b = a;

  // Same content, different display name: identical keys (shared runs).
  b.profile.name = "an-alias";
  EXPECT_EQ(trace_content_key(a), trace_content_key(b));

  // Same name, different content: distinct keys (no collision).
  b = a;
  b.seed ^= 1;
  EXPECT_NE(trace_content_key(a), trace_content_key(b));
  b = a;
  b.profile.dep_geo_p += 0.25;
  EXPECT_NE(trace_content_key(a), trace_content_key(b));
}

TEST(BaselineConfig, SingleThreadIcountSharedAcrossSchemeKnobs) {
  core::SimConfig a = rf_study_config(64);
  a.policy = policy::PolicyKind::kCdprf;
  a.policy_config.cdprf_interval = 8192;
  core::SimConfig b = rf_study_config(64);
  b.policy = policy::PolicyKind::kCssp;

  Fnv1a ha, hb;
  hash_config(ha, baseline_config(a));
  hash_config(hb, baseline_config(b));
  EXPECT_EQ(ha.digest(), hb.digest());
  EXPECT_EQ(baseline_config(a).num_threads, 1);
  EXPECT_EQ(baseline_config(a).policy, policy::PolicyKind::kIcount);
}

// ---- RunCache ------------------------------------------------------------

TEST(RunCache, ComputesOncePerKeyUnderContention) {
  RunCache cache;
  const RunKey key{1, 2};
  std::atomic<int> computes{0};
  ThreadPool pool(8);
  std::vector<std::future<RunResult>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit_task([&] {
      return cache.get_or_run(key, [&] {
        computes.fetch_add(1);
        RunResult r;
        r.throughput = 3.5;
        return r;
      });
    }));
  }
  for (auto& f : futures) EXPECT_DOUBLE_EQ(f.get().throughput, 3.5);
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 63u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCache, DistinctKeysComputeSeparately) {
  RunCache cache;
  auto make = [](double v) {
    RunResult r;
    r.throughput = v;
    return r;
  };
  EXPECT_DOUBLE_EQ(
      cache.get_or_run(RunKey{1, 1}, [&] { return make(1.0); }).throughput,
      1.0);
  EXPECT_DOUBLE_EQ(
      cache.get_or_run(RunKey{1, 2}, [&] { return make(2.0); }).throughput,
      2.0);
  // Second request for key {1,1} must not re-run compute.
  EXPECT_DOUBLE_EQ(
      cache.get_or_run(RunKey{1, 1}, [&] { return make(9.0); }).throughput,
      1.0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// ---- SweepSpec expansion -------------------------------------------------

TEST(SweepSpec, ExpandsAxisProductFirstAxisSlowest) {
  SweepSpec spec;
  spec.base = paper_baseline();
  spec.axes = {
      {"iq",
       {{"32", [](core::SimConfig& c) { c.iq_entries = 32; }},
        {"64", [](core::SimConfig& c) { c.iq_entries = 64; }}}},
      {"scheme",
       {{"A", [](core::SimConfig& c) { c.policy = policy::PolicyKind::kIcount; }},
        {"B", [](core::SimConfig& c) { c.policy = policy::PolicyKind::kCssp; }},
        {"C", [](core::SimConfig& c) { c.policy = policy::PolicyKind::kCisp; }}}},
  };
  core::SimConfig extra = paper_baseline();
  extra.iq_entries = 7;
  spec.points.push_back({"extra", extra});

  const auto points = spec.expand_points();
  ASSERT_EQ(points.size(), 7u);
  EXPECT_EQ(points[0].label, "32@A");
  EXPECT_EQ(points[1].label, "32@B");
  EXPECT_EQ(points[2].label, "32@C");
  EXPECT_EQ(points[3].label, "64@A");
  EXPECT_EQ(points[5].label, "64@C");
  EXPECT_EQ(points[6].label, "extra");
  EXPECT_EQ(points[4].config.iq_entries, 64);
  EXPECT_EQ(points[4].config.policy, policy::PolicyKind::kCssp);
  EXPECT_EQ(points[6].config.iq_entries, 7);
}

TEST(SweepSpec, LabelFnOverridesComposition) {
  SweepSpec spec;
  spec.axes = {{"x", {{"1", {}}, {"2", {}}}}};
  spec.label_fn = [](const std::vector<std::string>& parts) {
    return "p" + parts[0];
  };
  const auto points = spec.expand_points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].label, "p1");
  EXPECT_EQ(points[1].label, "p2");
}

// ---- run_sweep -----------------------------------------------------------

SweepSpec small_sweep(std::size_t jobs, RunCache* cache) {
  SweepSpec spec;
  spec.suite = tiny_suite(3);
  spec.cycles = 2000;
  spec.warmup = 500;
  spec.jobs = jobs;
  spec.with_fairness = true;
  spec.progress = false;
  spec.cache = cache;
  spec.base = paper_baseline();
  spec.axes = {{"scheme",
                {{"Icount",
                  [](core::SimConfig& c) {
                    c.policy = policy::PolicyKind::kIcount;
                  }},
                 {"CSSP", [](core::SimConfig& c) {
                    c.policy = policy::PolicyKind::kCssp;
                  }}}}};
  return spec;
}

TEST(RunSweep, MetricTablesBitIdenticalAcrossJobCounts) {
  RunCache cache1, cache8;
  const SweepResult serial = run_sweep(small_sweep(1, &cache1));
  const SweepResult parallel = run_sweep(small_sweep(8, &cache8));

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  ASSERT_EQ(serial.suite.size(), parallel.suite.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    for (std::size_t w = 0; w < serial.suite.size(); ++w) {
      const RunResult& a = serial.cells[p][w];
      const RunResult& b = parallel.cells[p][w];
      EXPECT_EQ(a.stats.committed_total(), b.stats.committed_total());
      EXPECT_EQ(a.throughput, b.throughput);  // bit-identical, not near
      EXPECT_EQ(a.fairness, b.fairness);
      for (int t = 0; t < kMaxThreads; ++t) EXPECT_EQ(a.ipc[t], b.ipc[t]);
    }
  }
}

TEST(RunSweep, RepeatedPointsHitTheCache) {
  RunCache cache;
  SweepSpec spec;
  spec.suite = tiny_suite(2);
  spec.cycles = 1500;
  spec.warmup = 0;
  spec.jobs = 2;
  spec.progress = false;
  spec.cache = &cache;
  core::SimConfig config = paper_baseline();
  spec.points.push_back({"first", config});
  spec.points.push_back({"duplicate", config});  // identical content

  const SweepResult res = run_sweep(spec);
  // 2 points x 2 workloads = 4 requests over 2 distinct cells.
  EXPECT_EQ(res.cache_misses, 2u);
  EXPECT_EQ(res.cache_hits, 2u);
  for (std::size_t w = 0; w < res.suite.size(); ++w) {
    EXPECT_EQ(res.cells[0][w].throughput, res.cells[1][w].throughput);
  }

  // Re-running the same sweep on the same cache simulates nothing new.
  const SweepResult again = run_sweep(spec);
  EXPECT_EQ(again.cache_misses, 0u);
  EXPECT_EQ(again.cache_hits, 4u);
}

TEST(RunSweep, FairnessBaselinesSharedAcrossPoints) {
  RunCache cache;
  SweepSpec spec = small_sweep(2, &cache);
  const std::size_t workloads = spec.suite.size();

  // Unique baseline traces across the suite (by content).
  std::map<RunKey, int> unique;
  for (const auto& w : spec.suite) {
    for (const auto& t : w.threads) ++unique[trace_content_key(t)];
  }

  const SweepResult res = run_sweep(spec);
  // Both scheme points share one Icount baseline machine, so the baselines
  // are simulated once each: cells = 2 x workloads, baselines = unique.
  EXPECT_EQ(res.cache_misses, 2 * workloads + unique.size());
  EXPECT_GT(res.cache_hits, 0u);
}

TEST(RunSweep, PointIndexAndMetricShaping) {
  RunCache cache;
  const SweepResult res = run_sweep(small_sweep(2, &cache));
  EXPECT_EQ(res.point_index("Icount"), 0u);
  EXPECT_EQ(res.point_index("CSSP"), 1u);
  EXPECT_THROW((void)res.point_index("nope"), std::out_of_range);

  const auto thr = res.throughput(0);
  ASSERT_EQ(thr.size(), res.suite.size());
  for (double v : thr) EXPECT_GT(v, 0.0);

  const auto ratio = ratio_to_baseline(res.throughput(1), thr);
  for (double v : ratio) EXPECT_GT(v, 0.0);
  EXPECT_THROW((void)ratio_to_baseline(thr, std::vector<double>(1)),
               std::invalid_argument);
}

TEST(RunSweep, CellExceptionPropagates) {
  RunCache cache;
  SweepSpec spec;
  spec.suite = tiny_suite(1);
  spec.cycles = 500;
  spec.jobs = 2;
  spec.progress = false;
  spec.cache = &cache;
  core::SimConfig bad = paper_baseline();
  bad.num_threads = 4;  // two-thread workloads: every cell throws
  spec.points.push_back({"bad", bad});
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);
}

// ---- Result tables -------------------------------------------------------

TEST(CategoryTable, MatchesByCategoryAggregation) {
  const auto suite = tiny_suite(3);
  std::vector<double> metric(suite.size());
  for (std::size_t i = 0; i < metric.size(); ++i) {
    metric[i] = static_cast<double>(i + 1);
  }
  const Table doc = category_table(suite, {{"m", metric}});
  ASSERT_GE(doc.rows().size(), 1u);
  EXPECT_EQ(doc.header().front(), "category");
  EXPECT_EQ(doc.header().back(), "m");
  EXPECT_EQ(doc.rows().back().front(), "AVG");

  const std::string csv = doc.to_csv();
  EXPECT_NE(csv.find("category,m"), std::string::npos);
  const std::string json = doc.to_json();
  EXPECT_NE(json.find("\"category\": \"AVG\""), std::string::npos);
}

}  // namespace
}  // namespace clusmt::harness
