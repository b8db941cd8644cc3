#include "harness/runner.h"

#include <atomic>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/metrics.h"
#include "harness/run_cache.h"
#include "harness/run_key.h"

namespace clusmt::harness {

namespace {
std::atomic<std::uint64_t> g_cycles_skipped{0};
std::atomic<std::uint64_t> g_skip_episodes{0};
}  // namespace

std::uint64_t total_cycles_skipped() noexcept {
  return g_cycles_skipped.load(std::memory_order_relaxed);
}
std::uint64_t total_skip_episodes() noexcept {
  return g_skip_episodes.load(std::memory_order_relaxed);
}

RunResult simulate_workload(const core::SimConfig& config,
                            const trace::WorkloadSpec& spec, Cycle cycles,
                            Cycle warmup) {
  if (spec.threads.size() != static_cast<std::size_t>(config.num_threads)) {
    std::ostringstream err;
    err << "workload " << spec.name << " has " << spec.threads.size()
        << " threads; config expects " << config.num_threads;
    throw std::invalid_argument(err.str());
  }
  core::Simulator sim(config);
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    sim.attach_thread(static_cast<ThreadId>(t), spec.threads[t]);
  }
  if (warmup > 0) {
    sim.run(warmup);
    sim.reset_stats();
  }
  sim.run(cycles);
  // reset_stats() above also cleared the skip tallies, so this is the
  // measured phase only.
  g_cycles_skipped.fetch_add(sim.cycles_skipped(), std::memory_order_relaxed);
  g_skip_episodes.fetch_add(sim.skip_episodes(), std::memory_order_relaxed);

  RunResult result;
  result.workload = spec.name;
  result.category = spec.category;
  result.type = spec.type;
  result.stats = sim.stats();
  result.throughput = sim.stats().throughput();
  for (int t = 0; t < config.num_threads; ++t) {
    result.ipc[t] = sim.stats().ipc(t);
  }
  return result;
}

Runner::Runner(core::SimConfig base_config, Cycle cycles, Cycle warmup,
               std::size_t host_threads)
    : config_(std::move(base_config)),
      cycles_(cycles),
      warmup_(warmup),
      host_threads_(host_threads) {}

RunResult Runner::run_workload(const trace::WorkloadSpec& spec) const {
  return simulate_workload(config_, spec, cycles_, warmup_);
}

std::vector<RunResult> Runner::run_suite(
    const std::vector<trace::WorkloadSpec>& suite) const {
  std::vector<RunResult> results(suite.size());
  parallel_for(
      suite.size(),
      [&](std::size_t i) { results[i] = run_workload(suite[i]); },
      host_threads_);
  return results;
}

double Runner::single_thread_ipc(const trace::TraceSpec& spec) const {
  return baseline_run(RunCache::instance(), config_, spec, cycles_, warmup_)
      .ipc[0];
}

double Runner::fairness_of(const RunResult& result,
                           const trace::WorkloadSpec& spec) const {
  std::vector<double> smt;
  std::vector<double> alone;
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    smt.push_back(result.ipc[t]);
    alone.push_back(single_thread_ipc(spec.threads[t]));
  }
  return core::fairness(smt, alone);
}

std::vector<RunResult> Runner::run_suite_with_fairness(
    const std::vector<trace::WorkloadSpec>& suite) const {
  // Warm the baseline cache in parallel first (unique traces only — by
  // content, so same-name-different-content traces each get a run), then
  // run the SMT configurations.
  std::vector<const trace::TraceSpec*> unique;
  {
    std::map<RunKey, const trace::TraceSpec*> seen;
    for (const auto& w : suite) {
      for (const auto& t : w.threads) seen.emplace(trace_content_key(t), &t);
    }
    for (const auto& [key, ptr] : seen) unique.push_back(ptr);
  }
  parallel_for(
      unique.size(),
      [&](std::size_t i) { (void)single_thread_ipc(*unique[i]); },
      host_threads_);

  std::vector<RunResult> results = run_suite(suite);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].fairness = fairness_of(results[i], suite[i]);
  }
  return results;
}

std::vector<std::pair<std::string, double>> by_category(
    const std::vector<trace::WorkloadSpec>& suite,
    const std::vector<double>& per_workload_metric) {
  if (suite.size() != per_workload_metric.size()) {
    throw std::invalid_argument("by_category: size mismatch");
  }
  std::vector<std::pair<std::string, double>> rows;
  RunningStats overall;
  for (const std::string& category : trace::category_display_order()) {
    RunningStats acc;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      if (suite[i].category == category) acc.add(per_workload_metric[i]);
    }
    if (acc.count() > 0) rows.emplace_back(category, acc.mean());
  }
  for (double m : per_workload_metric) overall.add(m);
  rows.emplace_back("AVG", overall.mean());
  return rows;
}

}  // namespace clusmt::harness
