#include "harness/runner.h"

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "common/stats.h"

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
