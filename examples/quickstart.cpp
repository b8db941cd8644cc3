// Quickstart: build a two-thread workload, run it under two resource
// assignment schemes, and print the headline metrics.
//
//   ./examples/quickstart [--cycles N] [--policy NAME] [--seed S]
//
// This walks the whole public API surface: trace profiles -> workload
// specs -> SimConfig -> sweep (one point per scheme) -> RunResult/SimStats.
#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "harness/presets.h"
#include "harness/sweep.h"
#include "trace/workload.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Cycle cycles = static_cast<Cycle>(args.get_int("cycles", 100000, 0));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // 1. Pick two traces from the Table 2 pool: a branchy integer program and
  //    a memory-bound floating-point one.
  trace::TracePool pool(seed);
  trace::WorkloadSpec workload;
  workload.category = "demo";
  workload.type = "mix";
  workload.name = "quickstart.mix";
  workload.threads = {
      pool.get(trace::Category::kISpec00, trace::TraceKind::kIlp, 0),
      pool.get(trace::Category::kFSpec00, trace::TraceKind::kMem, 0),
  };

  // 2. Configure the machine (paper Table 1 baseline) and choose schemes.
  const std::string requested = args.get_string("policy", "");
  std::vector<policy::PolicyKind> schemes;
  if (requested.empty()) {
    schemes = {policy::PolicyKind::kIcount, policy::PolicyKind::kCdprf};
  } else {
    const auto kind = policy::parse_policy_kind(requested);
    if (!kind) {
      std::fprintf(stderr, "unknown policy '%s'\n", requested.c_str());
      return 1;
    }
    schemes = {*kind};
  }

  // 3. Run the one-workload grid; with_fairness adds the single-thread
  //    baselines the fairness metric needs.
  harness::SweepSpec spec;
  spec.suite = {workload};
  spec.cycles = cycles;
  spec.with_fairness = true;
  spec.progress = false;
  for (policy::PolicyKind kind : schemes) {
    core::SimConfig config = harness::paper_baseline();
    config.policy = kind;
    spec.points.push_back(
        {std::string(policy::policy_kind_name(kind)), config});
  }
  const harness::SweepResult res = harness::run_sweep(spec);

  Table table({"scheme", "throughput (uops/cyc)", "IPC[t0]", "IPC[t1]",
               "copies/retired", "IQ stalls/retired", "fairness"});
  for (std::size_t p = 0; p < res.points.size(); ++p) {
    const harness::RunResult& result = res.cells[p][0];
    table.new_row()
        .add_cell(res.points[p].label)
        .add_cell(result.throughput)
        .add_cell(result.ipc[0])
        .add_cell(result.ipc[1])
        .add_cell(result.stats.copies_per_retired())
        .add_cell(result.stats.iq_stalls_per_retired())
        .add_cell(result.fairness);
  }
  std::printf("clusmt quickstart — %llu cycles per run\n\n%s\n",
              static_cast<unsigned long long>(cycles),
              table.render_text().c_str());
  std::puts("Tip: --policy CSSP (or Stall, Flush+, CISP, CSPSP, PC, CSSPRF,");
  std::puts("CISPRF, CDPRF — or the extensions Flush++, DCRA, HillClimb,");
  std::puts("UnreadyGate) selects a single scheme; --cycles N scales runs.");
  return 0;
}
