// Energy report: run one workload under several schemes and print the
// full per-component energy breakdown (core/energy.h) — front end, issue
// queues, register files, execution, memory, interconnect, squash waste
// and static/clock — plus the derived efficiency metrics.
//
//   ./examples/energy_report [--cycles N] [--seed S] [--policy NAME]
//
// The component split shows *why* schemes differ: Flush+ pays in the
// "wasted" column (squash recovery), CSSP in "interconnect" (copies),
// PC saves both but commits less work per cycle.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/energy.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "trace/workload.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Cycle cycles = static_cast<Cycle>(args.get_int("cycles", 120000, 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::vector<policy::PolicyKind> schemes = {
      policy::PolicyKind::kIcount, policy::PolicyKind::kFlushPlus,
      policy::PolicyKind::kCssp, policy::PolicyKind::kPrivateClusters,
      policy::PolicyKind::kCdprf,
  };
  const std::string requested = args.get_string("policy", "");
  if (!requested.empty()) {
    const auto kind = policy::parse_policy_kind(requested);
    if (!kind) {
      std::fprintf(stderr, "unknown policy '%s'\n", requested.c_str());
      return 1;
    }
    schemes = {*kind};
  }

  trace::TracePool pool(seed);
  trace::WorkloadSpec workload;
  workload.name = "energy.mix";
  workload.threads = {
      pool.get(trace::Category::kProductivity, trace::TraceKind::kIlp, 0),
      pool.get(trace::Category::kServer, trace::TraceKind::kMem, 0),
  };

  Table table({"scheme", "front-end", "IQ", "regfile", "execute",
               "memory", "links", "wasted", "static", "pJ/µop",
               "EDP(rel)"});
  double edp_base = 0.0;
  for (policy::PolicyKind kind : schemes) {
    core::SimConfig config = harness::paper_baseline();
    config.policy = kind;
    core::Simulator sim(config);
    sim.attach_thread(0, workload.threads[0]);
    sim.attach_thread(1, workload.threads[1]);
    sim.run(cycles / 4);  // warmup
    sim.reset_stats();
    sim.run(cycles);

    const core::EnergyBreakdown e =
        core::estimate_energy(sim.stats(), config);
    const double total = e.total();
    if (edp_base == 0.0) edp_base = e.edp(sim.stats());
    auto share = [&](double component) {
      return total == 0.0 ? 0.0 : 100.0 * component / total;
    };
    table.new_row()
        .add_cell(std::string(policy::policy_kind_name(kind)))
        .add_cell(share(e.front_end), 1)
        .add_cell(share(e.issue_queue), 1)
        .add_cell(share(e.register_file), 1)
        .add_cell(share(e.execution), 1)
        .add_cell(share(e.memory), 1)
        .add_cell(share(e.interconnect), 1)
        .add_cell(share(e.wasted), 1)
        .add_cell(share(e.static_clock), 1)
        .add_cell(e.per_committed_uop(sim.stats()), 1)
        .add_cell(e.edp(sim.stats()) / edp_base);
  }

  std::printf("energy breakdown, ILP + MEM workload, %llu measured cycles\n"
              "(component columns are %% of that scheme's total energy;\n"
              " pJ/µop and EDP are the efficiency metrics — lower is "
              "better)\n\n%s\n",
              static_cast<unsigned long long>(cycles),
              table.render_text().c_str());
  return 0;
}
