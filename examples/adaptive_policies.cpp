// Tour of the future-work schemes (policy/adaptive.h): runs an asymmetric
// two-thread workload under the paper's proposal (CDPRF) and the three
// adapted monolithic-SMT schemes, then shows Flush++ switching from Stall
// semantics at two threads to Flush+ semantics at four.
//
//   ./examples/adaptive_policies [--cycles N] [--seed S]
//
// Demonstrated API surface: policy introspection (HillClimbPolicy shares,
// FlushPlusPlusPolicy::stall_mode), SimStats flush/copy counters and the
// SMT4 preset.
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "harness/sweep.h"
#include "policy/adaptive.h"
#include "trace/workload.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Cycle cycles = static_cast<Cycle>(args.get_int("cycles", 150000, 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  trace::TracePool pool(seed);

  // Part 1 — an asymmetric pairing (compute-bound integer program beside a
  // memory-bound FP program) is where adaptive partitioning matters: the
  // fixed half/half split of the static schemes fits neither thread.
  trace::WorkloadSpec workload;
  workload.category = "demo";
  workload.type = "mix";
  workload.name = "adaptive.mix";
  workload.threads = {
      pool.get(trace::Category::kISpec00, trace::TraceKind::kIlp, 0),
      pool.get(trace::Category::kFSpec00, trace::TraceKind::kMem, 0),
  };

  const std::vector<policy::PolicyKind> schemes = {
      policy::PolicyKind::kIcount,    policy::PolicyKind::kCssp,
      policy::PolicyKind::kCdprf,     policy::PolicyKind::kDcra,
      policy::PolicyKind::kHillClimb, policy::PolicyKind::kUnreadyGate,
  };

  harness::SweepSpec spec;
  spec.suite = {workload};
  spec.cycles = cycles;
  spec.with_fairness = true;
  spec.progress = false;
  for (policy::PolicyKind kind : schemes) {
    core::SimConfig config = harness::paper_baseline();
    config.policy = kind;
    config.policy_config.hillclimb_epoch = 4096;  // several rounds per run
    spec.points.push_back(
        {std::string(policy::policy_kind_name(kind)), config});
  }
  const harness::SweepResult res = harness::run_sweep(spec);

  Table table({"scheme", "throughput", "IPC[t0]", "IPC[t1]", "copies/ret",
               "fairness"});
  for (std::size_t p = 0; p < res.points.size(); ++p) {
    const harness::RunResult& result = res.cells[p][0];
    table.new_row()
        .add_cell(res.points[p].label)
        .add_cell(result.throughput)
        .add_cell(result.ipc[0])
        .add_cell(result.ipc[1])
        .add_cell(result.stats.copies_per_retired())
        .add_cell(result.fairness);
  }
  std::printf("adaptive schemes on an asymmetric 2-thread mix "
              "(%llu cycles)\n\n%s\n",
              static_cast<unsigned long long>(cycles),
              table.render_text().c_str());

  // Part 2 — watch the hill climber learn: rerun with direct Simulator
  // access and report the shares it settled on.
  {
    core::SimConfig config = harness::paper_baseline();
    config.policy = policy::PolicyKind::kHillClimb;
    config.policy_config.hillclimb_epoch = 4096;
    core::Simulator sim(config);
    sim.attach_thread(0, workload.threads[0]);
    sim.attach_thread(1, workload.threads[1]);
    sim.run(cycles);
    const auto& climber =
        dynamic_cast<const policy::HillClimbPolicy&>(sim.policy());
    std::printf("hill climber after %llu rounds: share[t0]=%.3f "
                "share[t1]=%.3f\n\n",
                static_cast<unsigned long long>(climber.rounds_completed()),
                climber.share(0), climber.share(1));
  }

  // Part 3 — Flush++ hybrid behaviour. The same memory-bound traces run
  // under two and four contexts; policy_flushes stays zero in Stall mode.
  Table fpp({"threads", "mode", "policy flushes", "throughput"});
  for (int threads : {2, 4}) {
    core::SimConfig config =
        threads == 2 ? harness::paper_baseline() : harness::smt4_baseline();
    config.policy = policy::PolicyKind::kFlushPlusPlus;
    core::Simulator sim(config);
    for (int t = 0; t < threads; ++t) {
      sim.attach_thread(
          t, pool.get(trace::Category::kServer, trace::TraceKind::kMem,
                      t % trace::TracePool::kVariantsPerKind));
    }
    sim.run(cycles);
    const auto& policy =
        dynamic_cast<const policy::FlushPlusPlusPolicy&>(sim.policy());
    fpp.new_row()
        .add_cell(static_cast<std::uint64_t>(threads))
        .add_cell(std::string(policy.stall_mode() ? "Stall" : "Flush+"))
        .add_cell(sim.stats().policy_flushes)
        .add_cell(sim.stats().throughput());
  }
  std::printf("Flush++ hybrid on memory-bound server traces\n\n%s\n",
              fpp.render_text().c_str());
  return 0;
}
