// Scheme shootout: run one workload under *every* resource-assignment
// scheme of the paper and print a detailed comparison — the experiment an
// SMT architect would run first when evaluating a clustered design.
// Declared as a one-workload sweep: the scheme axis × a single-element
// suite, with fairness baselines shared through the run cache.
//
//   ./examples/scheme_shootout [--category ISPEC00] [--type mix]
//                              [--cycles N] [--warmup N] [--seed S]
//
// Type is "ilp", "mem" or "mix" (one ILP trace + one MEM trace).
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
  const std::string category = args.get_string("category", "ISPEC00");
  const std::string type = args.get_string("type", "mix");
  const Cycle cycles = static_cast<Cycle>(args.get_int("cycles", 150000, 0));
  const Cycle warmup = static_cast<Cycle>(args.get_int("warmup", 60000, 0));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));

  // Pick the first workload of the requested category/type from Table 2.
  const auto suite = trace::build_full_suite(seed);
  const trace::WorkloadSpec* chosen = nullptr;
  for (const auto& w : suite) {
    if (w.category == category && w.type == type) {
      chosen = &w;
      break;
    }
  }
  if (chosen == nullptr) {
    std::fprintf(stderr,
                 "no workload for category '%s' type '%s'.\n"
                 "categories: DH FSPEC00 ISPEC00 ISPEC-FSPEC multimedia "
                 "office productivity server miscellanea workstation mixes; "
                 "types: ilp mem mix\n",
                 category.c_str(), type.c_str());
    return 1;
  }
  std::printf("Workload %s: [%s] + [%s]\n\n", chosen->name.c_str(),
              chosen->threads[0].id().c_str(),
              chosen->threads[1].id().c_str());

  harness::SweepSpec spec;
  spec.suite = {*chosen};
  spec.cycles = cycles;
  spec.warmup = warmup;
  spec.with_fairness = true;
  spec.progress = false;
  for (policy::PolicyKind kind : policy::all_policy_kinds()) {
    core::SimConfig config = harness::paper_baseline();
    config.policy = kind;
    config.policy_config.cdprf_interval = 32768;  // scaled to run length
    spec.points.push_back(
        {std::string(policy::policy_kind_name(kind)), config});
  }
  const harness::SweepResult res = harness::run_sweep(spec);

  Table table({"scheme", "throughput", "IPC[0]", "IPC[1]", "fairness",
               "copies/ret", "IQstall/ret", "flushes", "squashed"});
  double icount_throughput = 0.0;
  double icount_fairness = 0.0;
  for (std::size_t p = 0; p < res.points.size(); ++p) {
    const harness::RunResult& r = res.cells[p][0];
    if (res.points[p].config.policy == policy::PolicyKind::kIcount) {
      icount_throughput = r.throughput;
      icount_fairness = r.fairness;
    }
    table.new_row()
        .add_cell(res.points[p].label)
        .add_cell(r.throughput)
        .add_cell(r.ipc[0])
        .add_cell(r.ipc[1])
        .add_cell(r.fairness)
        .add_cell(r.stats.copies_per_retired())
        .add_cell(r.stats.iq_stalls_per_retired())
        .add_cell(r.stats.policy_flushes)
        .add_cell(r.stats.squashed_uops);
  }
  std::printf("%s\n", table.render_text().c_str());
  std::printf(
      "Icount reference: throughput %.3f uops/cycle, fairness %.3f\n",
      icount_throughput, icount_fairness);
  return 0;
}
