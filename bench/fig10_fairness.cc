// Figure 10: fairness improvement vs Icount for Stall, Flush+, CSSP and
// CDPRF. Fairness is the Gabor/Luo metric (min ratio of thread slowdowns
// relative to single-threaded execution); bars are fairness(scheme) /
// fairness(Icount) per workload, averaged per category (paper §5.2).
#include "bench_util.h"
#include "common/cli.h"
#include "harness/presets.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::BenchOptions::parse(
      argc, argv, /*default_cycles=*/200000, /*default_warmup=*/80000);
  const CliArgs args(argc, argv);
  const Cycle interval = static_cast<Cycle>(args.get_int("interval", 32768, 0));
  const auto suite = opt.suite();
  if (opt.handle_list(suite)) return 0;

  harness::SweepSpec spec = opt.sweep(suite);
  spec.base = harness::rf_study_config(64);
  spec.base.policy_config.cdprf_interval = interval;
  spec.axes = {bench::scheme_axis(
      {policy::PolicyKind::kIcount, policy::PolicyKind::kStall,
       policy::PolicyKind::kFlushPlus, policy::PolicyKind::kCssp,
       policy::PolicyKind::kCdprf})};
  spec.with_fairness = true;

  const harness::SweepResult res = harness::run_sweep(spec);
  const auto base = res.fairness(res.point_index("Icount"));

  std::vector<std::pair<std::string, std::vector<double>>> series;
  for (std::size_t p = 1; p < res.points.size(); ++p) {
    series.emplace_back(res.points[p].label,
                        harness::ratio_to_baseline(res.fairness(p), base));
  }

  bench::emit_category_table(
      "Figure 10 — Fairness speedup vs Icount (64 regs/cluster)", suite,
      series, opt);
  return 0;
}
