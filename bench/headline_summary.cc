// Headline reproduction: the paper's abstract claims CDPRF achieves a
// 17.6% average throughput speedup over Icount while improving fairness by
// 24%. This bench measures both on the Table 1 baseline machine and prints
// paper-vs-measured. One sweep covers all three schemes; the single-thread
// fairness baselines are shared across them through the RunCache instead of
// being recomputed per scheme.
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
  spec.axes = {bench::scheme_axis({policy::PolicyKind::kIcount,
                                   policy::PolicyKind::kCssp,
                                   policy::PolicyKind::kCdprf})};
  spec.with_fairness = true;

  const harness::SweepResult res = harness::run_sweep(spec);
  const auto icount_thr = res.throughput(res.point_index("Icount"));
  const auto icount_fair = res.fairness(res.point_index("Icount"));
  const std::size_t cssp = res.point_index("CSSP");
  const std::size_t cdprf = res.point_index("CDPRF");

  const double thr_cssp =
      mean_of(harness::ratio_to_baseline(res.throughput(cssp), icount_thr));
  const double thr_cdprf =
      mean_of(harness::ratio_to_baseline(res.throughput(cdprf), icount_thr));
  const double fair_cdprf =
      mean_of(harness::ratio_to_baseline(res.fairness(cdprf), icount_fair));
  const double fair_cssp =
      mean_of(harness::ratio_to_baseline(res.fairness(cssp), icount_fair));

  Table doc({"claim", "paper", "measured"});
  doc.add_row({"CDPRF throughput speedup vs Icount", "+17.6%",
               format_double(100.0 * (thr_cdprf - 1.0), 1) + "%"});
  doc.add_row({"CDPRF fairness improvement vs Icount", "+24%",
               format_double(100.0 * (fair_cdprf - 1.0), 1) + "%"});
  doc.add_row({"CSSP throughput speedup vs Icount", "~+16%",
               format_double(100.0 * (thr_cssp - 1.0), 1) + "%"});
  doc.add_row({"CSSP fairness vs Icount", "(not headline)",
               format_double(100.0 * (fair_cssp - 1.0), 1) + "%"});

  std::printf(
      "Headline summary (%zu workloads, 64 regs/cluster, CDPRF interval "
      "%llu)\n\n%s\n",
      suite.size(), static_cast<unsigned long long>(interval),
      doc.render_text().c_str());
  bench::emit_doc(doc, opt);
  return 0;
}
