// Figure 9: CDPRF on the ISPEC-FSPEC category — per-workload throughput of
// CSSP, CSSPRF, CISPRF and CDPRF (normalised to Icount), plus the category
// average (AVG) and the all-categories average (AVG All).
//
// ISPEC-FSPEC pairs an integer-register-hungry trace with an FP-hungry one:
// static RF halving underutilises both files, and the dynamic scheme
// recovers the loss (paper §5.2).
//
// Extra flag: --interval N  (CDPRF measurement interval; default 32768 —
// the paper's 128K assumes full-length traces, we scale it to bench runs).
//
// Runs two sweeps over the same grid points (ISPEC-FSPEC subset, then the
// full suite); the RunCache serves the subset's cells to the second sweep.
#include "bench_util.h"
#include "common/cli.h"
#include "harness/presets.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::BenchOptions::parse(
      argc, argv, /*default_cycles=*/200000, /*default_warmup=*/80000);
  const CliArgs args(argc, argv);
  const Cycle interval = static_cast<Cycle>(args.get_int("interval", 32768, 0));

  const auto all = opt.suite();
  if (opt.handle_list(all)) return 0;
  const auto ispec_fspec = trace::workloads_in_category(all, "ISPEC-FSPEC");

  const std::vector<policy::PolicyKind> schemes = {
      policy::PolicyKind::kCssp, policy::PolicyKind::kCssprf,
      policy::PolicyKind::kCisprf, policy::PolicyKind::kCdprf};

  auto run_grid = [&](const std::vector<trace::WorkloadSpec>& suite) {
    harness::SweepSpec spec = opt.sweep(suite);
    {
      core::SimConfig base = harness::rf_study_config(64);
      base.policy = policy::PolicyKind::kIcount;
      spec.points.push_back({"Icount", base});
    }
    for (policy::PolicyKind kind : schemes) {
      core::SimConfig config = harness::rf_study_config(64);
      config.policy = kind;
      config.policy_config.cdprf_interval = interval;
      spec.points.push_back(
          {std::string(policy::policy_kind_name(kind)), config});
    }
    const harness::SweepResult res = harness::run_sweep(spec);

    std::vector<std::vector<double>> grid;  // [scheme][workload] speedup
    const auto baseline = res.throughput(res.point_index("Icount"));
    for (policy::PolicyKind kind : schemes) {
      const std::size_t p =
          res.point_index(std::string(policy::policy_kind_name(kind)));
      grid.push_back(harness::ratio_to_baseline(res.throughput(p), baseline));
    }
    return grid;
  };

  const auto grid = run_grid(ispec_fspec);
  const auto grid_all = run_grid(all);

  std::vector<std::string> header = {"workload"};
  for (policy::PolicyKind kind : schemes) {
    header.push_back(std::string(policy::policy_kind_name(kind)));
  }
  Table doc(std::move(header));

  auto add_row = [&](const std::string& label,
                     const std::vector<double>& values) {
    std::vector<std::string> cells = {label};
    for (double v : values) cells.push_back(format_double(v, 3));
    doc.add_row(std::move(cells));
  };

  for (std::size_t w = 0; w < ispec_fspec.size(); ++w) {
    std::vector<double> row;
    for (std::size_t s = 0; s < schemes.size(); ++s) row.push_back(grid[s][w]);
    // Label like the paper's x-axis: ilp.2.1 ... mix.2.8.
    std::string label = ispec_fspec[w].name;
    const auto pos = label.find('.');
    if (pos != std::string::npos) label = label.substr(pos + 1);
    add_row(label, row);
  }
  std::vector<double> avg(schemes.size()), avg_all(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    avg[s] = mean_of(grid[s]);
    avg_all[s] = mean_of(grid_all[s]);
  }
  add_row("AVG", avg);
  add_row("AVG All", avg_all);

  std::printf(
      "Figure 9 — CDPRF on ISPEC-FSPEC (throughput vs Icount, 64 "
      "regs/cluster,\nCDPRF interval %llu cycles)\n\n%s\n",
      static_cast<unsigned long long>(interval), doc.render_text().c_str());
  bench::emit_doc(doc, opt);
  return 0;
}
