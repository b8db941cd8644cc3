// Figure 5: workload-imbalance analysis for Icount, CISP, CSSP and PC
// (32-entry IQs, unbounded RF/ROB).
//
// An imbalance event is a ready µop denied an issue slot in its cluster;
// it is classified "1 <class>" when the other cluster had a free compatible
// port that cycle (the machine wasted an opportunity) and "0 <class>"
// otherwise. As in the paper, the six sections are normalised to sum to
// 100% — perfect balance drives the "1 *" sections to zero.
#include <array>

#include "bench_util.h"
#include "harness/presets.h"

using namespace clusmt;

int main(int argc, char** argv) {
  const bench::BenchOptions opt =
      bench::BenchOptions::parse(argc, argv, /*default_cycles=*/120000);
  const auto suite = opt.suite();
  if (opt.handle_list(suite)) return 0;

  const std::vector<policy::PolicyKind> schemes = {
      policy::PolicyKind::kIcount, policy::PolicyKind::kCisp,
      policy::PolicyKind::kCssp, policy::PolicyKind::kPrivateClusters};

  harness::SweepSpec spec = opt.sweep(suite);
  spec.base = harness::iq_study_config(32);
  spec.axes = {bench::scheme_axis(schemes)};

  const harness::SweepResult res = harness::run_sweep(spec);

  Table doc({"category/scheme", "0 Integer", "0 Fp/Simd", "0 Mem",
             "1 Integer", "1 Fp/Simd", "1 Mem"});

  for (std::size_t p = 0; p < res.points.size(); ++p) {
    const auto& results = res.cells[p];

    // Aggregate the six event counters per category.
    auto rows = trace::category_display_order();
    rows.push_back("AVG");
    for (const std::string& category : rows) {
      std::array<double, 6> events = {};
      for (std::size_t i = 0; i < suite.size(); ++i) {
        if (category != "AVG" && suite[i].category != category) continue;
        for (int other = 0; other < 2; ++other) {
          for (int k = 0; k < trace::kNumPortClasses; ++k) {
            events[other * 3 + k] += static_cast<double>(
                results[i].stats.imbalance_events[other][k]);
          }
        }
      }
      double total = 0;
      for (double e : events) total += e;
      if (total == 0) continue;
      std::vector<std::string> cells = {category + "/" + res.points[p].label};
      for (double e : events) {
        cells.push_back(format_double(100.0 * e / total, 1));
      }
      doc.add_row(std::move(cells));
    }
  }

  std::printf(
      "Figure 5 — Workload imbalance breakdown (%% of imbalance events;\n"
      "'1 <class>' = the other cluster had a free compatible slot)\n\n%s\n",
      doc.render_text().c_str());
  bench::emit_doc(doc, opt);
  return 0;
}
