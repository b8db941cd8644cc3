// Table 2: the workload suite. Prints the per-category workload counts of
// the paper and a measured characterisation of every trace in the pool
// (single-thread IPC, cache miss rates, branch misprediction rate) so the
// ILP/MEM classification can be verified quantitatively.
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/simulator.h"
#include "harness/presets.h"

using namespace clusmt;

namespace {

struct TraceCharacter {
  double ipc = 0;
  double l1_miss = 0;
  double l2_miss = 0;       // of L2 accesses
  double l2_mpki = 0;       // L2 misses per kilo-instruction
  double bp_misp_rate = 0;  // resolved mispredicts per branch
  double tc_hit = 0;
  double copies = 0;        // inter-cluster copies per retired µop
};

TraceCharacter characterise(const trace::TraceSpec& spec, Cycle warmup,
                            Cycle cycles) {
  core::SimConfig config = harness::paper_baseline();
  config.num_threads = 1;
  core::Simulator sim(config);
  sim.attach_thread(0, spec);
  if (warmup > 0) {
    sim.run(warmup);
    sim.reset_stats();
  }
  sim.run(cycles);
  const auto& stats = sim.stats();
  const auto& l1 = sim.hierarchy().l1_stats();
  const auto& l2 = sim.hierarchy().l2_stats();
  const auto& fetch = sim.fetch_engine();
  TraceCharacter out;
  out.ipc = stats.ipc(0);
  out.l1_miss = 1.0 - l1.hit_rate();
  out.l2_miss = l2.accesses ? 1.0 - l2.hit_rate() : 0.0;
  out.l2_mpki = stats.committed[0]
                    ? 1000.0 * static_cast<double>(l2.misses()) /
                          static_cast<double>(stats.committed[0])
                    : 0.0;
  out.bp_misp_rate =
      stats.branches_resolved
          ? static_cast<double>(stats.mispredicts_resolved) /
                static_cast<double>(stats.branches_resolved)
          : 0.0;
  out.tc_hit = fetch.stats().fetch_cycles
                   ? static_cast<double>(fetch.stats().tc_hit_cycles) /
                         static_cast<double>(fetch.stats().fetch_cycles)
                   : 0.0;
  out.copies = stats.copies_per_retired();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt =
      bench::BenchOptions::parse(argc, argv, /*default_cycles=*/60000);

  // Part 1: Table 2 — suite composition.
  {
    auto suite = trace::build_full_suite(opt.seed);
    opt.apply_filter(suite);
    if (opt.handle_list(suite)) return 0;
    std::map<std::string, std::map<std::string, int>> counts;
    for (const auto& w : suite) ++counts[w.category][w.type];
    Table table({"Category", "ILP", "MEM", "MIX", "#wkloads"});
    for (const auto& category : trace::category_display_order()) {
      const auto it = counts.find(category);
      if (it == counts.end()) continue;
      int total = 0;
      for (const auto& [_, n] : it->second) total += n;
      table.new_row()
          .add_cell(category)
          .add_cell(static_cast<std::uint64_t>(it->second["ilp"]))
          .add_cell(static_cast<std::uint64_t>(it->second["mem"]))
          .add_cell(static_cast<std::uint64_t>(it->second["mix"]))
          .add_cell(static_cast<std::uint64_t>(total));
    }
    std::printf(
        "Table 2 — Benchmark suite (%zu two-threaded workloads)\n\n%s\n",
        suite.size(), table.render_text().c_str());
  }

  // Part 2: measured characterisation of the trace pool, one trace per
  // parallel_for index. The printed table has display headers; --csv/--json
  // get the same cells under machine-friendly column names.
  {
    trace::TracePool pool(opt.seed);
    const auto& traces = pool.all();
    std::vector<TraceCharacter> chars(traces.size());
    parallel_for(
        traces.size(),
        [&](std::size_t i) {
          chars[i] = characterise(traces[i], opt.warmup, opt.cycles);
        },
        opt.jobs);

    Table doc({"trace", "ipc", "l1_miss", "l2_miss", "l2_mpki", "bp_misp",
               "tc_hit", "copies"});
    Table table({"trace", "IPC", "L1 miss", "L2 miss", "L2 MPKI", "BP misp",
                 "TC hit", "copies"});
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const auto& c = chars[i];
      std::vector<std::string> cells = {
          traces[i].id(),           format_double(c.ipc, 2),
          format_double(c.l1_miss, 3), format_double(c.l2_miss, 3),
          format_double(c.l2_mpki, 1), format_double(c.bp_misp_rate, 3),
          format_double(c.tc_hit, 3),  format_double(c.copies, 3)};
      table.add_row(cells);
      doc.add_row(std::move(cells));
    }
    std::printf("Trace pool characterisation (single-thread, %llu cycles)\n\n%s\n",
                static_cast<unsigned long long>(opt.cycles),
                table.render_text().c_str());
    bench::emit_doc(doc, opt);
  }
  return 0;
}
