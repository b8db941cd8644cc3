// Shared plumbing for the figure-reproduction benches: common CLI flags,
// suite construction, and table emission. Grid running itself lives in the
// sweep engine (harness/sweep.h); a bench declares a SweepSpec, calls
// run_sweep, shapes the cells into per-workload series and emits them.
//
// Common flags (all benches):
//   --cycles N     simulated cycles per run (default per bench)
//   --warmup N     warmup cycles before stats reset
//   --full         run the full 120-workload suite (default: quick subset)
//   --per-type N   quick-suite workloads per (category, type)   [default 1]
//   --mixes N      quick-suite cross-category mixes             [default 8]
//   --seed S       master workload seed                          [default 1]
//   --filter SUB   keep only workloads whose name contains SUB; slices
//                  such as .ilp./.mem./.mix. run on separate hosts into
//                  separate --cache-dir stores, which tools/store_merge
//                  unions (README "Splitting a sweep across hosts")
//   --list         print the selected suite and exit
//   --csv PATH     also write the table as CSV
//   --json PATH    also write the table as JSON
//   --jobs N       host threads (default: all cores)
//   --cache-dir D  persist finished runs under D and reuse them across
//                  invocations (falls back to $CLUSMT_CACHE_DIR)
//   --golden-emit PATH  also write the table as golden JSON (the format
//                  tools/golden_diff compares; see bench/golden/)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "harness/sweep.h"
#include "policy/policy.h"
#include "trace/workload.h"

namespace clusmt::bench {

/// Monotonic wall-clock seconds for throughput benches (bench/perf_sim.cc).
[[nodiscard]] inline double wall_time_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct BenchOptions {
  Cycle cycles = 150000;
  Cycle warmup = 50000;
  bool full = false;
  int per_type = 1;
  int mixes = 8;
  std::uint64_t seed = 1;
  std::string filter;
  bool list = false;
  std::string csv_path;
  std::string json_path;
  std::string golden_path;
  std::string cache_dir;
  std::size_t jobs = 0;

  static BenchOptions parse(int argc, char** argv, Cycle default_cycles,
                            Cycle default_warmup = 50000) {
    const CliArgs args(argc, argv);
    BenchOptions opt;
    opt.cycles = static_cast<Cycle>(
        args.get_int("cycles", static_cast<std::int64_t>(default_cycles)));
    opt.warmup = static_cast<Cycle>(
        args.get_int("warmup", static_cast<std::int64_t>(default_warmup)));
    opt.full = args.get_bool("full", false);
    opt.per_type = static_cast<int>(args.get_int("per-type", 1));
    opt.mixes = static_cast<int>(args.get_int("mixes", 8));
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.filter = args.get_string("filter", "");
    opt.list = args.get_bool("list", false);
    opt.csv_path = args.get_string("csv", "");
    opt.json_path = args.get_string("json", "");
    opt.golden_path = args.get_string("golden-emit", "");
    opt.jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
    opt.cache_dir = args.get_string("cache-dir", "");
    if (opt.cache_dir.empty()) {
      if (const char* env = std::getenv("CLUSMT_CACHE_DIR")) {
        opt.cache_dir = env;
      }
    }
    // Attach the disk tier here so every bench gets --cache-dir for free:
    // all simulations funnel through the process-wide RunCache.
    harness::RunCache::instance().set_store_dir(opt.cache_dir);
    return opt;
  }

  /// Drops workloads whose name does not contain --filter.
  void apply_filter(std::vector<trace::WorkloadSpec>& suite) const {
    if (filter.empty()) return;
    std::erase_if(suite, [&](const trace::WorkloadSpec& w) {
      return w.name.find(filter) == std::string::npos;
    });
  }

  [[nodiscard]] std::vector<trace::WorkloadSpec> suite() const {
    std::vector<trace::WorkloadSpec> s =
        full ? trace::build_full_suite(seed)
             : trace::build_quick_suite(seed, per_type, mixes);
    apply_filter(s);
    return s;
  }

  /// Honors --list: prints the selected suite and returns true, in which
  /// case the bench should exit 0 without running anything.
  [[nodiscard]] bool handle_list(
      const std::vector<trace::WorkloadSpec>& suite) const {
    if (!list) return false;
    for (const auto& w : suite) {
      std::string threads;
      for (const auto& t : w.threads) {
        if (!threads.empty()) threads += " + ";
        threads += t.id();
      }
      std::printf("%-24s %-12s %-4s %s\n", w.name.c_str(),
                  w.category.c_str(), w.type.c_str(), threads.c_str());
    }
    std::printf("%zu workloads\n", suite.size());
    return true;
  }

  /// A SweepSpec with the bench-wide knobs (suite, cycle budget, host
  /// threads) filled in; the bench adds base/axes/points.
  [[nodiscard]] harness::SweepSpec sweep(
      std::vector<trace::WorkloadSpec> s) const {
    harness::SweepSpec spec;
    spec.suite = std::move(s);
    spec.cycles = cycles;
    spec.warmup = warmup;
    spec.jobs = jobs;
    return spec;
  }
};

/// Axis over resource-assignment schemes, labelled with the paper names.
[[nodiscard]] inline harness::Axis scheme_axis(
    const std::vector<policy::PolicyKind>& kinds,
    std::string name = "scheme") {
  harness::Axis axis{std::move(name), {}};
  axis.values.reserve(kinds.size());
  for (policy::PolicyKind kind : kinds) {
    axis.values.push_back(
        {std::string(policy::policy_kind_name(kind)),
         [kind](core::SimConfig& c) { c.policy = kind; }});
  }
  return axis;
}

/// Mirrors a finished table to --csv/--json/--golden-emit when given, with
/// uniform success/failure diagnostics. Every bench that renders a custom
/// TableDoc calls this instead of hand-rolling the write block. All writes
/// are attempted; any failure then exits(1) so callers (notably
/// tools/run_golden_suite.sh under set -e) never mistake a failed
/// regeneration for a refreshed artifact.
inline void emit_doc(const harness::TableDoc& doc, const BenchOptions& opt) {
  bool failed = false;
  const auto write = [&](const std::string& path, bool as_json,
                         const char* what) {
    if (path.empty()) return;
    if (as_json ? doc.write_json(path) : doc.write_csv(path)) {
      std::printf("%s written to %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write %s %s\n", what,
                   path.c_str());
      failed = true;
    }
  };
  write(opt.csv_path, false, "CSV");
  write(opt.json_path, true, "JSON");
  write(opt.golden_path, true, "golden JSON");
  if (failed) std::exit(1);
}

/// Prints the per-category table (and mirrors it to --csv/--json when
/// given). First column = category, one column per series;
/// `series[s].second[i]` is the metric of workload i under series s.
inline void emit_category_table(
    const std::string& title, const std::vector<trace::WorkloadSpec>& suite,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    const BenchOptions& opt, int precision = 3) {
  const harness::TableDoc doc =
      harness::category_table(suite, series, precision);

  std::printf(
      "%s\n(workloads: %zu%s, %llu warmup + %llu measured cycles/run, "
      "seed %llu)\n\n%s\n",
      title.c_str(), suite.size(), opt.full ? " [full suite]" : "",
      static_cast<unsigned long long>(opt.warmup),
      static_cast<unsigned long long>(opt.cycles),
      static_cast<unsigned long long>(opt.seed), doc.render_text().c_str());
  emit_doc(doc, opt);
}

}  // namespace clusmt::bench
