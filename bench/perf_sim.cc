// Simulator-core throughput bench: wall-clock simulated kilocycles/sec
// over the paper's scheme × workload-character presets on the Table 1
// headline machine (64 registers/cluster). Unlike the figure benches this
// measures the *host* cost of simulation, not the modelled machine — it is
// the perf trajectory future optimization PRs defend (BENCH_sim.json).
//
// Every cell simulates from scratch (the run cache is deliberately not
// consulted: a cache hit would measure nothing), times only the measured
// phase (construction and warmup excluded), and reports the best of
// --repeat runs to shrink scheduler noise. Simulation results are
// deterministic, so repeats change timing only.
//
// Every thread generates its µop stream live, as in the figure sweeps, so
// the measured phase includes trace generation.
//
// Flags:
//   --cycles N   measured cycles per cell            [default 100000]
//   --warmup N   warmup cycles before timing          [default 20000]
//   --repeat N   timed repetitions per cell, best-of  [default 3]
//   --seed S     trace pool master seed               [default 1]
//   --csv PATH / --json PATH   mirror the table
//   --ab CMD     interleaved A/B comparison against a reference
//                bench_perf_sim. CMD is a command prefix (a binary path,
//                optionally with flags — e.g. "./bench_perf_sim_main" or
//                "taskset -c 2 build-ref/bench/bench_perf_sim"); the bench
//                alternates one timed pass of this binary (A) with one
//                invocation of CMD (B), --repeat times each, then reports
//                per-cell medians and the A/B speedup table. The main
//                table (and --csv/--json) carries A's medians, so the
//                mirrored JSON is an honest before/after artifact.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "common/cli.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "harness/sweep.h"
#include "trace/workload.h"

using namespace clusmt;

namespace {

struct Preset {
  const char* name;
  trace::Category cat0;
  trace::TraceKind kind0;
  trace::Category cat1;
  trace::TraceKind kind1;
};

/// One (scheme, preset) grid cell's identity plus its measurements.
struct Cell {
  policy::PolicyKind scheme;
  const Preset* preset;
  std::vector<double> wall_s;  // one sample per timed pass
  std::uint64_t committed = 0;
  std::uint64_t cycles_skipped = 0;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Simulates one cell once and returns the measured-phase wall seconds.
/// Deterministic results: committed/skip tallies are identical every call.
double run_cell_once(Cell& cell, const trace::TracePool& pool, Cycle cycles,
                     Cycle warmup) {
  core::SimConfig config = harness::rf_study_config(64);
  config.policy = cell.scheme;
  core::Simulator sim(config);
  sim.attach_thread(0, pool.get(cell.preset->cat0, cell.preset->kind0, 0));
  sim.attach_thread(1, pool.get(cell.preset->cat1, cell.preset->kind1, 1));
  sim.run(warmup);
  sim.reset_stats();
  const double start = bench::wall_time_seconds();
  sim.run(cycles);
  const double wall = bench::wall_time_seconds() - start;
  cell.committed = sim.stats().committed_total();
  cell.cycles_skipped = sim.cycles_skipped();
  return wall;
}

/// Reads the reference side's JSON mirror: "scheme|workload" →
/// best_wall_ms. The committed bench_perf_sim format (one object per row,
/// stable key order) has carried these keys since the bench existed, so
/// any past build works as the reference binary.
bool parse_ref_json(const std::string& path,
                    std::vector<std::pair<std::string, double>>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::size_t pos = 0;
  const auto field = [&](const std::string& row, const char* key,
                         std::string& value) {
    const std::string needle = std::string("\"") + key + "\": ";
    const std::size_t at = row.find(needle);
    if (at == std::string::npos) return false;
    std::size_t v = at + needle.size();
    std::size_t end = row.find_first_of(",}", v);
    if (end == std::string::npos) return false;
    value = row.substr(v, end - v);
    if (!value.empty() && value.front() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    return true;
  };
  while ((pos = text.find('{', pos)) != std::string::npos) {
    const std::size_t close = text.find('}', pos);
    if (close == std::string::npos) break;
    const std::string row = text.substr(pos, close - pos + 1);
    pos = close + 1;
    std::string scheme, workload, wall;
    if (!field(row, "scheme", scheme) || !field(row, "workload", workload) ||
        !field(row, "best_wall_ms", wall)) {
      continue;
    }
    if (scheme == "TOTAL") continue;
    char* endp = nullptr;
    const double ms = std::strtod(wall.c_str(), &endp);
    if (endp == wall.c_str()) continue;  // non-numeric (a "-" cell)
    out.emplace_back(scheme + "|" + workload, ms / 1000.0);
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto cycles = static_cast<Cycle>(args.get_int("cycles", 100000, 1));
  const auto warmup = static_cast<Cycle>(args.get_int("warmup", 20000, 0));
  const int repeat = static_cast<int>(
      args.get_int("repeat", 3, 1, std::numeric_limits<int>::max()));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string csv_path = args.get_string("csv", "");
  const std::string json_path = args.get_string("json", "");
  const std::string ab_cmd = args.get_string("ab", "");

  const trace::TracePool pool(seed);
  const Preset presets[] = {
      {"ilp+ilp", trace::Category::kISpec00, trace::TraceKind::kIlp,
       trace::Category::kISpec00, trace::TraceKind::kIlp},
      {"mem+mem", trace::Category::kISpec00, trace::TraceKind::kMem,
       trace::Category::kISpec00, trace::TraceKind::kMem},
      {"int+fp mix", trace::Category::kISpec00, trace::TraceKind::kIlp,
       trace::Category::kFSpec00, trace::TraceKind::kMem},
  };
  const policy::PolicyKind schemes[] = {policy::PolicyKind::kIcount,
                                        policy::PolicyKind::kCssp,
                                        policy::PolicyKind::kCdprf};

  std::vector<Cell> cells;
  for (const policy::PolicyKind scheme : schemes) {
    for (const Preset& preset : presets) {
      cells.push_back(Cell{scheme, &preset, {}, 0, 0});
    }
  }

  // Reference-side medians ("scheme|workload" → wall seconds per pass),
  // filled in --ab mode only.
  std::vector<std::vector<std::pair<std::string, double>>> ref_passes;

  if (ab_cmd.empty()) {
    // Plain mode: per-cell best-of-`repeat` consecutive runs, exactly the
    // historical methodology behind the committed BENCH_sim.json points.
    for (Cell& cell : cells) {
      for (int rep = 0; rep < repeat; ++rep) {
        cell.wall_s.push_back(run_cell_once(cell, pool, cycles, warmup));
      }
    }
  } else {
    // Interleaved A/B: alternate one timed A pass with one single-pass B
    // invocation. Alternation means slow host drift (thermal, noisy
    // neighbours) hits both sides equally instead of biasing whichever ran
    // second.
    const std::string ref_json =
        "/tmp/perf_ab_ref." + std::to_string(getpid()) + ".json";
    for (int rep = 0; rep < repeat; ++rep) {
      for (Cell& cell : cells) {
        cell.wall_s.push_back(run_cell_once(cell, pool, cycles, warmup));
      }
      std::ostringstream cmd;
      cmd << ab_cmd << " --cycles " << cycles << " --warmup " << warmup
          << " --repeat 1 --seed " << seed << " --json " << ref_json
          << " > /dev/null";
      if (std::system(cmd.str().c_str()) != 0) {
        std::fprintf(stderr, "error: reference command failed: %s\n",
                     cmd.str().c_str());
        std::remove(ref_json.c_str());
        return 2;
      }
      std::vector<std::pair<std::string, double>> pass;
      if (!parse_ref_json(ref_json, pass)) {
        std::fprintf(stderr, "error: could not parse reference JSON %s\n",
                     ref_json.c_str());
        std::remove(ref_json.c_str());
        return 2;
      }
      ref_passes.push_back(std::move(pass));
    }
    std::remove(ref_json.c_str());
  }

  Table doc({"scheme", "workload", "sim_kcycles", "best_wall_ms",
             "kcycles_per_s", "commit_kuops_per_s", "skip_pct"});

  const double kcycles = static_cast<double>(cycles) / 1000.0;
  double total_wall = 0.0;
  double total_kcycles = 0.0;
  std::uint64_t total_skipped = 0;
  for (const Cell& cell : cells) {
    // Plain mode summarises best-of (historical methodology); A/B mode
    // uses the median so the mirrored JSON is an honest central estimate.
    const double wall =
        ab_cmd.empty()
            ? *std::min_element(cell.wall_s.begin(), cell.wall_s.end())
            : median_of(cell.wall_s);
    const double skip_pct = 100.0 * static_cast<double>(cell.cycles_skipped) /
                            static_cast<double>(cycles);
    doc.add_row({std::string(policy::policy_kind_name(cell.scheme)),
                 cell.preset->name, format_double(kcycles, 0),
                 format_double(wall * 1000.0, 2),
                 format_double(kcycles / wall, 1),
                 format_double(
                     static_cast<double>(cell.committed) / 1000.0 / wall, 1),
                 format_double(skip_pct, 1)});
    total_wall += wall;
    total_kcycles += kcycles;
    total_skipped += cell.cycles_skipped;
  }
  doc.add_row({"TOTAL", "(all cells)", format_double(total_kcycles, 0),
               format_double(total_wall * 1000.0, 2),
               format_double(total_kcycles / total_wall, 1), "-",
               format_double(100.0 * static_cast<double>(total_skipped) /
                                 (static_cast<double>(cycles) *
                                  static_cast<double>(cells.size())),
                             1)});

  std::printf(
      "Simulator throughput (%s of %d, %llu warmup + %llu measured "
      "cycles/cell, seed %llu)\n\n%s\n",
      ab_cmd.empty() ? "best" : "median", repeat,
      static_cast<unsigned long long>(warmup),
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(seed), doc.render_text().c_str());

  if (!ab_cmd.empty()) {
    // Per-cell A/B delta: reference median beside this binary's median.
    Table delta({"scheme", "workload", "ref_kcycles_per_s",
                 "new_kcycles_per_s", "speedup"});
    double ref_total = 0.0;
    double new_total = 0.0;
    bool missing = false;
    for (const Cell& cell : cells) {
      const std::string key =
          std::string(policy::policy_kind_name(cell.scheme)) + "|" +
          cell.preset->name;
      std::vector<double> ref_wall;
      for (const auto& pass : ref_passes) {
        for (const auto& [k, w] : pass) {
          if (k == key) ref_wall.push_back(w);
        }
      }
      const double new_wall = median_of(cell.wall_s);
      if (ref_wall.empty()) {
        delta.add_row({std::string(policy::policy_kind_name(cell.scheme)),
                       cell.preset->name, "-",
                       format_double(kcycles / new_wall, 1), "-"});
        missing = true;
        continue;
      }
      const double ref = median_of(ref_wall);
      delta.add_row({std::string(policy::policy_kind_name(cell.scheme)),
                     cell.preset->name, format_double(kcycles / ref, 1),
                     format_double(kcycles / new_wall, 1),
                     format_double(ref / new_wall, 2)});
      ref_total += ref;
      new_total += new_wall;
    }
    if (!missing && ref_total > 0.0) {
      delta.add_row({"TOTAL", "(all cells)",
                     format_double(total_kcycles / ref_total, 1),
                     format_double(total_kcycles / new_total, 1),
                     format_double(ref_total / new_total, 2)});
    }
    std::printf("A/B vs `%s` (median of %d interleaved passes/side)\n\n%s\n",
                ab_cmd.c_str(), repeat, delta.render_text().c_str());
  }

  bool failed = false;
  if (!csv_path.empty()) {
    if (doc.write_csv(csv_path)) {
      std::printf("CSV written to %s\n", csv_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write CSV %s\n",
                   csv_path.c_str());
      failed = true;
    }
  }
  if (!json_path.empty()) {
    if (doc.write_json(json_path)) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write JSON %s\n",
                   json_path.c_str());
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
