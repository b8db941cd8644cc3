// One repetition of one benchmark workload, as one process:
//
//   sweepbench --workload headline_cold|cells_ilp|cells_mem --seed N
//              [--work-dir DIR] [--trace --spans PATH] [--setup-only]
//
// Set-up generates the suite from the seed and builds the grid; the
// timed phase runs it; the process then prints one JSON object on stdout
// with the timed phase's host cost, one digest per simulated cell and, with
// --trace, the per-layer accounting (traced.cc). --setup-only stops where
// the timed phase would start, so set-up can be sampled cheaply. run.py
// drives repetitions, compares digests and reports medians.
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "harness/presets.h"
#include "harness/run_cache.h"
#include "harness/runner.h"
#include "policy/policy.h"

namespace sweepbench {

namespace core = clusmt::core;
namespace harness = clusmt::harness;
namespace trace = clusmt::trace;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHeadlineCold: return "headline_cold";
    case Workload::kCellsIlp: return "cells_ilp";
    case Workload::kCellsMem: return "cells_mem";
  }
  return "?";
}

namespace {

/// The default seed's suite composition: categories, types, variants and
/// the pairings of the eight cross-category mixes.
constexpr std::uint64_t kCompositionSeed = 1;

/// Stream seeds of the cells_mem grid: MEM traces' tape sizes and IPC swing
/// most with the draw, so cells_mem takes three draws per repetition to keep
/// a run's cost and peak RSS from hinging on one. cells_ilp takes one.
constexpr std::uint64_t kMemStreamSeeds = 3;

/// The quick suite with every trace's generator stream drawn from
/// `stream_seed`. With stream_seed == kCompositionSeed this is exactly
/// build_quick_suite(1, 1, 8), the headline bench's default suite.
std::vector<trace::WorkloadSpec> reseeded_quick_suite(
    std::uint64_t stream_seed) {
  std::vector<trace::WorkloadSpec> suite =
      trace::build_quick_suite(kCompositionSeed, /*per_type=*/1,
                               /*mixes_count=*/8);
  const trace::TracePool pool(stream_seed);
  std::map<std::string, const trace::TraceSpec*> by_id;
  for (const trace::TraceSpec& t : pool.all()) by_id[t.id()] = &t;
  for (trace::WorkloadSpec& w : suite) {
    for (trace::TraceSpec& t : w.threads) t = *by_id.at(t.id());
  }
  return suite;
}

}  // namespace

Grid make_grid(Workload w, std::uint64_t seed) {
  Grid g;
  g.workload = w;

  std::vector<trace::WorkloadSpec> suite;
  if (w == Workload::kHeadlineCold) {
    suite = reseeded_quick_suite(seed);
  } else {
    const bool ilp = w == Workload::kCellsIlp;
    const std::string type = ilp ? ".ilp." : ".mem.";
    const std::uint64_t draws = ilp ? 1 : kMemStreamSeeds;
    for (std::uint64_t j = 0; j < draws; ++j) {
      const std::uint64_t stream =
          j == 0 ? seed : clusmt::hash_combine(seed, j);
      for (trace::WorkloadSpec& s : reseeded_quick_suite(stream)) {
        if (s.name.find(type) == std::string::npos) continue;
        if (draws > 1) s.name += "#" + std::to_string(j);
        suite.push_back(std::move(s));
      }
    }
  }

  // Machine, schemes, cycle budget and fairness baselines exactly as
  // bench_headline_summary declares them.
  harness::SweepSpec& spec = g.spec;
  spec.suite = std::move(suite);
  spec.cycles = kCycles;
  spec.warmup = kWarmup;
  spec.jobs = kHostThreads;
  spec.base = harness::rf_study_config(64);
  spec.base.policy_config.cdprf_interval = kCdprfInterval;
  harness::Axis scheme{"scheme", {}};
  for (const clusmt::policy::PolicyKind kind :
       {clusmt::policy::PolicyKind::kIcount, clusmt::policy::PolicyKind::kCssp,
        clusmt::policy::PolicyKind::kCdprf}) {
    scheme.values.push_back(
        {std::string(clusmt::policy::policy_kind_name(kind)),
         [kind](core::SimConfig& c) { c.policy = kind; }});
  }
  spec.axes = {scheme};
  spec.with_fairness = true;
  spec.progress = false;

  g.points = spec.expand_points();
  for (std::size_t p = 0; p < g.points.size(); ++p) {
    for (std::size_t s = 0; s < spec.suite.size(); ++s) {
      g.cells.push_back(
          {g.points[p].label + "/" + spec.suite[s].name, p, s});
    }
  }
  return g;
}

std::vector<Baseline> grid_baselines(const Grid& grid) {
  std::map<harness::RunKey, Baseline> unique;
  for (const harness::ConfigPoint& point : grid.points) {
    for (const trace::WorkloadSpec& w : grid.spec.suite) {
      for (const trace::TraceSpec& t : w.threads) {
        const harness::RunKey key =
            harness::baseline_key(point.config, t, kCycles, kWarmup);
        unique.try_emplace(key, Baseline{key, "base/" + t.id(), point.config,
                                         t});
      }
    }
  }
  std::vector<Baseline> out;
  out.reserve(unique.size());
  for (auto& [key, b] : unique) out.push_back(std::move(b));
  return out;
}

std::uint64_t cell_digest(const core::SimStats& s, double fairness) {
  clusmt::Fnv1a d;
  d.add(s.cycles);
  for (const std::uint64_t c : s.committed) d.add(c);
  for (const std::uint64_t v :
       {s.committed_copies, s.committed_branches, s.committed_loads,
        s.committed_stores, s.renamed_uops, s.copies_created, s.rename_cycles,
        s.rename_blocked_cycles, s.rename_block_iq, s.rename_block_rf,
        s.rename_block_rob, s.rename_block_mob, s.iq_pref_stall_events,
        s.non_preferred_dispatches, s.issued_uops, s.cycles_with_issue,
        s.squashed_uops, s.branches_resolved, s.mispredicts_resolved,
        s.policy_flushes, s.load_l2_misses, s.store_l2_misses,
        s.load_forwards}) {
    d.add(v);
  }
  for (const auto& row : s.imbalance_events) {
    for (const std::uint64_t v : row) d.add(v);
  }
  d.add(fairness);
  return d.digest();
}

std::string check_cell(const core::SimStats& s, double fairness,
                       bool with_fairness, const core::SimConfig& config) {
  if (s.cycles != kCycles) {
    return "measured " + std::to_string(s.cycles) + " cycles, expected " +
           std::to_string(kCycles);
  }
  const std::uint64_t committed = s.committed_total();
  if (committed == 0) return "no uop committed";
  if (committed + s.committed_copies >
      s.cycles * static_cast<std::uint64_t>(config.commit_width)) {
    return "committed more uops than the commit width allows";
  }
  if (with_fairness && !(fairness > 0.0 && fairness <= 1.0)) {
    return "fairness " + std::to_string(fairness) + " outside (0, 1]";
  }
  return {};
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double monotonic_s() { return clock_s(CLOCK_MONOTONIC); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Json::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

Json& Json::begin_object() {
  separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::begin_array() {
  separate();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Json& Json::key(const std::string& k) {
  value(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::value(const std::string& v) {
  separate();
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  return *this;
}

Json& Json::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_cells(Json& out, const std::vector<CellOutcome>& cells) {
  out.key("cells").begin_array();
  for (const CellOutcome& c : cells) {
    out.begin_object()
        .key("label").value(c.label)
        .key("digest").value(hex64(c.digest))
        .key("error").value(c.error)
        .end_object();
  }
  out.end_array();
}

void write_timing(Json& out, double t0, double wall, double cpu,
                  std::uint64_t cycles) {
  out.key("timed_start").value(t0);
  out.key("wall_s").value(wall);
  out.key("cpu_s").value(cpu);
  out.key("cycles_simulated").value(cycles);
  out.key("peak_rss_mb").value(peak_rss_mb());
}

namespace {

/// Mean speed-up of `series` over `baseline` in percent, as the headline
/// bench computes it.
double mean_ratio_pct(const std::vector<double>& series,
                      const std::vector<double>& baseline) {
  return 100.0 *
         (clusmt::mean_of(harness::ratio_to_baseline(series, baseline)) - 1.0);
}

/// The headline bench's three claims, measured, and the mean distance to
/// the paper's values (+17.6 %, +24 %, ~+16 %) in percentage points.
void write_paper_gap(Json& out, const harness::SweepResult& res) {
  const std::size_t icount = res.point_index("Icount");
  const std::size_t cssp = res.point_index("CSSP");
  const std::size_t cdprf = res.point_index("CDPRF");
  const double thr_cdprf =
      mean_ratio_pct(res.throughput(cdprf), res.throughput(icount));
  const double fair_cdprf =
      mean_ratio_pct(res.fairness(cdprf), res.fairness(icount));
  const double thr_cssp =
      mean_ratio_pct(res.throughput(cssp), res.throughput(icount));
  const double gap = (std::fabs(thr_cdprf - 17.6) +
                      std::fabs(fair_cdprf - 24.0) +
                      std::fabs(thr_cssp - 16.0)) /
                     3.0;
  out.key("paper").begin_object()
      .key("cdprf_throughput_pct").value(thr_cdprf)
      .key("cdprf_fairness_pct").value(fair_cdprf)
      .key("cssp_throughput_pct").value(thr_cssp)
      .key("gap_pp").value(gap)
      .end_object();
}

/// headline_cold: one cold run_sweep into an empty run-store directory.
void run_headline(const Grid& grid, const std::string& store_dir, Json& out) {
  harness::RunCache cache;
  cache.set_store_dir(store_dir);
  harness::SweepSpec spec = grid.spec;
  spec.cache = &cache;

  const double t0 = monotonic_s();
  const double c0 = process_cpu_s();
  std::optional<harness::SweepResult> res;
  std::string error;
  try {
    res = harness::run_sweep(spec);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double wall = monotonic_s() - t0;
  const double cpu = process_cpu_s() - c0;

  std::vector<CellOutcome> cells;
  for (const Cell& cell : grid.cells) {
    CellOutcome o{cell.label, 0, error};
    if (res) {
      const harness::RunResult& r = res->cells[cell.point][cell.workload];
      o.digest = cell_digest(r.stats, r.fairness);
      o.error = check_cell(r.stats, r.fairness, true,
                           grid.points[cell.point].config);
    }
    cells.push_back(std::move(o));
  }
  // Baselines are simulated inside the sweep but not returned by it; read
  // them back from the cache (every one must be a hit).
  for (const Baseline& b : grid_baselines(grid)) {
    CellOutcome o{b.label, 0, error};
    if (res) {
      try {
        const harness::RunResult r =
            cache.get_or_run(b.key, []() -> harness::RunResult {
              throw std::runtime_error("baseline missing from the run cache");
            });
        o.digest = cell_digest(r.stats, 0.0);
        o.error = check_cell(r.stats, 0.0, false,
                             harness::baseline_config(b.config));
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    }
    cells.push_back(std::move(o));
  }
  const std::uint64_t simulated = res ? res->cache_misses : 0;
  write_timing(out, t0, wall, cpu, simulated * (kCycles + kWarmup));
  if (res) write_paper_gap(out, *res);
  write_cells(out, cells);
}

/// cells_ilp / cells_mem: each cell through simulate_workload on one of
/// kHostThreads workers (closed batch: a worker takes the next cell when its
/// previous one finishes); no run cache, no store.
void run_cells(const Grid& grid, Json& out) {
  std::vector<CellOutcome> cells(grid.cells.size());
  std::vector<harness::RunResult> results(grid.cells.size());

  const double t0 = monotonic_s();
  const double c0 = process_cpu_s();
  clusmt::parallel_for(
      grid.cells.size(),
      [&](std::size_t i) {
        const Cell& cell = grid.cells[i];
        try {
          results[i] = harness::simulate_workload(
              grid.points[cell.point].config, grid.spec.suite[cell.workload],
              kCycles, kWarmup);
        } catch (const std::exception& e) {
          cells[i].error = e.what();
        }
      },
      kHostThreads);
  const double wall = monotonic_s() - t0;
  const double cpu = process_cpu_s() - c0;

  std::uint64_t simulated = 0;
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    CellOutcome& o = cells[i];
    o.label = grid.cells[i].label;
    if (!o.error.empty()) continue;
    ++simulated;
    o.digest = cell_digest(results[i].stats, 0.0);
    o.error = check_cell(results[i].stats, 0.0, false,
                         grid.points[grid.cells[i].point].config);
  }
  write_timing(out, t0, wall, cpu, simulated * (kCycles + kWarmup));
  write_cells(out, cells);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: sweepbench --workload "
               "headline_cold|cells_ilp|cells_mem --seed N [--work-dir DIR] "
               "[--trace --spans PATH] [--setup-only]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((std::string(flag) + " expects a non-negative integer").c_str());
  }
  return v;
}

}  // namespace
}  // namespace sweepbench

int main(int argc, char** argv) {
  using namespace sweepbench;
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  std::string work_dir = ".";
  std::string spans_path;
  bool traced = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      const std::string v = next();
      for (const Workload w : {Workload::kHeadlineCold, Workload::kCellsIlp,
                               Workload::kCellsMem}) {
        if (v == workload_name(w)) workload = w;
      }
      if (!workload) usage(("unknown workload '" + v + "'").c_str());
    } else if (flag == "--seed") {
      seed = parse_uint("--seed", next());
    } else if (flag == "--work-dir") {
      work_dir = next();
    } else if (flag == "--spans") {
      spans_path = next();
    } else if (flag == "--trace") {
      traced = true;
    } else if (flag == "--setup-only") {
      setup_only = true;
    } else {
      usage(("unknown flag '" + flag + "'").c_str());
    }
  }
  if (!workload) usage("--workload is required");
  if (traced && spans_path.empty()) usage("--trace needs --spans PATH");

  const Grid grid = make_grid(*workload, seed);
  const std::string store_dir =
      work_dir + "/store-" + std::to_string(getpid()) + "-" +
      std::to_string(static_cast<long long>(monotonic_s() * 1e9));

  Json out;
  out.begin_object()
      .key("workload").value(workload_name(*workload))
      .key("seed").value(seed)
      .key("threads").value(static_cast<std::uint64_t>(kHostThreads))
      .key("mode").value(traced ? "traced" : "plain");
  if (setup_only) {
    out.key("timed_start").value(monotonic_s());
  } else if (traced) {
    run_traced(grid, store_dir, spans_path, out);
  } else if (*workload == Workload::kHeadlineCold) {
    run_headline(grid, store_dir, out);
  } else {
    run_cells(grid, out);
  }
  out.end_object();
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
