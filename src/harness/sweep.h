// Declarative sweep engine for grid-shaped experiments.
//
// Every figure/table of the paper is a grid: scheme × machine knob ×
// workload suite. A SweepSpec names the grid once — a base SimConfig,
// axes of labelled config mutators (or explicit points), a workload suite
// and a cycle budget — and run_sweep() expands it into a flat list of
// (point, workload) cells scheduled as ONE global queue on a ThreadPool.
// There is no per-grid-point barrier: a slow cell of one point overlaps
// with cells of every other point, and fairness baselines interleave with
// SMT cells instead of forming a separate phase.
//
// Cells are memoised in the process-wide RunCache (harness/run_cache.h) by
// content hash, so repeated cells — a baseline point shared by two sweeps,
// a knob sweep that revisits the default value, fairness baselines common
// to every grid point — are simulated exactly once per process.
//
// With a RunStore attached, a cell's key does not depend on which suite or
// sweep requested it, so a grid splits across hosts without any protocol:
// each host sweeps a slice of the suite into its own store, the stores are
// unioned (merge_run_store, tools/store_merge), and a full sweep over the
// union simulates nothing. A crashed sweep is resumed the same way: rerun
// it, and only the cells whose records never landed are simulated.
//
// Determinism: a cell's result depends only on its (config, workload,
// cycles, warmup) spec — the simulator draws all randomness from the
// workload's own seeds — so the same SweepSpec yields bit-identical tables
// at any `jobs` count and any scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "core/config.h"
#include "harness/run_cache.h"
#include "harness/runner.h"
#include "trace/workload.h"

namespace clusmt::harness {

/// One labelled value of an axis: a named mutation of the base config,
/// e.g. {"CSSP", [](auto& c) { c.policy = PolicyKind::kCssp; }}.
struct AxisValue {
  std::string label;
  std::function<void(core::SimConfig&)> apply;
};

/// A named axis of the grid, e.g. "scheme" or "iq entries".
struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// One expanded grid point: a fully specified machine with a display label.
struct ConfigPoint {
  std::string label;
  core::SimConfig config;
};

struct SweepSpec {
  /// Base machine the axis mutators are applied to.
  core::SimConfig base;

  /// Cross-product axes (first axis varies slowest). Mutators are applied
  /// in axis order to a copy of `base`.
  std::vector<Axis> axes;

  /// Explicit extra points, appended after the axis product (use alone for
  /// irregular grids whose labels don't compose from per-axis parts).
  std::vector<ConfigPoint> points;

  /// Composes a point label from per-axis value labels. Default: non-empty
  /// labels joined with '@' in axis order.
  std::function<std::string(const std::vector<std::string>&)> label_fn;

  /// The workload suite every point runs (cell list = points × suite).
  std::vector<trace::WorkloadSpec> suite;

  Cycle cycles = 0;
  Cycle warmup = 0;

  /// Also run single-thread baselines (shared across points through the
  /// cache) and fill RunResult::fairness for every cell.
  bool with_fairness = false;

  /// Host worker threads; 0 = all cores.
  std::size_t jobs = 0;

  /// Print per-point completion and a cache summary to stderr.
  bool progress = true;

  /// Cache to memoise cells in; nullptr = the process-wide instance.
  RunCache* cache = nullptr;

  /// Expands axes × base into labelled points (explicit `points` appended).
  [[nodiscard]] std::vector<ConfigPoint> expand_points() const;
};

struct SweepResult {
  std::vector<ConfigPoint> points;
  std::vector<trace::WorkloadSpec> suite;
  Cycle cycles = 0;
  Cycle warmup = 0;

  /// cells[p][w]: point p of `points`, workload w of `suite`.
  std::vector<std::vector<RunResult>> cells;

  /// Cache traffic attributable to this sweep (delta over its run):
  /// `cache_misses` cells were actually simulated, `cache_hits` served from
  /// memory, `cache_disk_hits` loaded from a persisted record (--cache-dir).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_disk_hits = 0;

  /// Quiescent-cycle skip-ahead activity of the cells this process
  /// actually simulated (delta protocol again; cached cells contribute
  /// nothing). `cycles_skipped` of the simulated cycles were replicated in
  /// closed form across `skip_episodes` jumps.
  std::uint64_t cycles_skipped = 0;
  std::uint64_t skip_episodes = 0;

  /// Store records found on disk during this sweep but rejected by
  /// validation (truncation, bit rot, stale format) — each silently cost a
  /// recompute; the progress line surfaces the count so corruption is
  /// visible instead of just slow.
  std::uint64_t corrupt_records = 0;

  /// Index of the point labelled `label`; throws std::out_of_range.
  [[nodiscard]] std::size_t point_index(const std::string& label) const;

  /// Per-workload metric vector of one point, suite order.
  [[nodiscard]] std::vector<double> metric(
      std::size_t point,
      const std::function<double(const RunResult&)>& fn) const;
  [[nodiscard]] std::vector<double> throughput(std::size_t point) const;
  [[nodiscard]] std::vector<double> fairness(std::size_t point) const;
};

/// Runs the whole grid as one flat cell queue. Exceptions from any cell
/// (e.g. thread-count mismatch) propagate after all cells drain.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec);

// ---- Result shaping ------------------------------------------------------

/// Element-wise series[i] / baseline[i]; 0 where the baseline is 0. The
/// normalised ("speedup vs X") form every figure of the paper uses.
[[nodiscard]] std::vector<double> ratio_to_baseline(
    const std::vector<double>& series, const std::vector<double>& baseline);

/// Per-category aggregation table: one row per category of the paper's
/// display order (plus AVG), one column per (label, per-workload metric)
/// series. This is the layout of Figures 2-4, 6, 10 and the ablations.
[[nodiscard]] Table category_table(
    const std::vector<trace::WorkloadSpec>& suite,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    int precision = 3);

}  // namespace clusmt::harness
