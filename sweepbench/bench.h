// Shared pieces of the end-to-end benchmark binary: the workload grids, the
// per-cell correctness record, host clocks and a minimal JSON writer.
//
// The binary measures one repetition of one workload per process (run.py
// starts a fresh process per repetition and takes medians). It only calls
// simulator API meant to outlive the planned fast-path and shard clean-ups:
// run_sweep/SweepSpec, simulate_workload, presets, core::Simulator,
// RunCache/RunStore and the component stats() accessors. Fast-path, tape and
// shard switches are never set, so every run measures the default model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/stats.h"
#include "harness/sweep.h"
#include "trace/workload.h"

namespace sweepbench {

using clusmt::Cycle;

/// Host threads of every workload: one closed-batch worker per core of the
/// 4-core host the benchmark is sized for.
inline constexpr std::size_t kHostThreads = 4;

/// Cycle budget of every cell: the headline bench's defaults.
inline constexpr Cycle kCycles = 200000;
inline constexpr Cycle kWarmup = 80000;
inline constexpr Cycle kCdprfInterval = 32768;

enum class Workload { kHeadlineCold, kCellsIlp, kCellsMem };

[[nodiscard]] const char* workload_name(Workload w);

/// One SMT cell of a grid: a scheme point and a suite workload.
struct Cell {
  std::string label;  // "<scheme>/<workload name>"
  std::size_t point = 0;
  std::size_t workload = 0;
};

/// A workload's inputs, generated from the seed alone. The suite keeps the
/// default seed's composition (which traces pair up, including the eight
/// mixes); the seed re-draws every trace's generator stream, so seed 1 is
/// exactly the headline bench's default suite. cells_ilp takes the .ilp.
/// workloads; cells_mem the .mem. ones under three stream seeds (names
/// suffixed #0..#2).
struct Grid {
  Workload workload = Workload::kHeadlineCold;
  /// The headline sweep as bench_headline_summary declares it, over this
  /// grid's suite. `points` is its expansion.
  clusmt::harness::SweepSpec spec;
  std::vector<clusmt::harness::ConfigPoint> points;
  /// SMT cells, point-major (the sweep's queue order).
  std::vector<Cell> cells;
};

[[nodiscard]] Grid make_grid(Workload w, std::uint64_t seed);

/// Correctness record of one simulated cell.
struct CellOutcome {
  std::string label;
  std::uint64_t digest = 0;
  std::string error;  // empty = passed the in-process checks
};

/// Digest of the architectural outcome of a cell: SimStats counters plus
/// the fairness value (0 for single-thread baselines). Fields are named so
/// a counter added to SimStats later does not move the pinned digests.
[[nodiscard]] std::uint64_t cell_digest(const clusmt::core::SimStats& s,
                                        double fairness);

/// Structural sanity of a finished cell; empty when it holds. Used on every
/// cell, including seeds without pinned digests. `with_fairness` cells must
/// carry a fairness value in (0, 1].
[[nodiscard]] std::string check_cell(const clusmt::core::SimStats& s,
                                     double fairness, bool with_fairness,
                                     const clusmt::core::SimConfig& config);

/// Fairness baselines of the grid, unique by cache key and in key order —
/// the set run_sweep deduplicates. `label` is "base/<trace id>".
struct Baseline {
  clusmt::harness::RunKey key;
  std::string label;
  clusmt::core::SimConfig config;  // the SMT point's config (not yet reduced)
  clusmt::trace::TraceSpec trace;
};
[[nodiscard]] std::vector<Baseline> grid_baselines(const Grid& grid);

// ---- Host clocks ---------------------------------------------------------

[[nodiscard]] double monotonic_s();   // CLOCK_MONOTONIC, as Python's
[[nodiscard]] double process_cpu_s(); // user + sys of every thread
[[nodiscard]] double thread_cpu_s();  // CLOCK_THREAD_CPUTIME_ID
[[nodiscard]] double peak_rss_mb();

// ---- Minimal JSON writer -------------------------------------------------

class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(const std::string& k);
  Json& value(const std::string& v);
  Json& value(const char* v) { return value(std::string(v)); }
  Json& value(double v);
  Json& value(std::uint64_t v);
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void separate();
  std::string out_;
  bool need_comma_ = false;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// The members every repetition report carries: the timed phase's start
/// (CLOCK_MONOTONIC), wall and CPU seconds, simulated cycles and peak RSS;
/// and one {label, digest, error} object per simulated cell.
void write_timing(Json& out, double t0, double wall, double cpu,
                  std::uint64_t cycles);
void write_cells(Json& out, const std::vector<CellOutcome>& cells);

// ---- Traced repetition (traced.cc) ---------------------------------------

/// Re-drives the workload's cells through the public per-cell calls with
/// spans and per-layer accounting, writes the spans to `spans_path`, and
/// appends "cells", timing and "layers" members to `out` (an open object).
void run_traced(const Grid& grid, const std::string& store_dir,
                const std::string& spans_path, Json& out);

}  // namespace sweepbench
