#include "harness/sweep.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/csv.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/metrics.h"
#include "harness/run_key.h"

namespace clusmt::harness {

namespace {

std::string default_label(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    if (!out.empty()) out += '@';
    out += part;
  }
  return out;
}

}  // namespace

std::vector<ConfigPoint> SweepSpec::expand_points() const {
  std::vector<ConfigPoint> out;
  bool product_empty = axes.empty();
  for (const Axis& axis : axes) product_empty |= axis.values.empty();
  if (!product_empty) {
    // Odometer over the axes, first axis slowest.
    std::vector<std::size_t> index(axes.size(), 0);
    bool done = false;
    while (!done) {
      ConfigPoint point;
      point.config = base;
      std::vector<std::string> parts;
      parts.reserve(axes.size());
      for (std::size_t a = 0; a < axes.size(); ++a) {
        const AxisValue& value = axes[a].values[index[a]];
        if (value.apply) value.apply(point.config);
        parts.push_back(value.label);
      }
      point.label = label_fn ? label_fn(parts) : default_label(parts);
      out.push_back(std::move(point));

      std::size_t a = axes.size();
      while (a > 0) {
        --a;
        if (++index[a] < axes[a].values.size()) break;
        index[a] = 0;
        if (a == 0) done = true;  // slowest axis wrapped: product exhausted
      }
    }
  }
  out.insert(out.end(), points.begin(), points.end());
  return out;
}

std::size_t SweepResult::point_index(const std::string& label) const {
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (points[p].label == label) return p;
  }
  throw std::out_of_range("sweep has no point labelled '" + label + "'");
}

std::vector<double> SweepResult::metric(
    std::size_t point,
    const std::function<double(const RunResult&)>& fn) const {
  std::vector<double> out;
  out.reserve(cells.at(point).size());
  for (const RunResult& r : cells[point]) out.push_back(fn(r));
  return out;
}

std::vector<double> SweepResult::throughput(std::size_t point) const {
  return metric(point, [](const RunResult& r) { return r.throughput; });
}

std::vector<double> SweepResult::fairness(std::size_t point) const {
  return metric(point, [](const RunResult& r) { return r.fairness; });
}

SweepResult run_sweep(const SweepSpec& spec) {
  SweepResult out;
  out.points = spec.expand_points();
  out.suite = spec.suite;
  out.cycles = spec.cycles;
  out.warmup = spec.warmup;

  RunCache& cache = spec.cache != nullptr ? *spec.cache : RunCache::instance();
  const std::uint64_t hits_before = cache.hits();
  const std::uint64_t misses_before = cache.misses();
  const std::uint64_t disk_hits_before = cache.disk_hits();
  const std::uint64_t corrupt_before = run_store_corrupt_reads();
  const std::uint64_t skipped_before = total_cycles_skipped();
  const std::uint64_t episodes_before = total_skip_episodes();

  const std::size_t num_points = out.points.size();
  const std::size_t num_workloads = out.suite.size();
  out.cells.assign(num_points, std::vector<RunResult>(num_workloads));

  // Cells still pending per point, for the per-point progress line.
  std::vector<std::atomic<std::size_t>> remaining(num_points);
  for (auto& r : remaining) r.store(num_workloads, std::memory_order_relaxed);

  // The pool is declared after every state its tasks reference and joins
  // all queued work in its destructor, so an exception unwinding this frame
  // never frees state a worker still uses.
  ThreadPool pool(spec.jobs);

  // Fairness baselines, deduplicated by content across all points, go into
  // the same queue first: they are ready early, computed at most once, and
  // any SMT cell that finishes sooner pulls its baseline through the cache
  // inline rather than waiting on a phase barrier.
  std::vector<std::future<RunResult>> baseline_futures;
  if (spec.with_fairness) {
    std::map<RunKey, std::pair<core::SimConfig, trace::TraceSpec>> unique;
    for (const ConfigPoint& point : out.points) {
      for (const auto& workload : out.suite) {
        for (const auto& t : workload.threads) {
          unique.try_emplace(
              baseline_key(point.config, t, spec.cycles, spec.warmup),
              point.config, t);
        }
      }
    }
    baseline_futures.reserve(unique.size());
    for (const auto& [key, cell] : unique) {
      baseline_futures.push_back(pool.submit_task(
          [config = cell.first, trace = cell.second, &cache,
           cycles = spec.cycles, warmup = spec.warmup] {
            return baseline_run(cache, config, trace, cycles, warmup);
          }));
    }
  }

  std::vector<std::vector<std::future<RunResult>>> futures(num_points);
  for (std::size_t p = 0; p < num_points; ++p) {
    futures[p].reserve(num_workloads);
    for (std::size_t w = 0; w < num_workloads; ++w) {
      const RunKey key =
          run_key(out.points[p].config, out.suite[w], spec.cycles, spec.warmup);
      futures[p].push_back(pool.submit_task([&, key, p, w] {
        const core::SimConfig& config = out.points[p].config;
        const trace::WorkloadSpec& workload = out.suite[w];
        RunResult result = cache.get_or_run(key, [&] {
          return simulate_workload(config, workload, spec.cycles, spec.warmup);
        });
        // Keys hash trace *content* only, so a cache hit may carry the
        // display metadata of a content-equal twin under another name;
        // stamp the requesting workload's own labels.
        result.workload = workload.name;
        result.category = workload.category;
        result.type = workload.type;
        if (spec.with_fairness) {
          std::vector<double> smt;
          std::vector<double> alone_ipc;
          for (std::size_t t = 0; t < workload.threads.size(); ++t) {
            smt.push_back(result.ipc[t]);
            alone_ipc.push_back(baseline_run(cache, config,
                                             workload.threads[t], spec.cycles,
                                             spec.warmup)
                                    .ipc[0]);
          }
          result.fairness = core::fairness(smt, alone_ipc);
        }
        if (spec.progress &&
            remaining[p].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::fprintf(stderr, "done: %s\n", out.points[p].label.c_str());
        }
        return result;
      }));
    }
  }

  // Join in deterministic order; the first failing cell rethrows here
  // (after the pool drains, via the declaration-order guarantee above).
  for (std::size_t p = 0; p < num_points; ++p) {
    for (std::size_t w = 0; w < num_workloads; ++w) {
      out.cells[p][w] = futures[p][w].get();
    }
  }
  for (auto& f : baseline_futures) (void)f.get();

  out.cache_hits = cache.hits() - hits_before;
  out.cache_misses = cache.misses() - misses_before;
  out.cache_disk_hits = cache.disk_hits() - disk_hits_before;
  out.cycles_skipped = total_cycles_skipped() - skipped_before;
  out.skip_episodes = total_skip_episodes() - episodes_before;
  out.corrupt_records = run_store_corrupt_reads() - corrupt_before;
  if (spec.progress) {
    std::fprintf(
        stderr,
        "[sweep] %zu points x %zu workloads: %llu simulated, %llu cached, "
        "%llu loaded from disk; skipped %llu cycles in %llu jumps",
        num_points, num_workloads,
        static_cast<unsigned long long>(out.cache_misses),
        static_cast<unsigned long long>(out.cache_hits),
        static_cast<unsigned long long>(out.cache_disk_hits),
        static_cast<unsigned long long>(out.cycles_skipped),
        static_cast<unsigned long long>(out.skip_episodes));
    if (out.corrupt_records > 0) {
      std::fprintf(stderr, "; %llu corrupt records ignored",
                   static_cast<unsigned long long>(out.corrupt_records));
    }
    std::fprintf(stderr, "\n");
  }
  return out;
}

std::vector<double> ratio_to_baseline(const std::vector<double>& series,
                                      const std::vector<double>& baseline) {
  if (series.size() != baseline.size()) {
    throw std::invalid_argument("ratio_to_baseline: size mismatch");
  }
  std::vector<double> out(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    out[i] = baseline[i] == 0.0 ? 0.0 : series[i] / baseline[i];
  }
  return out;
}

std::string TableDoc::render_text() const {
  TextTable table(header);
  for (const auto& row : rows) table.add_row(row);
  return table.render();
}

namespace {
CsvWriter as_csv(const TableDoc& doc) {
  CsvWriter csv(doc.header);
  for (const auto& row : doc.rows) csv.add_row(row);
  return csv;
}
}  // namespace

std::string TableDoc::to_csv() const { return as_csv(*this).to_string(); }
std::string TableDoc::to_json() const { return as_csv(*this).to_json(); }

bool TableDoc::write_csv(const std::string& path) const {
  return as_csv(*this).write_file(path);
}

bool TableDoc::write_json(const std::string& path) const {
  return as_csv(*this).write_json_file(path);
}

TableDoc category_table(
    const std::vector<trace::WorkloadSpec>& suite,
    const std::vector<std::pair<std::string, std::vector<double>>>& series,
    int precision) {
  TableDoc doc;
  doc.header.push_back("category");
  for (const auto& [label, _] : series) doc.header.push_back(label);

  std::vector<std::vector<std::pair<std::string, double>>> per_series;
  per_series.reserve(series.size());
  for (const auto& [label, metric] : series) {
    per_series.push_back(by_category(suite, metric));
  }
  const std::size_t num_rows = per_series.empty() ? 0 : per_series[0].size();
  for (std::size_t r = 0; r < num_rows; ++r) {
    std::vector<std::string> cells = {per_series[0][r].first};
    for (const auto& s : per_series) {
      cells.push_back(format_double(s[r].second, precision));
    }
    doc.add_row(std::move(cells));
  }
  return doc;
}

}  // namespace clusmt::harness
