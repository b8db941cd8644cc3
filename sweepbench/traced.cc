// Traced repetition: re-drives a workload's cells through the public
// per-cell calls and times each call from outside, one layer per src/
// module. run_sweep has no per-cell hook, so for headline_cold the cells are
// rebuilt from SweepSpec::expand_points() x the suite plus the
// baseline_workload() baselines, scheduled baselines-first on a
// parallel_for of the same width, and resolved through a RunCache. Every
// simulated cell, on every workload, is keyed and round-tripped through a
// RunStore (save, then load back) with both calls timed.
//
// Spans (name, start, end, parent, cell id) are kept in memory and written
// as JSON lines when the repetition ends. Counters come from the
// components' stats() accessors; telemetry that a planned clean-up may
// delete is read through __has_include / requires checks and reported as
// absent once it is gone.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "frontend/branch_predictor.h"
#include "harness/run_cache.h"
#include "harness/run_store.h"
#include "memory/hierarchy.h"
#include "policy/policy.h"
#include "trace/synthetic.h"

#if __has_include("harness/tape_registry.h")
#include "harness/tape_registry.h"
#define SWEEPBENCH_HAS_TAPES 1
#else
#define SWEEPBENCH_HAS_TAPES 0
#endif

namespace sweepbench {

namespace core = clusmt::core;
namespace harness = clusmt::harness;
namespace trace = clusmt::trace;

namespace {

// ---- Optional telemetry --------------------------------------------------

template <typename Sim>
std::optional<std::uint64_t> skipped_cycles(const Sim& sim) {
  if constexpr (requires { sim.cycles_skipped(); }) {
    return sim.cycles_skipped();
  } else {
    return std::nullopt;
  }
}

template <typename Sim>
std::optional<std::uint64_t> skip_episodes(const Sim& sim) {
  if constexpr (requires { sim.skip_episodes(); }) {
    return sim.skip_episodes();
  } else {
    return std::nullopt;
  }
}

template <typename Sim>
std::optional<std::uint64_t> events_coalesced(const Sim& sim) {
  if constexpr (requires { sim.events_coalesced(); }) {
    return sim.events_coalesced();
  } else {
    return std::nullopt;
  }
}

struct TapeCounts {
  std::optional<std::uint64_t> recorded;
  std::optional<std::uint64_t> replayed;
};

template <typename Registry>
TapeCounts tape_counts(const Registry& r) {
  TapeCounts c;
  if constexpr (requires { r.recordings(); }) c.recorded = r.recordings();
  if constexpr (requires { r.hits(); }) c.replayed = r.hits();
  return c;
}

TapeCounts read_tapes() {
#if SWEEPBENCH_HAS_TAPES
  return tape_counts(harness::TapeRegistry::instance());
#else
  return {};
#endif
}

/// The µop source simulate_workload would attach for `spec`.
std::shared_ptr<trace::TraceSource> open_source(
    const trace::TraceSpec& spec, const trace::TraceProfile** profile) {
#if SWEEPBENCH_HAS_TAPES
  return harness::TapeRegistry::instance().source_for(spec, profile);
#else
  auto source =
      std::make_shared<trace::SyntheticTrace>(spec.profile, spec.seed);
  *profile = &source->program().profile();
  return source;
#endif
}

/// Sum of an optional tally; absent as soon as one read is absent.
void add_optional(std::optional<std::uint64_t>& sum,
                  std::optional<std::uint64_t> v) {
  if (!v) {
    sum.reset();
  } else if (sum) {
    *sum += *v;
  }
}

// ---- Spans ----------------------------------------------------------------

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint32_t cell = 0;    // 1-based task index
  std::uint32_t thread = 0;
  const char* name = "";
  std::string label;         // cell spans only
  double start_s = 0.0;      // relative to the timed phase start
  double end_s = 0.0;
  double fill_s = 0.0;       // trace fill() time inside this span (core.run)
};

class SpanLog {
 public:
  explicit SpanLog(double origin) : origin_(origin) {}

  [[nodiscard]] std::uint32_t open() { return next_id_.fetch_add(1); }
  [[nodiscard]] double origin() const noexcept { return origin_; }

  void close(SpanRecord rec) {
    rec.thread = this_thread_index();
    std::lock_guard lock(mutex_);
    spans_.push_back(std::move(rec));
  }

  /// Copy of the records, for after the workers have joined.
  [[nodiscard]] std::vector<SpanRecord> records() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }

 private:
  double origin_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint32_t parent,
             std::uint32_t cell)
      : log_(log) {
    rec_.id = log.open();
    rec_.parent = parent;
    rec_.cell = cell;
    rec_.name = name;
    rec_.start_s = monotonic_s() - log.origin();
  }
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return rec_.id; }
  void set_label(std::string label) { rec_.label = std::move(label); }
  void set_fill(double fill_s) { rec_.fill_s = fill_s; }
  /// End time of a finished span (relative to the log origin).
  [[nodiscard]] double end_s() const noexcept { return rec_.end_s; }

  void finish() {
    if (done_) return;
    done_ = true;
    rec_.end_s = monotonic_s() - log_.origin();
    log_.close(rec_);
  }

 private:
  SpanLog& log_;
  SpanRecord rec_;
  bool done_ = false;
};

// ---- Timed trace source ----------------------------------------------------

struct BranchSample {
  std::uint64_t pc;
  std::uint64_t target;
  bool taken;
  bool indirect;
};

struct AccessSample {
  std::uint64_t addr;
  bool store;
};

/// Delivered branches/accesses kept per thread for the host-time replays.
inline constexpr std::size_t kSampleCap = 1u << 16;

/// Forwards to the source simulate_workload would attach, timing every
/// fill()/next() and sampling the delivered stream.
class TimedSource final : public trace::TraceSource {
 public:
  explicit TimedSource(std::shared_ptr<trace::TraceSource> inner)
      : inner_(std::move(inner)) {}

  trace::MicroOp next() override {
    const auto t0 = Clock::now();
    const trace::MicroOp op = inner_->next();
    fill_ns_ += (Clock::now() - t0).count();
    ++uops_;
    sample(op);
    return op;
  }

  void fill(trace::MicroOp* out, int count) override {
    const auto t0 = Clock::now();
    inner_->fill(out, count);
    fill_ns_ += (Clock::now() - t0).count();
    uops_ += static_cast<std::uint64_t>(count);
    if (branches_.size() < kSampleCap || accesses_.size() < kSampleCap) {
      for (int i = 0; i < count; ++i) sample(out[i]);
    }
  }

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }

  [[nodiscard]] double fill_s() const noexcept { return 1e-9 * fill_ns_; }
  [[nodiscard]] std::uint64_t uops() const noexcept { return uops_; }
  [[nodiscard]] const std::vector<BranchSample>& branches() const noexcept {
    return branches_;
  }
  [[nodiscard]] const std::vector<AccessSample>& accesses() const noexcept {
    return accesses_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void sample(const trace::MicroOp& op) {
    if (op.is_branch()) {
      if (branches_.size() < kSampleCap) {
        branches_.push_back({op.pc, op.target, op.taken, op.indirect});
      }
    } else if (trace::is_memory(op.cls) && accesses_.size() < kSampleCap) {
      accesses_.push_back({op.mem_addr, op.is_store()});
    }
  }

  std::shared_ptr<trace::TraceSource> inner_;
  double fill_ns_ = 0.0;
  std::uint64_t uops_ = 0;
  std::vector<BranchSample> branches_;
  std::vector<AccessSample> accesses_;
};

/// Keeps replay results observable so the replays cannot be optimised out.
std::atomic<std::uint64_t> g_replay_sink{0};

// ---- Per-cell and per-run accounting ---------------------------------------

struct CellLayers {
  // trace
  double fill_s = 0.0;
  std::uint64_t uops = 0;
  // core
  double setup_cpu_s = 0.0;
  double run_cpu_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t committed_all = 0;  // warmup + measured
  std::optional<std::uint64_t> skipped = 0;
  std::optional<std::uint64_t> episodes = 0;
  std::optional<std::uint64_t> coalesced = 0;
  // measured-phase component statistics
  core::SimStats stats;
  clusmt::frontend::FetchStats fetch;
  clusmt::steer::SteeringStats steer;
  std::uint64_t rf_alloc_failures = 0;
  clusmt::backend::InterconnectStats link;
  clusmt::memory::CacheStats l1, l2, dtlb;
  clusmt::memory::MobStats mob;
  // host-time replays
  double predictor_s = 0.0;
  std::uint64_t branches = 0;
  double memory_s = 0.0;
  std::uint64_t accesses = 0;
  double tracing_cpu_s = 0.0;  // replays + validate_view: not cell work
};

struct PolicyTotals {
  std::uint64_t iq_pref_stalls = 0;
  std::uint64_t committed = 0;
  std::uint64_t block_iq = 0;
  std::uint64_t block_rf = 0;
  std::uint64_t flushes = 0;
};

/// Per-layer sums over every simulated cell of the repetition.
struct Totals {
  std::mutex mutex;
  double fill_s = 0.0;
  std::uint64_t uops = 0;
  std::vector<double> setup_ms;
  double run_cpu_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t committed_all = 0;
  std::optional<std::uint64_t> skipped = 0;
  std::optional<std::uint64_t> episodes = 0;
  std::optional<std::uint64_t> coalesced = 0;
  std::uint64_t measured_cycles = 0;
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0, wrong_path = 0;
  std::uint64_t fetch_cycles = 0, tc_hit_cycles = 0;
  std::uint64_t mispredicts = 0, rename_blocked_cycles = 0, copies = 0;
  double predictor_s = 0.0;
  std::uint64_t branches = 0;
  std::uint64_t decisions = 0, overrides = 0, non_preferred = 0, renamed = 0;
  std::map<std::string, PolicyTotals> policy;
  std::uint64_t issued = 0, cycles_with_issue = 0, rf_alloc_failures = 0;
  std::uint64_t link_transfers = 0, link_denied = 0;
  std::uint64_t l1_acc = 0, l1_hit = 0, l2_acc = 0, l2_hit = 0;
  std::uint64_t dtlb_acc = 0, dtlb_hit = 0, l2_misses = 0;
  std::uint64_t mob_waits = 0, mob_forwards = 0;
  double memory_s = 0.0;
  std::uint64_t accesses = 0;
  // harness
  double key_s = 0.0;
  std::uint64_t keys = 0;
  std::vector<double> save_ms, load_ms, cell_cpu_ms;
  std::uint64_t save_failures = 0;
  double cells_cpu_s = 0.0;
  double tracing_cpu_s = 0.0;

  /// `scheme` is empty for single-thread baselines.
  void add(const CellLayers& c, const std::string& scheme, double cell_cpu_s) {
    std::lock_guard lock(mutex);
    fill_s += c.fill_s;
    uops += c.uops;
    setup_ms.push_back(1e3 * c.setup_cpu_s);
    run_cpu_s += c.run_cpu_s;
    cycles += c.cycles;
    committed_all += c.committed_all;
    add_optional(skipped, c.skipped);
    add_optional(episodes, c.episodes);
    add_optional(coalesced, c.coalesced);
    const core::SimStats& s = c.stats;
    measured_cycles += s.cycles;
    committed += s.committed_total();
    fetched += c.fetch.fetched_uops;
    wrong_path += c.fetch.wrong_path_uops;
    fetch_cycles += c.fetch.fetch_cycles;
    tc_hit_cycles += c.fetch.tc_hit_cycles;
    mispredicts += s.mispredicts_resolved;
    rename_blocked_cycles += s.rename_blocked_cycles;
    copies += s.committed_copies;
    predictor_s += c.predictor_s;
    branches += c.branches;
    decisions += c.steer.decisions;
    overrides += c.steer.balance_overrides;
    non_preferred += s.non_preferred_dispatches;
    renamed += s.renamed_uops;
    if (!scheme.empty()) {
      PolicyTotals& p = policy[scheme];
      p.iq_pref_stalls += s.iq_pref_stall_events;
      p.committed += s.committed_total();
      p.block_iq += s.rename_block_iq;
      p.block_rf += s.rename_block_rf;
      p.flushes += s.policy_flushes;
    }
    issued += s.issued_uops;
    cycles_with_issue += s.cycles_with_issue;
    rf_alloc_failures += c.rf_alloc_failures;
    link_transfers += c.link.transfers;
    link_denied += c.link.denied;
    l1_acc += c.l1.accesses;
    l1_hit += c.l1.hits;
    l2_acc += c.l2.accesses;
    l2_hit += c.l2.hits;
    dtlb_acc += c.dtlb.accesses;
    dtlb_hit += c.dtlb.hits;
    l2_misses += s.load_l2_misses + s.store_l2_misses;
    mob_waits += c.mob.waits;
    mob_forwards += c.mob.forwards;
    memory_s += c.memory_s;
    accesses += c.accesses;
    cell_cpu_ms.push_back(1e3 * cell_cpu_s);
    cells_cpu_s += cell_cpu_s;
    tracing_cpu_s += c.tracing_cpu_s;
  }

  void add_key(double seconds) {
    std::lock_guard lock(mutex);
    key_s += seconds;
    ++keys;
  }

  void add_store(double save_s, double load_s, bool saved) {
    std::lock_guard lock(mutex);
    save_ms.push_back(1e3 * save_s);
    load_ms.push_back(1e3 * load_s);
    if (!saved) ++save_failures;
  }
};

/// scale * num / den, 0 when den is 0.
template <typename N, typename D>
double ratio(N num, D den, double scale = 1.0) {
  const auto d = static_cast<double>(den);
  return d == 0.0 ? 0.0 : scale * static_cast<double>(num) / d;
}
template <typename N, typename D>
double pct(N num, D den) {
  return ratio(num, den, 100.0);
}
template <typename N, typename D>
double per_kuop(N num, D den) {
  return ratio(num, den, 1e3);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

// ---- Replays ---------------------------------------------------------------

void replay_predictor(const core::SimConfig& config,
                      const std::vector<std::shared_ptr<TimedSource>>& sources,
                      CellLayers& layers) {
  clusmt::frontend::BranchPredictor bp(config.predictor);
  std::uint64_t sink = 0;
  const double t0 = monotonic_s();
  for (std::size_t t = 0; t < sources.size(); ++t) {
    const auto tid = static_cast<clusmt::ThreadId>(t);
    for (const BranchSample& b : sources[t]->branches()) {
      if (b.indirect) {
        sink += bp.predict_indirect(b.pc);
        bp.train_indirect(b.pc, b.target);
      } else {
        const std::uint64_t history = bp.history(tid);
        const bool predicted = bp.predict_and_update_history(tid, b.pc);
        bp.train(tid, history, b.pc, b.taken);
        if (predicted != b.taken) {
          bp.restore_history(tid, history, true, b.taken);
        }
        sink += predicted ? 1 : 0;
      }
      ++layers.branches;
    }
  }
  layers.predictor_s = monotonic_s() - t0;
  g_replay_sink.fetch_add(sink, std::memory_order_relaxed);
}

void replay_memory(const core::SimConfig& config,
                   const std::vector<std::shared_ptr<TimedSource>>& sources,
                   CellLayers& layers) {
  clusmt::memory::MemoryHierarchy hierarchy(config.memory);
  std::uint64_t sink = 0;
  Cycle cycle = 0;
  const double t0 = monotonic_s();
  for (const auto& source : sources) {
    for (const AccessSample& a : source->accesses()) {
      const clusmt::memory::AccessResult r =
          a.store ? hierarchy.store(a.addr, cycle)
                  : hierarchy.load(a.addr, cycle);
      sink += static_cast<std::uint64_t>(r.latency);
      ++cycle;
      ++layers.accesses;
    }
  }
  layers.memory_s = monotonic_s() - t0;
  g_replay_sink.fetch_add(sink, std::memory_order_relaxed);
}

// ---- One traced cell -------------------------------------------------------

/// simulate_workload, step by step, with every call timed from outside.
harness::RunResult simulate_traced(const core::SimConfig& config,
                                   const trace::WorkloadSpec& spec,
                                   SpanLog& log, std::uint32_t parent,
                                   std::uint32_t cell, CellLayers& layers) {
  if (spec.threads.size() != static_cast<std::size_t>(config.num_threads)) {
    throw std::invalid_argument("workload " + spec.name +
                                " does not match the configured threads");
  }
  ScopedSpan setup(log, "core.setup", parent, cell);
  double c0 = thread_cpu_s();
  core::Simulator sim(config);
  std::vector<std::shared_ptr<TimedSource>> sources;
  for (std::size_t t = 0; t < spec.threads.size(); ++t) {
    const trace::TraceProfile* profile = nullptr;
    auto source =
        std::make_shared<TimedSource>(open_source(spec.threads[t], &profile));
    sim.attach_thread(static_cast<clusmt::ThreadId>(t), source, profile,
                      spec.threads[t].seed);
    sources.push_back(std::move(source));
  }
  layers.setup_cpu_s = thread_cpu_s() - c0;
  setup.finish();

  const auto fill_total = [&] {
    double s = 0.0;
    for (const auto& src : sources) s += src->fill_s();
    return s;
  };
  const auto timed_run = [&](Cycle cycles) {
    ScopedSpan run(log, "core.run", parent, cell);
    const double fill0 = fill_total();
    const double r0 = thread_cpu_s();
    sim.run(cycles);
    layers.run_cpu_s += thread_cpu_s() - r0;
    run.set_fill(fill_total() - fill0);
  };

  timed_run(kWarmup);
  layers.committed_all += sim.stats().committed_total();
  add_optional(layers.skipped, skipped_cycles(sim));
  add_optional(layers.episodes, skip_episodes(sim));
  sim.reset_stats();
  timed_run(kCycles);
  layers.committed_all += sim.stats().committed_total();
  add_optional(layers.skipped, skipped_cycles(sim));
  add_optional(layers.episodes, skip_episodes(sim));
  add_optional(layers.coalesced, events_coalesced(sim));
  layers.cycles = kWarmup + kCycles;

  layers.stats = sim.stats();
  layers.fetch = sim.fetch_engine().stats();
  layers.steer = sim.steering().stats();
  for (int c = 0; c < config.num_clusters; ++c) {
    for (const clusmt::RegClass cls :
         {clusmt::RegClass::kInt, clusmt::RegClass::kFp}) {
      layers.rf_alloc_failures += sim.cluster(c).rf(cls).stats().alloc_failures;
    }
  }
  layers.link = sim.interconnect().stats();
  layers.l1 = sim.hierarchy().l1_stats();
  layers.l2 = sim.hierarchy().l2_stats();
  layers.dtlb = sim.hierarchy().dtlb_stats();
  layers.mob = sim.mob().stats();
  for (const auto& src : sources) {
    layers.fill_s += src->fill_s();
    layers.uops += src->uops();
  }

  const double t0 = thread_cpu_s();
  bool view_ok = false;
  {
    ScopedSpan check(log, "check.validate_view", parent, cell);
    view_ok = sim.validate_view();
  }
  {
    ScopedSpan replay(log, "replay.predictor", parent, cell);
    replay_predictor(config, sources, layers);
  }
  {
    ScopedSpan replay(log, "replay.memory", parent, cell);
    replay_memory(config, sources, layers);
  }
  layers.tracing_cpu_s = thread_cpu_s() - t0;
  if (!view_ok) {
    throw std::runtime_error("validate_view() failed at the end of the cell");
  }

  harness::RunResult result;
  result.workload = spec.name;
  result.category = spec.category;
  result.type = spec.type;
  result.stats = sim.stats();
  result.throughput = sim.stats().throughput();
  for (int t = 0; t < config.num_threads; ++t) {
    result.ipc[t] = sim.stats().ipc(t);
  }
  return result;
}

std::string layer_scheme(const core::SimConfig& config) {
  return std::string(clusmt::policy::policy_kind_name(config.policy));
}

// ---- Metric output ---------------------------------------------------------

class LayerWriter {
 public:
  explicit LayerWriter(Json& out) : out_(out) {
    out_.key("layers").begin_object();
  }
  ~LayerWriter() { out_.end_object(); }
  LayerWriter(const LayerWriter&) = delete;
  LayerWriter& operator=(const LayerWriter&) = delete;

  void put(const std::string& name, double value, const char* unit) {
    out_.key(name).begin_object()
        .key("value").value(value)
        .key("unit").value(unit)
        .end_object();
  }
  void put(const std::string& name, std::uint64_t value, const char* unit) {
    put(name, static_cast<double>(value), unit);
  }
  /// † telemetry: null once the member it reads has been deleted.
  void put(const std::string& name, std::optional<double> value,
           const char* unit) {
    if (value) {
      put(name, *value, unit);
      return;
    }
    out_.key(name).begin_object()
        .key("value").value(std::numeric_limits<double>::quiet_NaN())
        .key("unit").value(unit)
        .end_object();
  }

 private:
  Json& out_;
};

std::optional<double> as_double(std::optional<std::uint64_t> v) {
  if (!v) return std::nullopt;
  return static_cast<double>(*v);
}

void write_spans(const std::vector<SpanRecord>& spans,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  for (const SpanRecord& s : spans) {
    Json j;
    j.begin_object()
        .key("id").value(static_cast<std::uint64_t>(s.id))
        .key("parent").value(static_cast<std::uint64_t>(s.parent))
        .key("cell").value(static_cast<std::uint64_t>(s.cell))
        .key("thread").value(static_cast<std::uint64_t>(s.thread))
        .key("name").value(s.name)
        .key("start_s").value(s.start_s)
        .key("end_s").value(s.end_s);
    if (!s.label.empty()) j.key("label").value(s.label);
    if (s.fill_s > 0.0) j.key("fill_s").value(s.fill_s);
    j.end_object();
    std::fprintf(f, "%s\n", j.str().c_str());
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error("cannot write spans to " + path);
  }
}

/// Self time per span name: duration minus child spans minus trace fill.
void write_self_times(const std::vector<SpanRecord>& spans, Json& out) {
  std::map<std::uint32_t, double> child_s;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_s[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> self_s;
  for (const SpanRecord& s : spans) {
    self_s[s.name] += s.end_s - s.start_s - child_s[s.id] - s.fill_s;
    if (s.fill_s > 0.0) self_s["trace.fill"] += s.fill_s;
  }
  out.key("span_self_s").begin_object();
  for (const auto& [name, seconds] : self_s) out.key(name).value(seconds);
  out.end_object();
}

/// Whole-repetition facts the per-cell totals do not carry.
struct RunFacts {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double tail_s = 0.0;
  std::uint64_t cells_simulated = 0;
  std::uint64_t cells_cached = 0;
  std::uint64_t corrupt_records = 0;
  std::optional<std::uint64_t> tapes_recorded;
  std::optional<std::uint64_t> tapes_replayed;
};

void write_layers(const Totals& T, const RunFacts& f, const Grid& grid,
                  Json& out) {
  LayerWriter L(out);
  L.put("trace.fill_cpu_s", T.fill_s, "s");
  L.put("trace.uops_delivered", T.uops, "count");
  L.put("trace.ns_per_uop", ratio(T.fill_s, T.uops, 1e9), "ns");
  L.put("trace.tapes_recorded", as_double(f.tapes_recorded), "count");
  L.put("trace.tapes_replayed", as_double(f.tapes_replayed), "count");

  std::optional<double> skipped_pct;
  if (T.skipped) skipped_pct = pct(*T.skipped, T.cycles);
  L.put("core.cell_setup_ms_p50", percentile(T.setup_ms, 0.5), "ms");
  L.put("core.run_cpu_s", T.run_cpu_s, "s");
  L.put("core.self_cpu_s", T.run_cpu_s - T.fill_s, "s");
  L.put("core.ns_per_cycle", ratio(T.run_cpu_s, T.cycles, 1e9), "ns");
  L.put("core.ns_per_committed_uop", ratio(T.run_cpu_s, T.committed_all, 1e9),
        "ns");
  L.put("core.cycles_simulated", T.cycles, "count");
  L.put("core.skipped_cycle_pct", skipped_pct, "%");
  L.put("core.skip_episodes", as_double(T.episodes), "count");
  L.put("core.events_coalesced", as_double(T.coalesced), "count");

  L.put("frontend.fetched_uops", T.fetched, "count");
  L.put("frontend.useful_fetch_pct", pct(T.committed, T.fetched), "%");
  L.put("frontend.wrong_path_pct", pct(T.wrong_path, T.fetched), "%");
  L.put("frontend.tc_hit_cycle_pct", pct(T.tc_hit_cycles, T.fetch_cycles),
        "%");
  L.put("frontend.mispredicts_per_kuop", per_kuop(T.mispredicts, T.committed),
        "1/kuop");
  L.put("frontend.rename_blocked_cycle_pct",
        pct(T.rename_blocked_cycles, T.measured_cycles), "%");
  L.put("frontend.copies_per_kuop", per_kuop(T.copies, T.committed),
        "1/kuop");
  L.put("frontend.predictor_replay_ns_per_branch",
        ratio(T.predictor_s, T.branches, 1e9), "ns");

  L.put("steer.decisions", T.decisions, "count");
  L.put("steer.balance_override_pct", pct(T.overrides, T.decisions), "%");
  L.put("steer.non_preferred_pct", pct(T.non_preferred, T.renamed), "%");

  for (const harness::ConfigPoint& point : grid.points) {
    const std::string scheme = layer_scheme(point.config);
    const auto it = T.policy.find(scheme);
    const PolicyTotals p = it == T.policy.end() ? PolicyTotals{} : it->second;
    const std::string prefix = "policy." + scheme + ".";
    L.put(prefix + "iq_pref_stalls_per_kuop",
          per_kuop(p.iq_pref_stalls, p.committed), "1/kuop");
    L.put(prefix + "rename_block_iq", p.block_iq, "count");
    L.put(prefix + "rename_block_rf", p.block_rf, "count");
    L.put(prefix + "flushes", p.flushes, "count");
  }

  L.put("backend.issued_uops", T.issued, "count");
  L.put("backend.issue_cycle_pct", pct(T.cycles_with_issue, T.measured_cycles),
        "%");
  L.put("backend.rf_alloc_failures", T.rf_alloc_failures, "count");
  L.put("backend.link_transfers", T.link_transfers, "count");
  L.put("backend.link_denied_pct",
        pct(T.link_denied, T.link_transfers + T.link_denied), "%");

  L.put("memory.l1_hit_pct", pct(T.l1_hit, T.l1_acc), "%");
  L.put("memory.l2_hit_pct", pct(T.l2_hit, T.l2_acc), "%");
  L.put("memory.dtlb_hit_pct", pct(T.dtlb_hit, T.dtlb_acc), "%");
  L.put("memory.l2_misses_per_kuop", per_kuop(T.l2_misses, T.committed),
        "1/kuop");
  L.put("memory.mob_waits", T.mob_waits, "count");
  L.put("memory.mob_forwards", T.mob_forwards, "count");
  L.put("memory.replay_ns_per_access", ratio(T.memory_s, T.accesses, 1e9),
        "ns");

  const double threads = static_cast<double>(kHostThreads);
  L.put("harness.cells_simulated", f.cells_simulated, "count");
  L.put("harness.cells_cached", f.cells_cached, "count");
  L.put("harness.key_us_per_cell", ratio(T.key_s, T.keys, 1e6), "us");
  L.put("harness.store_save_ms_p50", percentile(T.save_ms, 0.5), "ms");
  L.put("harness.store_load_ms_p50", percentile(T.load_ms, 0.5), "ms");
  L.put("harness.save_failures", T.save_failures, "count");
  L.put("harness.corrupt_records", f.corrupt_records, "count");
  L.put("harness.self_cpu_s", f.cpu_s - T.cells_cpu_s - T.tracing_cpu_s, "s");
  L.put("harness.pool_busy_pct", pct(T.cells_cpu_s, f.wall_s * threads), "%");
  L.put("harness.tail_s", f.tail_s, "s");
  L.put("harness.cell_cpu_ms_p50", percentile(T.cell_cpu_ms, 0.5), "ms");
  L.put("harness.cell_cpu_ms_p90", percentile(T.cell_cpu_ms, 0.9), "ms");
}

}  // namespace

void run_traced(const Grid& grid, const std::string& store_dir,
                const std::string& spans_path, Json& out) {
  const bool headline = grid.workload == Workload::kHeadlineCold;
  const std::vector<Baseline> baselines =
      headline ? grid_baselines(grid) : std::vector<Baseline>{};
  // Baselines first, then the SMT cells point-major: run_sweep's queue.
  const std::size_t num_tasks = baselines.size() + grid.cells.size();
  std::vector<CellOutcome> outcomes(num_tasks);

  harness::RunCache cache;  // memory tier only; the store is driven below
  const harness::RunStore store(store_dir);
  Totals totals;
  std::mutex idle_mutex;
  std::map<std::uint32_t, double> last_end;  // per worker: last task end

  const double t0 = monotonic_s();
  const double c0 = process_cpu_s();
  SpanLog log(t0);
  const std::uint64_t corrupt0 = harness::run_store_corrupt_reads();
  const TapeCounts tapes0 = read_tapes();

  const auto timed_key = [&](const core::SimConfig& config,
                             const trace::WorkloadSpec& workload,
                             std::uint32_t parent, std::uint32_t cell) {
    ScopedSpan span(log, "harness.run_key", parent, cell);
    const double k0 = monotonic_s();
    const harness::RunKey key =
        harness::run_key(config, workload, kCycles, kWarmup);
    totals.add_key(monotonic_s() - k0);
    return key;
  };

  // One simulated cell: simulate, then spill to the store and load the
  // record back (the disk tier's work), all timed. cells_* cells take the
  // same key and store round trip, so the harness layer's per-call costs
  // are measured on every workload; their untraced runs make neither call.
  const auto compute = [&](const harness::RunKey& key,
                           const core::SimConfig& config,
                           const trace::WorkloadSpec& workload,
                           std::uint32_t parent, std::uint32_t cell) {
    const double cpu0 = thread_cpu_s();
    CellLayers layers;
    harness::RunResult result =
        simulate_traced(config, workload, log, parent, cell, layers);
    double save_s = 0.0;
    double load_s = 0.0;
    bool saved = false;
    std::optional<harness::RunResult> loaded;
    {
      ScopedSpan span(log, "harness.store_save", parent, cell);
      const double s0 = monotonic_s();
      saved = store.save(key, result);
      save_s = monotonic_s() - s0;
    }
    {
      ScopedSpan span(log, "harness.store_load", parent, cell);
      const double l0 = monotonic_s();
      loaded = store.load(key);
      load_s = monotonic_s() - l0;
    }
    totals.add_store(save_s, load_s, saved);
    if (!loaded || cell_digest(loaded->stats, 0.0) !=
                       cell_digest(result.stats, 0.0)) {
      throw std::runtime_error("run-store record did not load back intact");
    }
    const double cell_cpu = thread_cpu_s() - cpu0 - layers.tracing_cpu_s;
    const bool smt = workload.threads.size() > 1;
    totals.add(layers, smt ? layer_scheme(config) : "", cell_cpu);
    return result;
  };

  const auto run_task = [&](std::size_t i) {
    const auto cell_id = static_cast<std::uint32_t>(i + 1);
    ScopedSpan span(log, "cell", 0, cell_id);
    CellOutcome& o = outcomes[i];
    try {
      if (i < baselines.size()) {
        const Baseline& b = baselines[i];
        o.label = b.label;
        const core::SimConfig single = harness::baseline_config(b.config);
        const trace::WorkloadSpec alone = harness::baseline_workload(b.trace);
        const harness::RunKey key =
            timed_key(single, alone, span.id(), cell_id);
        ScopedSpan get(log, "harness.get_or_run", span.id(), cell_id);
        const harness::RunResult r = cache.get_or_run(key, [&] {
          return compute(key, single, alone, get.id(), cell_id);
        });
        o.digest = cell_digest(r.stats, 0.0);
        o.error = check_cell(r.stats, 0.0, false, single);
      } else {
        const Cell& cell = grid.cells[i - baselines.size()];
        o.label = cell.label;
        const core::SimConfig& config = grid.points[cell.point].config;
        const trace::WorkloadSpec& workload = grid.spec.suite[cell.workload];
        if (!headline) {
          const harness::RunKey key =
              timed_key(config, workload, span.id(), cell_id);
          const harness::RunResult r =
              compute(key, config, workload, span.id(), cell_id);
          o.digest = cell_digest(r.stats, 0.0);
          o.error = check_cell(r.stats, 0.0, false, config);
        } else {
          const harness::RunKey key =
              timed_key(config, workload, span.id(), cell_id);
          harness::RunResult r;
          {
            ScopedSpan get(log, "harness.get_or_run", span.id(), cell_id);
            r = cache.get_or_run(key, [&] {
              return compute(key, config, workload, get.id(), cell_id);
            });
          }
          std::vector<double> smt;
          std::vector<double> alone_ipc;
          const core::SimConfig single = harness::baseline_config(config);
          for (std::size_t t = 0; t < workload.threads.size(); ++t) {
            const trace::WorkloadSpec alone =
                harness::baseline_workload(workload.threads[t]);
            const harness::RunKey bkey =
                timed_key(single, alone, span.id(), cell_id);
            ScopedSpan wait(log, "harness.baseline_wait", span.id(), cell_id);
            const harness::RunResult b = cache.get_or_run(bkey, [&] {
              return compute(bkey, single, alone, wait.id(), cell_id);
            });
            smt.push_back(r.ipc[t]);
            alone_ipc.push_back(b.ipc[0]);
          }
          const double fairness = core::fairness(smt, alone_ipc);
          o.digest = cell_digest(r.stats, fairness);
          o.error = check_cell(r.stats, fairness, true, config);
        }
      }
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    span.set_label(o.label);
    span.finish();
    std::lock_guard lock(idle_mutex);
    last_end[this_thread_index()] = span.end_s();
  };

  clusmt::parallel_for(num_tasks, run_task, kHostThreads);
  const double wall = monotonic_s() - t0;
  const double cpu = process_cpu_s() - c0;
  const TapeCounts tapes1 = read_tapes();
  const std::vector<SpanRecord> spans = log.records();
  write_spans(spans, spans_path);

  write_timing(out, t0, wall, cpu, totals.cycles);
  write_cells(out, outcomes);
  write_self_times(spans, out);

  double first_idle = wall;
  for (const auto& [thread, end] : last_end) {
    first_idle = std::min(first_idle, end);
  }
  RunFacts facts;
  facts.wall_s = wall;
  facts.cpu_s = cpu;
  facts.tail_s = wall - first_idle;
  facts.cells_simulated =
      headline ? cache.misses() : totals.cell_cpu_ms.size();
  facts.cells_cached = headline ? cache.hits() : 0;
  facts.corrupt_records = harness::run_store_corrupt_reads() - corrupt0;
  if (tapes0.recorded && tapes1.recorded) {
    facts.tapes_recorded = *tapes1.recorded - *tapes0.recorded;
  }
  if (tapes0.replayed && tapes1.replayed) {
    facts.tapes_replayed = *tapes1.replayed - *tapes0.replayed;
  }
  write_layers(totals, facts, grid, out);
}

}  // namespace sweepbench
