// Differential oracle for quiescent-cycle skip-ahead: when a cycle provably
// changes nothing but monotone stall counters, the core jumps `now` to the
// next event horizon and replicates the per-cycle deltas in closed form.
// Skipping must leave SimStats bit-identical to simulating every cycle.
//
// Skip-ahead is always on; Simulator::set_skip_ahead(false) is the oracle.
// The matrix covers every resource-assignment scheme crossed with machine
// shape (2T bounded / unbounded RF, SMT4), workload flavour (mem-heavy,
// ilp, squash-heavy), heterogeneous cluster grids, and a main-memory
// latency past the timing wheel's span so skips must consult the overflow
// heap across multiple wheel wraps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "harness/presets.h"
#include "policy/policy.h"
#include "trace/workload.h"
#include "stats_equal.h"

namespace clusmt::core {
namespace {

enum class Flavour { kMemHeavy, kIlp, kSquashHeavy };

const char* flavour_name(Flavour f) {
  switch (f) {
    case Flavour::kMemHeavy: return "mem";
    case Flavour::kIlp: return "ilp";
    case Flavour::kSquashHeavy: return "squashy";
  }
  return "?";
}

/// Pool traces of the requested flavour. Mem-heavy threads stall together
/// on L2 misses (the quiescent windows skip-ahead targets); ilp threads
/// rarely quiesce (skip attempts must bail harmlessly); squash-heavy
/// threads exercise undo and event teardown mid-skip.
std::vector<trace::TraceSpec> make_threads(int num_threads, Flavour flavour,
                                           std::uint64_t seed) {
  const trace::TracePool pool(seed);
  std::vector<trace::TraceSpec> threads;
  for (int t = 0; t < num_threads; ++t) {
    const trace::Category cat = t % 2 == 0 ? trace::Category::kISpec00
                                           : trace::Category::kFSpec00;
    trace::TraceKind kind;
    switch (flavour) {
      case Flavour::kMemHeavy: kind = trace::TraceKind::kMem; break;
      case Flavour::kIlp: kind = trace::TraceKind::kIlp; break;
      case Flavour::kSquashHeavy:
        kind = t % 2 == 0 ? trace::TraceKind::kIlp : trace::TraceKind::kMem;
        break;
    }
    trace::TraceSpec spec =
        pool.get(cat, kind, t % trace::TracePool::kVariantsPerKind);
    if (flavour == Flavour::kSquashHeavy) {
      spec.profile.hard_branch_fraction = 0.5;
      spec.profile.name += "+squashy";
    }
    threads.push_back(std::move(spec));
  }
  return threads;
}

struct RunOutcome {
  SimStats stats;
  std::uint64_t cycles_skipped = 0;
  std::uint64_t skip_episodes = 0;
};

void attach_threads(Simulator& sim,
                    const std::vector<trace::TraceSpec>& threads) {
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sim.attach_thread(static_cast<ThreadId>(t), threads[t]);
  }
}

void expect_machine_consistent(const Simulator& sim) {
  EXPECT_TRUE(sim.validate_view());
  for (int c = 0; c < sim.config().num_clusters; ++c) {
    EXPECT_TRUE(sim.cluster(c).iq().validate());
  }
}

RunOutcome run_once(const SimConfig& config,
                    const std::vector<trace::TraceSpec>& threads,
                    bool skip_ahead, Cycle warmup, Cycle cycles) {
  Simulator sim(config);
  sim.set_skip_ahead(skip_ahead);
  attach_threads(sim, threads);
  sim.run(warmup);
  sim.reset_stats();
  sim.run(cycles);
  expect_machine_consistent(sim);
  return {sim.stats(), sim.cycles_skipped(), sim.skip_episodes()};
}

/// Runs `config` once with skip-ahead (the shipping default) and once
/// without (the oracle), expecting bit-identical SimStats. Returns the
/// skipping run's outcome for activity assertions.
RunOutcome expect_modes_agree(const SimConfig& config,
                              const std::vector<trace::TraceSpec>& threads,
                              const std::string& label, Cycle warmup = 500,
                              Cycle cycles = 4000) {
  const RunOutcome fast = run_once(config, threads, true, warmup, cycles);
  const RunOutcome ref = run_once(config, threads, false, warmup, cycles);
  expect_stats_equal(fast.stats, ref.stats, label);
  EXPECT_EQ(ref.cycles_skipped, 0u) << label << ": oracle must never skip";
  return fast;
}

TEST(SkipAheadDifferential, AllSchemesAcrossMachinesAndFlavours) {
  struct MachineCase {
    const char* name;
    SimConfig config;
    int threads;
  };
  const MachineCase machines[] = {
      {"bounded-2t", harness::rf_study_config(64), 2},
      {"unbounded-2t", harness::iq_study_config(32), 2},
      {"smt4", harness::smt4_baseline(), 4},
  };
  std::uint64_t skipped_total = 0;
  for (const MachineCase& machine : machines) {
    for (const policy::PolicyKind scheme : policy::all_policy_kinds()) {
      for (const Flavour flavour :
           {Flavour::kMemHeavy, Flavour::kIlp, Flavour::kSquashHeavy}) {
        SimConfig config = machine.config;
        config.policy = scheme;
        const auto threads = make_threads(machine.threads, flavour,
                                          /*seed=*/7);
        const std::string label =
            std::string(machine.name) + "/" +
            std::string(policy::policy_kind_name(scheme)) + "/" +
            flavour_name(flavour);
        skipped_total +=
            expect_modes_agree(config, threads, label).cycles_skipped;
      }
    }
  }
  // Guard against the whole matrix silently testing nothing: the mem-heavy
  // cells must have produced real skip episodes somewhere.
  EXPECT_GT(skipped_total, 0u)
      << "no cell ever skipped a cycle: skip-ahead is inert";
}

TEST(SkipAheadDifferential, HeterogeneousShapes) {
  // Asymmetric grid: a wide cluster 0 vs a narrow cluster 1, asymmetric
  // link latencies. Exercises capacity-scaled steering and per-cluster
  // overrides while skipping.
  SimConfig base = harness::rf_study_config(64);
  base.shape[0] = ClusterShape{.issue_width = 4, .iq_entries = 48,
                               .int_regs = 96, .fp_regs = 96};
  base.shape[1] = ClusterShape{.issue_width = 2, .iq_entries = 16,
                               .int_regs = 48, .fp_regs = 48};
  base.link_latency_cc[0][1] = 3;
  base.link_latency_cc[1][0] = 1;
  const policy::PolicyKind schemes[] = {
      policy::PolicyKind::kIcount, policy::PolicyKind::kCssp,
      policy::PolicyKind::kCdprf, policy::PolicyKind::kFlushPlus,
      policy::PolicyKind::kHillClimb};
  for (const policy::PolicyKind scheme : schemes) {
    for (const Flavour flavour : {Flavour::kMemHeavy, Flavour::kSquashHeavy}) {
      SimConfig config = base;
      config.policy = scheme;
      const auto threads = make_threads(2, flavour, /*seed=*/11);
      const std::string label =
          std::string("hetero/") +
          std::string(policy::policy_kind_name(scheme)) + "/" +
          flavour_name(flavour);
      expect_modes_agree(config, threads, label);
    }
  }
}

TEST(SkipAheadDifferential, LongMemoryLatencyForcesMultiBucketJumps) {
  // Main memory slower than the whole 1024-bucket wheel span: quiescent
  // windows stretch past the wheel, so the skip horizon must come from the
  // overflow heap and single jumps must cross multiple bucket wraps.
  SimConfig config = harness::rf_study_config(64);
  config.memory.memory_latency = 2500;
  const auto threads = make_threads(2, Flavour::kMemHeavy, /*seed=*/7);
  constexpr Cycle kWarmup = 1000;
  constexpr Cycle kCycles = 20000;
  constexpr Cycle kWheelSpan = 1024;
  // A skip never crosses the end of a run() call, so in a chunk only
  // slightly longer than the wheel span, a delta of exactly one episode
  // skipping more than the span is one single jump past it.
  constexpr Cycle kChunk = 1100;

  Simulator sim(config);
  attach_threads(sim, threads);
  sim.run(kWarmup);
  sim.reset_stats();
  int long_jump_chunks = 0;
  for (Cycle done = 0; done < kCycles;) {
    const Cycle chunk = std::min(kChunk, kCycles - done);
    const std::uint64_t skipped = sim.cycles_skipped();
    const std::uint64_t episodes = sim.skip_episodes();
    sim.run(chunk);
    done += chunk;
    if (sim.skip_episodes() - episodes == 1 &&
        sim.cycles_skipped() - skipped > kWheelSpan) {
      ++long_jump_chunks;
    }
  }
  expect_machine_consistent(sim);
  EXPECT_GT(sim.stats().load_l2_misses, 0u)
      << "no L2 misses: the long-latency path was never exercised";
  EXPECT_GT(long_jump_chunks, 0)
      << "no single jump exceeded the " << kWheelSpan << "-cycle wheel span";

  // Chunking changes where skips may end, never the result.
  const RunOutcome ref =
      run_once(config, threads, /*skip_ahead=*/false, kWarmup, kCycles);
  expect_stats_equal(sim.stats(), ref.stats, "slow-mem/chunked");
}

TEST(SkipAheadDifferential, WatchdogFiresIdenticallyWhenSkipping) {
  // A machine that deadlocks (mem-heavy threads, tiny watchdog) must throw
  // the watchdog error in both modes — and the skip path must not jump
  // past the exact cycle the per-cycle oracle would trap on.
  SimConfig config = harness::rf_study_config(64);
  config.memory.memory_latency = 2500;
  config.watchdog_cycles = 600;
  const auto threads = make_threads(2, Flavour::kMemHeavy, /*seed=*/7);
  auto run_to_trap = [&](bool fast) -> std::string {
    Simulator sim(config);
    sim.set_skip_ahead(fast);
    attach_threads(sim, threads);
    try {
      sim.run(100000);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  const std::string fast_msg = run_to_trap(true);
  const std::string ref_msg = run_to_trap(false);
  // Either both complete (the workload commits often enough) or both trap
  // with the identical message (which embeds the trap cycle).
  EXPECT_EQ(fast_msg, ref_msg);
}

}  // namespace
}  // namespace clusmt::core
