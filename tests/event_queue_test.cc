// Differential coverage for the event wheel: the kWheel model (16-byte
// per-cycle bucket records, overflow heap for events beyond the wheel
// span) must be bit-identical to the kHeapReference oracle — the original
// single global priority queue — across machines, schemes, squash-heavy
// traces, and a main-memory latency far past the wheel span (so bucket
// records and overflow events interleave at the same drain cycle). This is
// the queue-level analogue of IssueModel::kScanReference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulator.h"
#include "harness/presets.h"
#include "policy/policy.h"
#include "trace/workload.h"

namespace clusmt::core {
namespace {

/// Field-by-field SimStats equality with a readable failure message.
void expect_stats_equal(const SimStats& a, const SimStats& b,
                        const std::string& label) {
#define CLUSMT_EXPECT_FIELD(field) \
  EXPECT_EQ(a.field, b.field) << label << ": SimStats::" #field " diverged"
  CLUSMT_EXPECT_FIELD(cycles);
  for (int t = 0; t < kMaxThreads; ++t) CLUSMT_EXPECT_FIELD(committed[t]);
  CLUSMT_EXPECT_FIELD(committed_copies);
  CLUSMT_EXPECT_FIELD(committed_branches);
  CLUSMT_EXPECT_FIELD(committed_loads);
  CLUSMT_EXPECT_FIELD(committed_stores);
  CLUSMT_EXPECT_FIELD(renamed_uops);
  CLUSMT_EXPECT_FIELD(copies_created);
  CLUSMT_EXPECT_FIELD(rename_cycles);
  CLUSMT_EXPECT_FIELD(rename_blocked_cycles);
  CLUSMT_EXPECT_FIELD(rename_block_iq);
  CLUSMT_EXPECT_FIELD(rename_block_rf);
  CLUSMT_EXPECT_FIELD(rename_block_rob);
  CLUSMT_EXPECT_FIELD(rename_block_mob);
  CLUSMT_EXPECT_FIELD(iq_pref_stall_events);
  CLUSMT_EXPECT_FIELD(non_preferred_dispatches);
  CLUSMT_EXPECT_FIELD(issued_uops);
  CLUSMT_EXPECT_FIELD(cycles_with_issue);
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < trace::kNumPortClasses; ++k) {
      CLUSMT_EXPECT_FIELD(imbalance_events[i][k]);
    }
  }
  CLUSMT_EXPECT_FIELD(squashed_uops);
  CLUSMT_EXPECT_FIELD(branches_resolved);
  CLUSMT_EXPECT_FIELD(mispredicts_resolved);
  CLUSMT_EXPECT_FIELD(policy_flushes);
  CLUSMT_EXPECT_FIELD(load_l2_misses);
  CLUSMT_EXPECT_FIELD(store_l2_misses);
  CLUSMT_EXPECT_FIELD(load_forwards);
#undef CLUSMT_EXPECT_FIELD
}

/// Pool traces with an optional squash-heavy override, so event teardown
/// under wrong-path recovery is permanently exercised.
std::vector<trace::TraceSpec> make_threads(int num_threads, bool squash_heavy,
                                           std::uint64_t seed) {
  const trace::TracePool pool(seed);
  std::vector<trace::TraceSpec> threads;
  for (int t = 0; t < num_threads; ++t) {
    trace::TraceSpec spec =
        pool.get(t % 2 == 0 ? trace::Category::kISpec00
                            : trace::Category::kFSpec00,
                 t % 2 == 0 ? trace::TraceKind::kIlp : trace::TraceKind::kMem,
                 t % trace::TracePool::kVariantsPerKind);
    if (squash_heavy) {
      spec.profile.hard_branch_fraction = 0.5;
      spec.profile.name += "+squashy";
    }
    threads.push_back(std::move(spec));
  }
  return threads;
}

SimStats run_once(const SimConfig& config, Simulator::EventModel model,
                  const std::vector<trace::TraceSpec>& threads, Cycle warmup,
                  Cycle cycles) {
  Simulator sim(config);
  sim.set_event_model(model);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sim.attach_thread(static_cast<ThreadId>(t), threads[t]);
  }
  sim.run(warmup);
  sim.reset_stats();
  sim.run(cycles);
  EXPECT_TRUE(sim.validate_view());
  for (int c = 0; c < config.num_clusters; ++c) {
    EXPECT_TRUE(sim.cluster(c).iq().validate());
  }
  return sim.stats();
}

TEST(EventQueueDifferential, WheelMatchesHeapReferenceAcrossGrid) {
  struct MachineCase {
    const char* name;
    SimConfig config;
    int threads;
  };
  MachineCase machines[] = {
      {"bounded-2t", harness::rf_study_config(64), 2},
      {"unbounded-2t", harness::iq_study_config(32), 2},
      {"smt4", harness::smt4_baseline(), 4},
      // Main memory slower than the whole wheel span: every L2 miss
      // completion lands in the overflow heap while cache hits keep the
      // buckets busy, pinning the heap-before-bucket drain order.
      {"slow-mem-2t", harness::rf_study_config(64), 2},
  };
  machines[3].config.memory.memory_latency = 1500;
  const policy::PolicyKind schemes[] = {
      policy::PolicyKind::kIcount, policy::PolicyKind::kCssp,
      policy::PolicyKind::kCdprf, policy::PolicyKind::kFlushPlus};

  for (const MachineCase& machine : machines) {
    for (const policy::PolicyKind scheme : schemes) {
      for (const bool squash_heavy : {false, true}) {
        SimConfig config = machine.config;
        config.policy = scheme;
        const auto threads =
            make_threads(machine.threads, squash_heavy, /*seed=*/7);
        const std::string label =
            std::string(machine.name) + "/" +
            std::string(policy::policy_kind_name(scheme)) +
            (squash_heavy ? "/squash-heavy" : "/plain");
        const SimStats wheel =
            run_once(config, Simulator::EventModel::kWheel, threads,
                     /*warmup=*/1000, /*cycles=*/5000);
        const SimStats reference =
            run_once(config, Simulator::EventModel::kHeapReference, threads,
                     /*warmup=*/1000, /*cycles=*/5000);
        expect_stats_equal(wheel, reference, label);
      }
    }
  }
}

TEST(EventQueueDifferential, OverflowPathActuallyExercised) {
  // Guard against the slow-mem grid case silently testing nothing: with
  // main memory past the wheel span, L2 misses must both occur and retire.
  SimConfig config = harness::rf_study_config(64);
  config.memory.memory_latency = 1500;
  const auto threads = make_threads(2, /*squash_heavy=*/false, /*seed=*/7);
  const SimStats stats =
      run_once(config, Simulator::EventModel::kWheel, threads,
               /*warmup=*/1000, /*cycles=*/20000);
  EXPECT_GT(stats.load_l2_misses, 0u)
      << "no L2 misses: the overflow heap was never used";
  EXPECT_GT(stats.committed_loads, 0u);
}

}  // namespace
}  // namespace clusmt::core
