#include <gtest/gtest.h>

#include <memory>

#include "core/metrics.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "trace/trace_source.h"
#include "trace/workload.h"

namespace clusmt::core {
namespace {

using trace::MicroOp;
using trace::UopClass;

/// A tiny deterministic program: `alu_chain` dependent ALU ops, then a
/// strongly-taken loop branch back to the start.
std::shared_ptr<trace::VectorTrace> make_chain_loop(int alu_chain) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < alu_chain; ++i) {
    MicroOp op;
    op.pc = 0x400000 + i * 4;
    op.cls = UopClass::kIntAlu;
    op.dst = 1;
    op.src0 = 1;  // serial chain through r1
    ops.push_back(op);
  }
  MicroOp br;
  br.pc = 0x400000 + alu_chain * 4;
  br.cls = UopClass::kBranch;
  br.taken = true;
  br.target = 0x400000;
  br.fallthrough = br.pc + 4;
  br.src0 = 0;
  ops.push_back(br);
  return std::make_shared<trace::VectorTrace>("chain", std::move(ops));
}

SimConfig single_thread_config() {
  SimConfig config = harness::paper_baseline();
  config.num_threads = 1;
  return config;
}

TEST(Simulator, SerialChainCommitsAboutOnePerCycle) {
  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(0, make_chain_loop(30), nullptr, 1);
  sim.run(5000);
  const double ipc = sim.stats().ipc(0);
  // A fully serial chain through one register cannot exceed 1 IPC (1-cycle
  // ALUs), and should get close once the predictor learns the loop.
  EXPECT_LE(ipc, 1.05);
  EXPECT_GE(ipc, 0.70);
}

TEST(Simulator, IndependentOpsExceedOneIpc) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 30; ++i) {
    MicroOp op;
    op.pc = 0x400000 + i * 4;
    op.cls = UopClass::kIntAlu;
    op.dst = static_cast<std::int16_t>(i % 12);
    // Sources come from far-away registers: effectively independent.
    op.src0 = static_cast<std::int16_t>((i + 6) % 12);
    ops.push_back(op);
  }
  MicroOp br;
  br.pc = 0x400000 + 30 * 4;
  br.cls = UopClass::kBranch;
  br.taken = true;
  br.target = 0x400000;
  br.fallthrough = br.pc + 4;
  ops.push_back(br);

  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(
      0, std::make_shared<trace::VectorTrace>("indep", std::move(ops)),
      nullptr, 1);
  sim.run(5000);
  EXPECT_GT(sim.stats().ipc(0), 2.0);
}

TEST(Simulator, CommitsAreExactlyTraceOrder) {
  // With a single thread and no wrong paths (perfectly predictable branch),
  // committed non-copy µops == renamed - squashed - in flight, and the
  // committed counters stay coherent.
  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(0, make_chain_loop(10), nullptr, 1);
  sim.run(3000);
  const SimStats& s = sim.stats();
  EXPECT_GT(s.committed[0], 0u);
  EXPECT_GE(s.renamed_uops + s.copies_created,
            s.committed_total() + s.committed_copies);
  EXPECT_EQ(s.committed[1], 0u);
}

TEST(Simulator, StoreLoadForwardingWorks) {
  // store r2 -> [A]; load [A] -> r3 repeatedly: loads should forward.
  std::vector<MicroOp> ops;
  MicroOp st;
  st.pc = 0x400000;
  st.cls = UopClass::kStore;
  st.src0 = 0;
  st.src1 = 2;
  st.mem_addr = 0x10000;
  ops.push_back(st);
  MicroOp ld;
  ld.pc = 0x400004;
  ld.cls = UopClass::kLoad;
  ld.dst = 3;
  ld.src0 = 0;
  ld.mem_addr = 0x10000;
  ops.push_back(ld);
  MicroOp br;
  br.pc = 0x400008;
  br.cls = UopClass::kBranch;
  br.taken = true;
  br.target = 0x400000;
  br.fallthrough = 0x40000C;
  ops.push_back(br);

  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(
      0, std::make_shared<trace::VectorTrace>("fwd", std::move(ops)),
      nullptr, 1);
  sim.run(2000);
  EXPECT_GT(sim.stats().load_forwards, 50u);
}

TEST(Simulator, MispredictsSquashWrongPath) {
  trace::TracePool pool(3);
  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kOffice,
                                trace::TraceKind::kIlp, 0));
  sim.run(20000);
  const SimStats& s = sim.stats();
  EXPECT_GT(s.mispredicts_resolved, 10u);
  EXPECT_GT(s.squashed_uops, s.mispredicts_resolved);
  // Wrong-path work never commits: committed counters grow monotonically
  // through squashes (sanity: positive and plausible).
  EXPECT_GT(s.committed[0], 1000u);
}

TEST(Simulator, CrossClusterCopiesAreCreatedAndCommitted) {
  trace::TracePool pool(1);
  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kFSpec00,
                                trace::TraceKind::kIlp, 0));
  sim.run(20000);
  EXPECT_GT(sim.stats().copies_created, 100u);
  EXPECT_GT(sim.stats().committed_copies, 50u);
  EXPECT_GT(sim.interconnect().stats().transfers, 50u);
}

TEST(Simulator, PrivateClustersNeverCopy) {
  trace::TracePool pool(1);
  SimConfig config = harness::paper_baseline();
  config.policy = policy::PolicyKind::kPrivateClusters;
  Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kISpec00,
                                trace::TraceKind::kIlp, 0));
  sim.attach_thread(1, pool.get(trace::Category::kFSpec00,
                                trace::TraceKind::kIlp, 0));
  sim.run(20000);
  EXPECT_EQ(sim.stats().copies_created, 0u);
  EXPECT_EQ(sim.cluster(0).iq().occupancy_of(1), 0);
  EXPECT_EQ(sim.cluster(1).iq().occupancy_of(0), 0);
}

TEST(Simulator, FlushPlusActuallyFlushes) {
  trace::TracePool pool(1);
  SimConfig config = harness::paper_baseline();
  config.policy = policy::PolicyKind::kFlushPlus;
  Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kISpec00,
                                trace::TraceKind::kMem, 0));
  sim.attach_thread(1, pool.get(trace::Category::kDH,
                                trace::TraceKind::kIlp, 0));
  sim.run(30000);
  EXPECT_GT(sim.stats().policy_flushes, 5u);
  EXPECT_GT(sim.stats().committed[0], 0u);  // flushed thread still advances
  EXPECT_GT(sim.stats().committed[1], 0u);
}

TEST(Simulator, ResetStatsKeepsMachineWarm) {
  trace::TracePool pool(1);
  SimConfig config = single_thread_config();
  Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kDH,
                                trace::TraceKind::kIlp, 0));
  sim.run(10000);
  const double cold_hit_rate = sim.hierarchy().l1_stats().hit_rate();
  sim.reset_stats();
  EXPECT_EQ(sim.stats().committed[0], 0u);
  EXPECT_EQ(sim.stats().cycles, 0u);
  sim.run(10000);
  // Warm-phase hit rate should beat the cold phase.
  EXPECT_GT(sim.hierarchy().l1_stats().hit_rate(), cold_hit_rate);
}

TEST(Simulator, UnboundedResourcesRemoveRfBlocks) {
  trace::TracePool pool(1);
  SimConfig config = harness::iq_study_config(32);
  Simulator sim(config);
  sim.attach_thread(0, pool.get(trace::Category::kISpec00,
                                trace::TraceKind::kIlp, 0));
  sim.attach_thread(1, pool.get(trace::Category::kISpec00,
                                trace::TraceKind::kIlp, 1));
  sim.run(20000);
  EXPECT_EQ(sim.stats().rename_block_rf, 0u);
}

TEST(Simulator, RejectsBadConfigs) {
  SimConfig config;
  config.num_threads = kMaxThreads + 1;
  EXPECT_THROW(Simulator{config}, std::invalid_argument);
  config = SimConfig{};
  config.num_clusters = 0;
  EXPECT_THROW(Simulator{config}, std::invalid_argument);
}

TEST(Metrics, FairnessProperties) {
  const std::vector<double> single = {2.0, 1.0};
  // Equal slowdowns (both halved) => fairness 1.
  EXPECT_DOUBLE_EQ(fairness(std::vector<double>{1.0, 0.5}, single), 1.0);
  // Unequal slowdowns: min ratio < 1, symmetric in thread order.
  const double f1 = fairness(std::vector<double>{1.0, 0.25}, single);
  const double f2 = fairness(std::vector<double>{0.5, 0.5},
                             std::vector<double>{1.0, 2.0});
  EXPECT_LT(f1, 1.0);
  EXPECT_GT(f1, 0.0);
  EXPECT_DOUBLE_EQ(f1, f2);
  // Degenerate inputs.
  EXPECT_EQ(fairness({}, {}), 0.0);
}

TEST(Metrics, Slowdown) {
  EXPECT_DOUBLE_EQ(slowdown(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(slowdown(2.0, 0.0), 0.0);
}

TEST(Rob, RingSemantics) {
  Rob rob(4);
  EXPECT_TRUE(rob.empty());
  DynUop* a = rob.push();
  DynUop* b = rob.push();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->seq = 1;
  b->seq = 2;
  EXPECT_EQ(rob.size(), 2);
  EXPECT_EQ(rob.head().seq, 1u);
  EXPECT_EQ(rob.tail().seq, 2u);
  rob.pop_head();
  EXPECT_EQ(rob.head().seq, 2u);
  rob.pop_tail();
  EXPECT_TRUE(rob.empty());
  // Fill to capacity.
  for (int i = 0; i < 4; ++i) ASSERT_NE(rob.push(), nullptr);
  EXPECT_TRUE(rob.full());
  EXPECT_EQ(rob.push(), nullptr);
}

}  // namespace
}  // namespace clusmt::core
