// Custom workloads: the trace substrate is a public API — this example
// builds a bespoke behavioural profile (a pointer-chasing database-like
// thread) from scratch, pairs it with a hand-written µop kernel replayed
// from a vector, and measures how the CDPRF scheme shares the machine
// between them.
//
//   ./examples/custom_workload [--cycles N]
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "core/simulator.h"
#include "harness/presets.h"
#include "trace/synthetic.h"
#include "trace/trace_source.h"

using namespace clusmt;

namespace {

/// A database-ish profile: integer heavy, pointer chasing over a working
/// set far beyond L2, hard-to-predict branches.
trace::TraceProfile make_database_profile() {
  trace::TraceProfile p;
  p.name = "custom.database";
  p.frac_int_alu = 0.40;
  p.frac_int_mul = 0.01;
  p.frac_fp_add = 0.01;
  p.frac_fp_mul = 0.01;
  p.frac_simd = 0.01;
  p.frac_load = 0.38;
  p.frac_store = 0.18;
  p.avg_block_len = 5.0;
  p.num_blocks = 200;
  p.hard_branch_fraction = 0.10;
  p.indirect_fraction = 0.02;
  p.dep_geo_p = 0.12;
  p.footprint_bytes = 16 * 1024 * 1024;
  p.stream_fraction = 0.30;
  p.stream_stride = 64;
  p.chase_fraction = 0.25;
  p.hot_bytes = 2 * 1024 * 1024;
  // Renormalise the mix exactly.
  const double sum = p.mix_sum();
  p.frac_int_alu /= sum;
  p.frac_int_mul /= sum;
  p.frac_fp_add /= sum;
  p.frac_fp_mul /= sum;
  p.frac_simd /= sum;
  p.frac_load /= sum;
  p.frac_store /= sum;
  return p;
}

/// A hand-written FP kernel: 4 independent multiply-add chains over a small
/// array, replayed as a loop — the kind of µop sequence a JIT or library
/// kernel would pin to the machine.
std::shared_ptr<trace::VectorTrace> make_fp_kernel() {
  using trace::MicroOp;
  using trace::UopClass;
  std::vector<MicroOp> ops;
  std::uint64_t pc = 0x800000;
  auto push = [&](MicroOp op) {
    op.pc = pc;
    pc += 4;
    ops.push_back(op);
  };
  for (int lane = 0; lane < 4; ++lane) {
    const auto acc = static_cast<std::int16_t>(kNumIntArchRegs + lane);
    const auto tmp = static_cast<std::int16_t>(kNumIntArchRegs + 8 + lane);
    MicroOp ld;  // load next operand (streaming, L1 resident)
    ld.cls = UopClass::kLoad;
    ld.dst = tmp;
    ld.src0 = static_cast<std::int16_t>(lane);
    ld.mem_addr = 0x20000 + static_cast<std::uint64_t>(lane) * 64;
    push(ld);
    MicroOp mul;
    mul.cls = UopClass::kFpMul;
    mul.dst = acc;
    mul.src0 = acc;
    mul.src1 = tmp;
    push(mul);
    MicroOp add;
    add.cls = UopClass::kFpAdd;
    add.dst = acc;
    add.src0 = acc;
    add.src1 = tmp;
    push(add);
  }
  MicroOp br;  // loop back
  br.cls = UopClass::kBranch;
  br.taken = true;
  br.target = 0x800000;
  br.fallthrough = pc + 4;
  br.src0 = 0;
  br.pc = pc;
  ops.push_back(br);
  return std::make_shared<trace::VectorTrace>("custom.fp_kernel",
                                              std::move(ops));
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Cycle cycles = static_cast<Cycle>(args.get_int("cycles", 150000, 0));

  const trace::TraceProfile database = make_database_profile();
  const std::string err = database.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "profile invalid: %s\n", err.c_str());
    return 1;
  }

  Table table({"scheme", "throughput", "IPC[db]", "IPC[kernel]",
               "copies/ret", "L2 miss (loads)"});
  for (policy::PolicyKind kind :
       {policy::PolicyKind::kIcount, policy::PolicyKind::kCssp,
        policy::PolicyKind::kCdprf}) {
    core::SimConfig config = harness::paper_baseline();
    config.policy = kind;
    config.policy_config.cdprf_interval = 32768;
    core::Simulator sim(config);
    // Thread 0: synthetic database trace built from the custom profile.
    sim.attach_thread(
        0, std::make_shared<trace::SyntheticTrace>(database, /*seed=*/7),
        &database, 7);
    // Thread 1: the hand-written kernel (no wrong-path profile needed: its
    // loop branch is perfectly predictable).
    sim.attach_thread(1, make_fp_kernel(), &database, 8);
    sim.run(cycles / 2);
    sim.reset_stats();
    sim.run(cycles);

    table.new_row()
        .add_cell(std::string(policy::policy_kind_name(kind)))
        .add_cell(sim.stats().throughput())
        .add_cell(sim.stats().ipc(0))
        .add_cell(sim.stats().ipc(1))
        .add_cell(sim.stats().copies_per_retired())
        .add_cell(sim.stats().load_l2_misses);
  }
  std::printf(
      "Custom workload: pointer-chasing database thread + FP kernel\n\n%s\n",
      table.render_text().c_str());
  return 0;
}
