// Differential coverage for the flattened trace datapath: SyntheticTrace
// (the flat contiguous-µop-array cursor) must produce exactly the µop
// sequence of BlockWalkTrace (the retained per-block walker) — every field,
// in order — for every workload character and across seeds. This is the
// trace layer's analogue of the issue stage's kScanReference oracle: the
// two generators share the sampling machinery (SyntheticCursor), so any
// divergence is a flat-layout bug (wrong successor index, wrong pc, a
// dropped or duplicated µop), not an RNG difference. The sampled stream
// itself is pinned separately, by one digest per TracePool(1) trace.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>

#include "common/hash.h"
#include "trace/profile.h"
#include "trace/synthetic.h"
#include "trace/workload.h"

namespace clusmt::trace {
namespace {

void expect_same_stream(const TraceProfile& profile, std::uint64_t seed,
                        int uops, const std::string& label) {
  auto program = std::make_shared<SyntheticProgram>(profile, seed);
  SyntheticTrace flat(program, seed);
  BlockWalkTrace walk(program, seed);
  for (int i = 0; i < uops; ++i) {
    const MicroOp a = flat.next();
    const MicroOp b = walk.next();
    const auto at = label + " uop #" + std::to_string(i);
    ASSERT_EQ(a.pc, b.pc) << at;
    ASSERT_EQ(a.cls, b.cls) << at;
    ASSERT_EQ(a.dst, b.dst) << at;
    ASSERT_EQ(a.src0, b.src0) << at;
    ASSERT_EQ(a.src1, b.src1) << at;
    ASSERT_EQ(a.mem_addr, b.mem_addr) << at;
    ASSERT_EQ(a.taken, b.taken) << at;
    ASSERT_EQ(a.indirect, b.indirect) << at;
    ASSERT_EQ(a.target, b.target) << at;
    ASSERT_EQ(a.fallthrough, b.fallthrough) << at;
  }
}

TEST(TraceFlatDifferential, AllCharactersAndVariantsMatchBlockWalk) {
  for (Category cat : all_plain_categories()) {
    for (TraceKind kind : {TraceKind::kIlp, TraceKind::kMem}) {
      for (int v = 0; v < TracePool::kVariantsPerKind; ++v) {
        const TraceProfile profile = make_profile(cat, kind, v);
        expect_same_stream(profile, /*seed=*/7 + v, /*uops=*/4000,
                           profile.name);
      }
    }
  }
}

TEST(TraceFlatDifferential, SeedSweepMatchesBlockWalk) {
  const TraceProfile profile =
      make_profile(Category::kISpec00, TraceKind::kIlp, 0);
  for (std::uint64_t seed : {1ull, 2ull, 42ull, 0xDEADBEEFull, 1ull << 40}) {
    expect_same_stream(profile, seed,
                       /*uops=*/5000,
                       profile.name + "@seed" + std::to_string(seed));
  }
}

TEST(TraceFlatDifferential, BatchedFillMatchesPerUopNext) {
  // fill() must be exactly `count` next() calls — mixed batch sizes across
  // branch boundaries against a lockstep per-µop reference.
  const TraceProfile profile =
      make_profile(Category::kServer, TraceKind::kMem, 1);
  auto program = std::make_shared<SyntheticProgram>(profile, 9);
  SyntheticTrace batched(program, 9);
  SyntheticTrace single(program, 9);
  MicroOp buf[13];
  int emitted = 0;
  for (int round = 0; round < 600; ++round) {
    const int n = 1 + round % 13;
    batched.fill(buf, n);
    for (int i = 0; i < n; ++i) {
      const MicroOp want = single.next();
      ASSERT_EQ(buf[i].pc, want.pc) << "uop #" << (emitted + i);
      ASSERT_EQ(buf[i].src0, want.src0) << "uop #" << (emitted + i);
      ASSERT_EQ(buf[i].mem_addr, want.mem_addr) << "uop #" << (emitted + i);
    }
    emitted += n;
  }
}

/// FNV-1a over every MicroOp field of the first `uops` µops of `spec`'s
/// stream, delivered through fill() as the fetch engine reads it.
std::uint64_t stream_digest(const TraceSpec& spec, int uops) {
  SyntheticTrace trace(spec.profile, spec.seed);
  Fnv1a h;
  MicroOp buf[64];
  for (int done = 0; done < uops; done += 64) {
    trace.fill(buf, 64);
    for (const MicroOp& op : buf) {
      h.add(op.pc);
      h.add_enum(op.cls);
      h.add(op.dst);
      h.add(op.src0);
      h.add(op.src1);
      h.add(op.mem_addr);
      h.add(op.taken);
      h.add(op.indirect);
      h.add(op.target);
      h.add(op.fallthrough);
    }
  }
  return h.digest();
}

TEST(TraceFlat, PoolStreamsMatchPinnedDigests) {
  // The generator's output pinned per TracePool(1) trace, in pool order
  // (first 2^16 µops each). The block walker above shares the sampling
  // code, so only these digests and the golden tables notice a change to
  // the sampled stream itself (the RNG, a distribution, the sampling
  // order). Re-pin only for a deliberate change to the synthetic streams.
  constexpr std::uint64_t kDigests[] = {
      0x98288f6eb81ad786ull, 0xb338bcd6952045aaull, 0xa17f02dcded6a144ull,
      0x9d12815da4210b4dull, 0x546967b66f92c751ull, 0x229277b891d98bf7ull,
      0x3f5767a84b2bf4faull, 0x82d0088eb9af0617ull, 0x1bf2b670393c24cdull,
      0x03d50446b1e1a3e7ull, 0x611da4770313f5d1ull, 0x8248605f73206e58ull,
      0x24ea2cba906651a1ull, 0x6c8c867dc5fe6d21ull, 0x5cc9a7700323c021ull,
      0xb033970b908fd16eull, 0x540bf476ac28287aull, 0x01310ee40bb689b0ull,
      0x10f3a97cc6add23bull, 0x7b2839266e48a188ull, 0xdf36df69ad9c3e93ull,
      0x1440f76ce78fc2e8ull, 0x529ded659e0a211eull, 0xb1a150be35f9b25aull,
      0xbaa8828b4e9872c0ull, 0xae50f08f5760ebbdull, 0x967daaa3dfcfd039ull,
      0xe5bbbe8ce9a20760ull, 0xbaa06134f84ab439ull, 0x103b0c7c24efae78ull,
      0x8b93ebb5d82fae22ull, 0x7a7123fdc215526bull, 0x27b0abc4b954277full,
      0x94f4bd0574d00cf2ull, 0x68d6828f4bc99857ull, 0xe1612a2cb92cb7fcull,
      0xecb8a1f56a237967ull, 0x00af4d08176c00dfull, 0xae3cde9bda46235dull,
      0xd80edd191c88da7eull, 0xbaf0030609f04c42ull, 0x41adaaee8ea604c5ull,
      0xec23f002ea5f1e6full, 0x40512c0642a23bccull, 0x2123ae6ef46c67beull,
      0xbb6900d59a566051ull, 0x8b9cb1fd063fafc1ull, 0xecb4bac44843c9e4ull,
      0x14b9c1a3fd893b69ull, 0x5fa193870d0fe1daull, 0xda39be4736ff7b60ull,
      0x9bd3f150890a7f31ull, 0x0993d5c4fec0c33aull, 0x60741cd3a35c61beull,
      0x34a186435f9fac11ull, 0xd4071698a5b6a7b6ull, 0xc3e1b2b244688ee4ull,
      0x1229668bf0cea11aull, 0x4b136076869a6f22ull, 0x918fce18cac86873ull,
      0x19a15674eacd4e1cull, 0xc5d101f21d846bdfull, 0xf569461fdd8b7beaull,
      0x5385be09210ed65full, 0xc71c0e955132e5e8ull, 0xe006ba2243e0c7ddull,
      0xa12edaa68888d8d7ull, 0x2ed236b7f209aaf9ull, 0xdecf591e9ccb17e2ull,
      0x0475507fe542ee45ull, 0xdbaf259957b1920cull, 0x388ff207b8dade38ull,
  };
  const TracePool pool(1);
  ASSERT_EQ(pool.size(), std::size(kDigests));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const TraceSpec& spec = pool.all()[i];
    EXPECT_EQ(stream_digest(spec, 1 << 16), kDigests[i]) << spec.profile.name;
  }
}

TEST(TraceFlat, FlatArrayMirrorsBlocks) {
  // Structural invariants of the flattened layout itself: one entry per
  // body µop plus one branch per block, contiguous, with matching static
  // fields and a successor table that names real blocks.
  const TraceProfile profile =
      make_profile(Category::kMultimedia, TraceKind::kIlp, 2);
  const SyntheticProgram program(profile, 21);
  const auto& blocks = program.blocks();
  const auto& flat = program.flat_uops();
  const auto& info = program.block_info();
  ASSERT_EQ(info.size(), blocks.size());

  std::size_t expected_total = 0;
  for (const BasicBlock& b : blocks) expected_total += b.body.size() + 1;
  ASSERT_EQ(flat.size(), expected_total);

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BasicBlock& block = blocks[b];
    const BlockInfo& bi = info[b];
    for (std::size_t i = 0; i < block.body.size(); ++i) {
      const FlatUop& f = flat[bi.first_uop + i];
      EXPECT_FALSE(f.is_branch);
      EXPECT_EQ(f.cls, block.body[i].cls);
      EXPECT_EQ(f.dst, block.body[i].dst);
      EXPECT_EQ(f.fp_dst, block.body[i].fp_dst);
      EXPECT_EQ(f.block, static_cast<std::int32_t>(b));
      EXPECT_EQ(f.pc, block.start_pc + i * 4);
    }
    const FlatUop& branch = flat[bi.first_uop + block.body.size()];
    EXPECT_TRUE(branch.is_branch);
    EXPECT_EQ(branch.pc, bi.branch_pc);
    EXPECT_EQ(bi.taken_start_pc, blocks[bi.taken_next].start_pc);
    EXPECT_EQ(bi.fallthrough_start_pc,
              blocks[bi.fallthrough_next].start_pc);
    ASSERT_EQ(bi.indirect_count, block.indirect_targets.size());
    for (std::uint32_t t = 0; t < bi.indirect_count; ++t) {
      const IndirectTarget& target =
          program.indirect_targets()[bi.indirect_begin + t];
      EXPECT_EQ(target.block, block.indirect_targets[t]);
      EXPECT_EQ(target.start_pc,
                blocks[block.indirect_targets[t]].start_pc);
    }
  }
}

}  // namespace
}  // namespace clusmt::trace
