// Synthetic program model and trace generator.
//
// A SyntheticProgram is a static control-flow graph of basic blocks whose
// µop skeletons are fixed (classes, destinations, branch behaviour), so the
// branch predictor and trace cache observe realistic recurring PCs and
// learnable patterns. Dynamic properties — source-operand distances and
// memory addresses — are sampled per dynamic instance from the profile's
// distributions; this is a trace generator, not an executable program, and
// the simulator consumes only dependence/address/outcome information.
//
// Datapath layout: after the block graph is built, the program flattens the
// block bodies into ONE contiguous, immutable µop array (`flat_uops()`) and
// a per-block successor table (`block_info()`). The hot generator
// (SyntheticTrace) walks the flat array with a bare index cursor — a body
// µop is `flat[cursor++]`, a branch jumps to the successor's precomputed
// first index — so fetch-time generation touches one linear array instead
// of chasing per-block vectors. The original per-block walker is retained
// as BlockWalkTrace, the differential oracle for the flat layout (see
// tests/trace_flat_test.cc, analogous to the issue stage's kScanReference).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "trace/profile.h"
#include "trace/trace_source.h"
#include "trace/uop.h"

namespace clusmt::trace {

/// Per-static-branch behaviour. Patterns are learnable by gshare; kRandom
/// branches mispredict ~50% and model data-dependent control flow.
enum class BranchBehaviour : std::uint8_t {
  kStronglyTaken,
  kStronglyNotTaken,
  kLoop,      // taken (trip-1) times, then not taken, repeating
  kPeriodic,  // fixed taken/not-taken pattern of period <= 8
  kRandom,
};

/// Static µop skeleton inside a basic block.
struct StaticUop {
  UopClass cls = UopClass::kIntAlu;
  std::int16_t dst = -1;  // fixed architectural destination, -1 = none
  bool fp_dst = false;    // loads: destination register file class
};

/// Static basic block: skeleton µops terminated by one branch.
struct BasicBlock {
  std::uint64_t start_pc = 0;
  std::vector<StaticUop> body;  // excludes the terminating branch
  BranchBehaviour branch = BranchBehaviour::kStronglyTaken;
  bool indirect = false;
  int loop_trip = 8;                 // for kLoop
  std::uint8_t pattern = 0b10101010; // for kPeriodic
  int pattern_period = 4;
  int taken_next = 0;      // successor block when taken
  int fallthrough_next = 0;
  std::vector<int> indirect_targets;  // successor pool for indirect branches
};

/// One entry of the flattened µop stream: every static field the generator
/// needs, laid out contiguously in program order (body µops of block 0, its
/// branch, body µops of block 1, ...). Immutable after construction.
struct FlatUop {
  std::uint64_t pc = 0;
  UopClass cls = UopClass::kIntAlu;
  bool fp_dst = false;     // loads: destination register file class
  bool is_branch = false;  // terminating branch of `block`
  std::int16_t dst = -1;
  std::int32_t block = 0;  // owning block (branch evaluation / successors)
};

/// One entry of the shared indirect-branch target pool.
struct IndirectTarget {
  std::int32_t block = 0;
  std::uint64_t start_pc = 0;
};

/// Per-block successor table: everything the generator's branch path needs,
/// with successor start PCs and flat indices precomputed so taking a branch
/// is a table lookup, not a walk of the block vector.
struct BlockInfo {
  std::uint32_t first_uop = 0;  // flat index of the block's first body µop
  BranchBehaviour branch = BranchBehaviour::kStronglyTaken;
  bool indirect = false;
  std::uint16_t loop_trip = 8;      // for kLoop
  std::uint8_t pattern = 0;         // for kPeriodic
  std::uint8_t pattern_period = 4;  // for kPeriodic
  std::int32_t taken_next = 0;
  std::int32_t fallthrough_next = 0;
  std::uint64_t branch_pc = 0;
  std::uint64_t taken_start_pc = 0;
  std::uint64_t fallthrough_start_pc = 0;
  std::uint32_t indirect_begin = 0;  // range into indirect_targets()
  std::uint32_t indirect_count = 0;
};

/// The static side of a synthetic program, built deterministically from a
/// profile + seed. Immutable after construction and shareable between
/// multiple trace cursors (e.g. the SMT run and its single-thread baseline).
class SyntheticProgram {
 public:
  SyntheticProgram(const TraceProfile& profile, std::uint64_t seed);

  [[nodiscard]] const TraceProfile& profile() const noexcept {
    return profile_;
  }
  [[nodiscard]] const std::vector<BasicBlock>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // --- Flattened layout (the hot generator's view) ---
  [[nodiscard]] const std::vector<FlatUop>& flat_uops() const noexcept {
    return flat_;
  }
  [[nodiscard]] const std::vector<BlockInfo>& block_info() const noexcept {
    return info_;
  }
  [[nodiscard]] const std::vector<IndirectTarget>& indirect_targets()
      const noexcept {
    return indirect_pool_;
  }

 private:
  void flatten();

  TraceProfile profile_;
  std::uint64_t seed_;
  std::vector<BasicBlock> blocks_;
  std::vector<FlatUop> flat_;
  std::vector<BlockInfo> info_;
  std::vector<IndirectTarget> indirect_pool_;
};

/// Dynamic-sampling machinery shared by the flat generator and the retained
/// block walker: RNG, producer rings, distributions, memory/branch state,
/// and the per-µop sampling routines. Both cursors call the SAME sampling
/// code in the SAME order, so their streams are bit-identical whenever the
/// cursor logic agrees — which is exactly what the differential test pins.
class SyntheticCursor {
 protected:
  SyntheticCursor(std::shared_ptr<const SyntheticProgram> program,
                  std::uint64_t seed);

  /// Bounded ring of recent same-class producers, most recent last.
  /// Push overwrites the oldest entry when full — same contents as the
  /// old append-then-erase vector, without the per-push memmove.
  class ProducerRing {
   public:
    void push(std::int16_t arch) noexcept {
      if (count_ < kCap) {
        buf_[(head_ + count_++) % kCap] = arch;
      } else {
        buf_[head_] = arch;
        head_ = (head_ + 1) % kCap;
      }
    }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    /// `d` steps back from the most recent producer (d == 0 => newest).
    [[nodiscard]] std::int16_t from_back(std::size_t d) const noexcept {
      return buf_[(head_ + count_ - 1 - d) % kCap];
    }

   private:
    static constexpr std::size_t kCap = 64;  // recent-producer window
    std::int16_t buf_[kCap] = {};
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  /// Samples the dynamic fields (sources, addresses) of a body µop whose
  /// static fields (pc, cls, dst) are already set, and notes its producer.
  void sample_body(MicroOp& op, bool fp_dst);

  /// Emits the terminating branch of `block_index` into `op` (outcome,
  /// target, fallthrough) and returns the successor block.
  [[nodiscard]] int take_branch(MicroOp& op, int block_index);

  [[nodiscard]] bool evaluate_branch(const BlockInfo& info,
                                     std::uint32_t& state);
  /// Samples a same-class producer `dist` (geometric) steps back.
  [[nodiscard]] std::int16_t sample_source(RegClass cls,
                                           const GeometricDist& dist);
  /// Data-dependence distance (profile dep_geo_p).
  [[nodiscard]] std::int16_t sample_data_source(RegClass cls);
  /// Control/address source: far back, usually already computed.
  [[nodiscard]] std::int16_t sample_old_source(RegClass cls);
  [[nodiscard]] std::uint64_t sample_address(bool& out_is_chase,
                                             bool& out_is_stream);
  void note_producer(std::int16_t arch);

  std::shared_ptr<const SyntheticProgram> program_;
  Xoshiro256 rng_;

  // Per-static-branch dynamic state (loop counters, pattern phases).
  std::vector<std::uint32_t> branch_state_;

  // Recent same-class producers, most recent last (bounded ring).
  ProducerRing recent_int_;
  ProducerRing recent_fp_;

  // Hot per-µop geometric distributions (fixed p), table-driven.
  GeometricDist dep_dist_;
  GeometricDist old_dist_;
  GeometricDist indirect_skew_dist_;

  // Profile scalars consulted per µop, cached out of the shared program.
  double two_src_prob_ = 0.0;
  double fp_store_prob_ = 0.0;

  // Memory state.
  std::uint64_t base_addr_ = 0;
  std::vector<std::uint64_t> stream_ptrs_;
  std::size_t next_stream_ = 0;
  std::uint64_t chase_addr_ = 0;
  std::int16_t last_chase_dst_ = -1;  // register carrying the chase pointer
};

/// Walks a SyntheticProgram's flattened µop array, producing the dynamic
/// µop stream. This is the hot generator behind every simulated thread.
class SyntheticTrace final : public TraceSource, private SyntheticCursor {
 public:
  SyntheticTrace(std::shared_ptr<const SyntheticProgram> program,
                 std::uint64_t seed);

  /// Convenience: builds the program internally.
  SyntheticTrace(const TraceProfile& profile, std::uint64_t seed);

  MicroOp next() override;
  void fill(MicroOp* out, int count) override;
  [[nodiscard]] const std::string& name() const override;

  [[nodiscard]] const SyntheticProgram& program() const noexcept {
    return *program_;
  }

 private:
  [[nodiscard]] MicroOp next_impl();

  // Flat-stream cursor: raw views of the program's immutable arrays plus
  // one index. `cursor_` always points at the next µop to emit.
  const FlatUop* flat_ = nullptr;
  const BlockInfo* info_ = nullptr;
  std::size_t cursor_ = 0;
};

/// The retained block-walking generator: same program, same sampling, but
/// the original (block, position) cursor chasing per-block vectors. Exists
/// solely as the differential oracle for SyntheticTrace's flat layout.
class BlockWalkTrace final : public TraceSource, private SyntheticCursor {
 public:
  BlockWalkTrace(std::shared_ptr<const SyntheticProgram> program,
                 std::uint64_t seed);
  BlockWalkTrace(const TraceProfile& profile, std::uint64_t seed);

  MicroOp next() override;
  [[nodiscard]] const std::string& name() const override;

  [[nodiscard]] const SyntheticProgram& program() const noexcept {
    return *program_;
  }

 private:
  int current_block_ = 0;
  std::size_t block_pos_ = 0;  // index into body; == body.size() => branch
};

}  // namespace clusmt::trace
