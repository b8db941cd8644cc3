#include "trace/synthetic.h"

#include <algorithm>
#include <cassert>

namespace clusmt::trace {

namespace {

constexpr std::uint64_t kUopBytes = 4;      // µop pc granularity
constexpr std::uint64_t kTextBase = 0x400000;
constexpr int kMaxBlockLen = 24;

/// Samples a µop class from the profile's non-branch mix.
UopClass sample_class(const TraceProfile& p, Xoshiro256& rng) {
  double u = rng.uniform() * p.mix_sum();
  if ((u -= p.frac_int_alu) < 0) return UopClass::kIntAlu;
  if ((u -= p.frac_int_mul) < 0) return UopClass::kIntMul;
  if ((u -= p.frac_fp_add) < 0) return UopClass::kFpAdd;
  if ((u -= p.frac_fp_mul) < 0) return UopClass::kFpMul;
  if ((u -= p.frac_simd) < 0) return UopClass::kSimd;
  if ((u -= p.frac_load) < 0) return UopClass::kLoad;
  return UopClass::kStore;
}

std::int16_t random_int_reg(Xoshiro256& rng) {
  return static_cast<std::int16_t>(rng.bounded(kNumIntArchRegs));
}

std::int16_t random_fp_reg(Xoshiro256& rng) {
  return static_cast<std::int16_t>(kNumIntArchRegs +
                                   rng.bounded(kNumFpArchRegs));
}

}  // namespace

SyntheticProgram::SyntheticProgram(const TraceProfile& profile,
                                   std::uint64_t seed)
    : profile_(profile) {
  assert(profile.validate().empty() && "invalid trace profile");
  Xoshiro256 rng(hash_combine(seed, 0x5747A71C));

  const int n = profile.num_blocks;
  blocks_.resize(n);

  std::uint64_t pc = kTextBase;
  for (int b = 0; b < n; ++b) {
    BasicBlock& block = blocks_[b];
    block.start_pc = pc;

    // Body length: geometric around the mean, in [1, kMaxBlockLen].
    const double mean = profile.avg_block_len;
    const int len = static_cast<int>(std::clamp<std::uint64_t>(
        1 + rng.geometric(1.0 / std::max(1.5, mean), kMaxBlockLen - 1), 1,
        kMaxBlockLen));
    block.body.resize(len);
    for (auto& sop : block.body) {
      sop.cls = sample_class(profile, rng);
      switch (sop.cls) {
        case UopClass::kIntAlu:
        case UopClass::kIntMul:
          sop.dst = random_int_reg(rng);
          break;
        case UopClass::kFpAdd:
        case UopClass::kFpMul:
        case UopClass::kSimd:
          sop.dst = random_fp_reg(rng);
          break;
        case UopClass::kLoad:
          sop.fp_dst = rng.chance(profile.effective_fp_load_fraction());
          sop.dst = sop.fp_dst ? random_fp_reg(rng) : random_int_reg(rng);
          break;
        default:
          sop.dst = -1;  // stores have no destination
          break;
      }
    }
    pc += (block.body.size() + 1) * kUopBytes;

    // Terminating branch behaviour.
    if (rng.chance(profile.indirect_fraction)) {
      block.indirect = true;
      block.branch = BranchBehaviour::kRandom;
      const int fanout = 2 + static_cast<int>(rng.bounded(2));
      for (int t = 0; t < fanout; ++t) {
        block.indirect_targets.push_back(
            static_cast<int>(rng.bounded(static_cast<std::uint64_t>(n))));
      }
    } else if (rng.chance(profile.hard_branch_fraction)) {
      block.branch = BranchBehaviour::kRandom;
    } else {
      const double u = rng.uniform();
      if (u < 0.40) {
        block.branch = BranchBehaviour::kLoop;
        // Long enough trips that the exit mispredict is amortised.
        block.loop_trip = 8 + static_cast<int>(rng.bounded(56));
      } else if (u < 0.70) {
        block.branch = BranchBehaviour::kPeriodic;
        block.pattern_period = 2 + static_cast<int>(rng.bounded(6));
        block.pattern = static_cast<std::uint8_t>(rng() & 0xFF);
      } else if (u < 0.90) {
        block.branch = BranchBehaviour::kStronglyTaken;
      } else {
        block.branch = BranchBehaviour::kStronglyNotTaken;
      }
    }

    block.fallthrough_next = (b + 1) % n;
    if (block.branch == BranchBehaviour::kLoop) {
      // Loops jump a short distance backwards (including self-loops).
      const int back = static_cast<int>(rng.bounded(3));
      block.taken_next = (b - back % n + n) % n;
    } else {
      block.taken_next = static_cast<int>(rng.bounded(static_cast<std::uint64_t>(n)));
    }
  }

  flatten();
}

void SyntheticProgram::flatten() {
  std::size_t total = 0;
  for (const BasicBlock& block : blocks_) total += block.body.size() + 1;
  flat_.reserve(total);
  info_.resize(blocks_.size());

  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const BasicBlock& block = blocks_[b];
    BlockInfo& bi = info_[b];
    bi.first_uop = static_cast<std::uint32_t>(flat_.size());
    for (std::size_t i = 0; i < block.body.size(); ++i) {
      const StaticUop& sop = block.body[i];
      flat_.push_back(FlatUop{.pc = block.start_pc + i * kUopBytes,
                              .cls = sop.cls,
                              .fp_dst = sop.fp_dst,
                              .is_branch = false,
                              .dst = sop.dst,
                              .block = static_cast<std::int32_t>(b)});
    }
    bi.branch_pc = block.start_pc + block.body.size() * kUopBytes;
    flat_.push_back(FlatUop{.pc = bi.branch_pc,
                            .cls = UopClass::kBranch,
                            .fp_dst = false,
                            .is_branch = true,
                            .dst = -1,
                            .block = static_cast<std::int32_t>(b)});

    bi.branch = block.branch;
    bi.indirect = block.indirect;
    bi.loop_trip = static_cast<std::uint16_t>(block.loop_trip);
    bi.pattern = block.pattern;
    bi.pattern_period = static_cast<std::uint8_t>(block.pattern_period);
    bi.taken_next = block.taken_next;
    bi.fallthrough_next = block.fallthrough_next;
    bi.taken_start_pc = blocks_[block.taken_next].start_pc;
    bi.fallthrough_start_pc = blocks_[block.fallthrough_next].start_pc;
    bi.indirect_begin = static_cast<std::uint32_t>(indirect_pool_.size());
    bi.indirect_count =
        static_cast<std::uint32_t>(block.indirect_targets.size());
    for (int target : block.indirect_targets) {
      indirect_pool_.push_back(IndirectTarget{
          .block = target, .start_pc = blocks_[target].start_pc});
    }
  }
}

// --------------------------------------------------------------------------
// Shared dynamic sampling
// --------------------------------------------------------------------------

SyntheticCursor::SyntheticCursor(
    std::shared_ptr<const SyntheticProgram> program, std::uint64_t seed)
    : program_(std::move(program)),
      rng_(hash_combine(seed, 0xD1AA11C5)),
      branch_state_(program_->blocks().size(), 0),
      dep_dist_(program_->profile().dep_geo_p),
      old_dist_(program_->profile().old_src_p),
      indirect_skew_dist_(0.9) {
  const TraceProfile& p = program_->profile();
  two_src_prob_ = p.two_src_prob;
  fp_store_prob_ = p.effective_fp_load_fraction();
  // Give each trace a distinct 64 MB-aligned address region, mimicking
  // distinct process address spaces that still compete for shared caches.
  base_addr_ = (1 + (hash_combine(seed, 0xADD2E55) & 0x3F)) << 26;
  const std::size_t n_streams = 4 + (rng_() & 0x3);
  for (std::size_t i = 0; i < n_streams; ++i) {
    // Stagger segments by three extra lines per stream so power-of-two
    // footprints do not put every stream into the same L1 set in lockstep.
    stream_ptrs_.push_back(base_addr_ +
                           i * (p.footprint_bytes / n_streams) + i * 192);
  }
  chase_addr_ = base_addr_;
}

bool SyntheticCursor::evaluate_branch(const BlockInfo& info,
                                      std::uint32_t& state) {
  switch (info.branch) {
    case BranchBehaviour::kStronglyTaken:
      return !rng_.chance(0.01);
    case BranchBehaviour::kStronglyNotTaken:
      return rng_.chance(0.01);
    case BranchBehaviour::kLoop: {
      const bool taken = static_cast<int>(state) + 1 <
                         std::max(2, static_cast<int>(info.loop_trip));
      state = taken ? state + 1 : 0;
      return taken;
    }
    case BranchBehaviour::kPeriodic: {
      const bool taken =
          (info.pattern >> (state % info.pattern_period)) & 1;
      state = (state + 1) % static_cast<std::uint32_t>(
                                 std::max(1, static_cast<int>(
                                                 info.pattern_period)));
      return taken;
    }
    case BranchBehaviour::kRandom:
      return rng_.chance(0.5);
  }
  return false;
}

std::int16_t SyntheticCursor::sample_source(RegClass cls,
                                            const GeometricDist& dist) {
  auto& ring = cls == RegClass::kInt ? recent_int_ : recent_fp_;
  if (ring.empty()) {
    return cls == RegClass::kInt ? std::int16_t{0}
                                 : std::int16_t{kNumIntArchRegs};
  }
  const std::uint64_t d = dist.sample(rng_, ring.size() - 1);
  return ring.from_back(d);
}

std::int16_t SyntheticCursor::sample_data_source(RegClass cls) {
  return sample_source(cls, dep_dist_);
}

std::int16_t SyntheticCursor::sample_old_source(RegClass cls) {
  return sample_source(cls, old_dist_);
}

std::uint64_t SyntheticCursor::sample_address(bool& out_is_chase,
                                              bool& out_is_stream) {
  const TraceProfile& p = program_->profile();
  const std::uint64_t hot =
      p.hot_bytes == 0 ? p.footprint_bytes
                       : std::min(p.hot_bytes, p.footprint_bytes);
  out_is_chase = false;
  out_is_stream = false;
  const double u = rng_.uniform();
  // Non-stream accesses skew towards an "ultra-hot" core (locality within
  // the hot region) so short runs warm up realistically.
  const std::uint64_t ultra = std::min<std::uint64_t>(hot, 64 * 1024);
  if (u < p.chase_fraction) {
    // Pointer chase: the next address is a hash of the previous one inside
    // the hot region, so consecutive chase loads are serialised.
    out_is_chase = true;
    std::uint64_t s = chase_addr_ ^ 0x9E3779B97F4A7C15ULL;
    const std::uint64_t region = rng_.chance(0.7) ? ultra : hot;
    chase_addr_ = base_addr_ + (splitmix64(s) % region & ~7ULL);
    return chase_addr_;
  }
  if (u < p.chase_fraction + p.stream_fraction) {
    out_is_stream = true;
    std::uint64_t& ptr = stream_ptrs_[next_stream_];
    next_stream_ = (next_stream_ + 1) % stream_ptrs_.size();
    ptr += p.stream_stride;
    if (ptr >= base_addr_ + p.footprint_bytes) {
      ptr = base_addr_ + (ptr - base_addr_) % p.footprint_bytes;
    }
    return ptr;
  }
  const std::uint64_t region = rng_.chance(0.7) ? ultra : hot;
  return base_addr_ + (rng_.bounded(region) & ~7ULL);
}

void SyntheticCursor::note_producer(std::int16_t arch) {
  if (arch < 0) return;
  auto& ring = arch_reg_class(arch) == RegClass::kInt ? recent_int_
                                                      : recent_fp_;
  ring.push(arch);
}

void SyntheticCursor::sample_body(MicroOp& op, bool fp_dst) {
  switch (op.cls) {
    case UopClass::kIntAlu:
    case UopClass::kIntMul:
      op.src0 = sample_data_source(RegClass::kInt);
      if (rng_.chance(two_src_prob_)) {
        op.src1 = sample_data_source(RegClass::kInt);
      }
      break;
    case UopClass::kFpAdd:
    case UopClass::kFpMul:
    case UopClass::kSimd:
      op.src0 = sample_data_source(RegClass::kFp);
      if (rng_.chance(two_src_prob_)) {
        op.src1 = sample_data_source(RegClass::kFp);
      }
      break;
    case UopClass::kLoad: {
      bool is_chase = false;
      bool is_stream = false;
      op.mem_addr = sample_address(is_chase, is_stream);
      if (is_chase && last_chase_dst_ >= 0) {
        // Serialise on the register that carried the previous pointer.
        op.src0 = last_chase_dst_;
      } else if (is_stream) {
        // Stream addresses come from induction variables: long-resolved
        // sources, so consecutive stream loads overlap (MLP).
        op.src0 = sample_old_source(RegClass::kInt);
      } else {
        op.src0 = sample_data_source(RegClass::kInt);
      }
      if (is_chase && !fp_dst) last_chase_dst_ = op.dst;
      break;
    }
    case UopClass::kStore: {
      bool is_chase = false;
      bool is_stream = false;
      op.mem_addr = sample_address(is_chase, is_stream);
      op.src0 = sample_old_source(RegClass::kInt);  // address
      const bool fp_data = rng_.chance(fp_store_prob_);
      op.src1 =
          sample_data_source(fp_data ? RegClass::kFp : RegClass::kInt);
      break;
    }
    default:
      break;
  }
  note_producer(op.dst);
}

int SyntheticCursor::take_branch(MicroOp& op, int block_index) {
  // Branch conditions (loop counters, flags) usually depend on
  // long-resolved values.
  const BlockInfo& bi = program_->block_info()[block_index];
  op.pc = bi.branch_pc;
  op.cls = UopClass::kBranch;
  op.src0 = sample_old_source(RegClass::kInt);
  op.indirect = bi.indirect;
  op.taken = evaluate_branch(bi, branch_state_[block_index]);

  int next_block;
  if (bi.indirect) {
    // Skewed dynamic target choice: mostly the first target so the
    // last-target predictor has something to learn, with excursions.
    const std::uint64_t skew = indirect_skew_dist_.sample(
        rng_, bi.indirect_count == 0 ? 0 : bi.indirect_count - 1);
    if (bi.indirect_count == 0) {
      next_block = bi.fallthrough_next;
      op.target = bi.fallthrough_start_pc;
    } else {
      const IndirectTarget& target =
          program_->indirect_targets()[bi.indirect_begin + skew];
      next_block = target.block;
      op.target = target.start_pc;
    }
    op.taken = true;  // indirect jumps always redirect
  } else {
    next_block = op.taken ? bi.taken_next : bi.fallthrough_next;
    op.target = op.taken ? bi.taken_start_pc : bi.fallthrough_start_pc;
  }
  op.fallthrough = bi.fallthrough_start_pc;
  return next_block;
}

// --------------------------------------------------------------------------
// Flat generator
// --------------------------------------------------------------------------

SyntheticTrace::SyntheticTrace(std::shared_ptr<const SyntheticProgram> program,
                               std::uint64_t seed)
    : SyntheticCursor(std::move(program), seed),
      flat_(program_->flat_uops().data()),
      info_(program_->block_info().data()),
      cursor_(info_[0].first_uop) {}

SyntheticTrace::SyntheticTrace(const TraceProfile& profile,
                               std::uint64_t seed)
    : SyntheticTrace(std::make_shared<SyntheticProgram>(profile, seed),
                     seed) {}

const std::string& SyntheticTrace::name() const {
  return program_->profile().name;
}

MicroOp SyntheticTrace::next_impl() {
  const FlatUop& f = flat_[cursor_];
  MicroOp op;
  op.pc = f.pc;
  op.cls = f.cls;
  if (!f.is_branch) {
    op.dst = f.dst;
    sample_body(op, f.fp_dst);
    ++cursor_;
    return op;
  }
  const int next_block = take_branch(op, f.block);
  cursor_ = info_[next_block].first_uop;
  return op;
}

MicroOp SyntheticTrace::next() { return next_impl(); }

void SyntheticTrace::fill(MicroOp* out, int count) {
  for (int i = 0; i < count; ++i) out[i] = next_impl();
}

// --------------------------------------------------------------------------
// Retained block walker (differential oracle)
// --------------------------------------------------------------------------

BlockWalkTrace::BlockWalkTrace(
    std::shared_ptr<const SyntheticProgram> program, std::uint64_t seed)
    : SyntheticCursor(std::move(program), seed) {}

BlockWalkTrace::BlockWalkTrace(const TraceProfile& profile,
                               std::uint64_t seed)
    : BlockWalkTrace(std::make_shared<SyntheticProgram>(profile, seed),
                     seed) {}

const std::string& BlockWalkTrace::name() const {
  return program_->profile().name;
}

MicroOp BlockWalkTrace::next() {
  const BasicBlock& block = program_->blocks()[current_block_];
  MicroOp op;

  if (block_pos_ < block.body.size()) {
    const StaticUop& sop = block.body[block_pos_];
    op.pc = block.start_pc + block_pos_ * kUopBytes;
    op.cls = sop.cls;
    op.dst = sop.dst;
    sample_body(op, sop.fp_dst);
    ++block_pos_;
    return op;
  }

  current_block_ = take_branch(op, current_block_);
  block_pos_ = 0;
  return op;
}

}  // namespace clusmt::trace
