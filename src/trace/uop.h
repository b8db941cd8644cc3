// Micro-operation (µop) format. The front-end of the modelled machine
// translates x86 macro-instructions into µops (Pentium-4 style, see paper
// §3); the trace substrate produces streams of already-decoded µops.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace clusmt::trace {

/// Functional classes. kCopy is never produced by a trace: the rename logic
/// generates copies on demand for inter-cluster communication.
enum class UopClass : std::uint8_t {
  kIntAlu = 0,
  kIntMul,
  kFpAdd,
  kFpMul,
  kSimd,
  kLoad,
  kStore,
  kBranch,
  kCopy,
  kNop,
};

/// Issue-port classes of the modelled cluster (paper Table 1):
///   P0: int, fp, simd   P1: int, fp, simd   P2: int, mem
/// Figure 5 classifies imbalance events by these three groups.
enum class PortClass : std::uint8_t { kInt = 0, kFpSimd = 1, kMem = 2 };
inline constexpr int kNumPortClasses = 3;

[[nodiscard]] constexpr PortClass port_class_of(UopClass cls) noexcept {
  switch (cls) {
    case UopClass::kFpAdd:
    case UopClass::kFpMul:
    case UopClass::kSimd:
      return PortClass::kFpSimd;
    case UopClass::kLoad:
    case UopClass::kStore:
      return PortClass::kMem;
    default:
      return PortClass::kInt;
  }
}

/// Execution latency in cycles once issued (loads add cache access time).
[[nodiscard]] constexpr int execution_latency(UopClass cls) noexcept {
  switch (cls) {
    case UopClass::kIntAlu: return 1;
    case UopClass::kIntMul: return 3;
    case UopClass::kFpAdd: return 3;
    case UopClass::kFpMul: return 5;
    case UopClass::kSimd: return 2;
    case UopClass::kLoad: return 1;   // AGU; cache latency added separately
    case UopClass::kStore: return 1;  // address generation
    case UopClass::kBranch: return 1;
    case UopClass::kCopy: return 1;   // + interconnect link latency
    case UopClass::kNop: return 1;
  }
  return 1;
}

[[nodiscard]] constexpr bool is_memory(UopClass cls) noexcept {
  return cls == UopClass::kLoad || cls == UopClass::kStore;
}

/// A decoded micro-operation as it leaves the trace (or the MITE/TC model).
/// Register identifiers are architectural; renaming assigns physical
/// registers per cluster. src1 < 0 means "single-source µop".
struct MicroOp {
  std::uint64_t pc = 0;
  UopClass cls = UopClass::kIntAlu;
  std::int16_t dst = -1;   // architectural destination, -1 = none
  std::int16_t src0 = -1;  // first source, -1 = none
  std::int16_t src1 = -1;  // second source, -1 = none
  std::uint64_t mem_addr = 0;  // byte address for load/store
  bool taken = false;          // actual branch outcome
  bool indirect = false;       // indirect branch (uses target predictor)
  std::uint64_t target = 0;    // actual branch target (next pc when taken)
  std::uint64_t fallthrough = 0;  // next pc when not taken

  [[nodiscard]] bool has_dst() const noexcept { return dst >= 0; }
  [[nodiscard]] bool is_branch() const noexcept {
    return cls == UopClass::kBranch;
  }
  [[nodiscard]] bool is_load() const noexcept { return cls == UopClass::kLoad; }
  [[nodiscard]] bool is_store() const noexcept {
    return cls == UopClass::kStore;
  }
};

}  // namespace clusmt::trace
