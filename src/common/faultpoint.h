// Process-wide fault-injection registry: the test seam of the run store's
// persistence stack. Every recovery path of fsio and run_store guards its
// failure-prone operations with a named fault point: fsio.write,
// fsio.rename, run_store.load and run_store.save. A point is compiled into
// ALL builds and costs one relaxed atomic load while nothing is armed, so
// production binaries carry the exact code paths the chaos tests exercise.
// Only code arms a point (tests call arm()); no flag or environment
// variable reaches the registry.
//
// Modes (what a *fired* point does):
//   error    the call site returns its failure path (an I/O error)
//   enospc   the call site emulates a full disk (partial write, then fail)
//   partial  a torn write: a prefix of the bytes lands and SUCCESS is
//            reported — the undetectable-at-write-time corruption that
//            checksummed readers must catch
//   crash    _exit(kCrashExitCode) inside maybe_fail — the process dies at
//            the point, exactly where a kill -9 or power loss would land
//
// Firing is per-point pseudo-random: probability `probability` per
// evaluation, drawn from a deterministic stream seeded by (seed, point
// name), so a schedule fires at the same evaluation ordinals in every run
// and a crash it provokes can be replayed.
#pragma once

#include <cstdint>
#include <string_view>

namespace clusmt::faultpoint {

enum class Mode {
  kOff,
  kError,
  kPartial,
  kCrash,
  kEnospc,
};

/// Exit status of a kCrash fire; distinguishable from real signals and
/// normal exits.
inline constexpr int kCrashExitCode = 86;

/// Arms (or re-arms) `point`; `probability` is clamped to [0, 1]. Mode kOff
/// leaves the point inert.
void arm(std::string_view point, Mode mode, double probability = 1.0,
         std::uint64_t seed = 0);

/// Disarms every point and clears the fire counters.
void disarm_all();

/// Evaluates `point`: kOff when unarmed or the draw did not fire. kCrash
/// never returns (the process _exits). kError / kEnospc / kPartial are
/// returned for the call site to interpret.
Mode maybe_fail(std::string_view point);

/// Convenience for call sites with a single failure behaviour: true when
/// any error-like mode (kError, kEnospc, kPartial) fired at `point`.
[[nodiscard]] bool inject_error(std::string_view point);

/// Fires recorded across all points since the last disarm_all() — lets
/// tests assert a fault path was actually taken.
[[nodiscard]] std::uint64_t total_fires();

}  // namespace clusmt::faultpoint
