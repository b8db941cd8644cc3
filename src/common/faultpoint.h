// Process-wide fault-injection registry. Every recovery path of the run
// store's persistence stack (fsio, run_store) guards its failure-prone
// operations with a named fault point: fsio.write, fsio.rename,
// run_store.load and run_store.save. A point is compiled into ALL builds
// and costs one relaxed atomic load while nothing is armed, so production
// binaries carry the exact code paths the chaos tests exercise.
//
// Arming:
//   - environment: CLUSMT_FAULTS="<point>:<mode>[:<prob>[:<seed>
//     [:<max_fires>]]]" with entries separated by ',' or ';', parsed once
//     at the first fault-point use of the process.
//   - programmatic: arm()/arm_from_spec() from tests and the chaos harness.
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
// Firing is per-point pseudo-random: probability `prob` per evaluation,
// drawn from a deterministic stream seeded by (seed, point name), so a
// schedule fires at the same evaluation ordinals in every run and a crash
// it provokes can be replayed. `max_fires` (0 = unlimited) retires a point
// after N fires, turning a fault transient.
#pragma once

#include <cstdint>
#include <string>
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

struct ArmSpec {
  Mode mode = Mode::kOff;
  double probability = 1.0;     // per-evaluation fire chance, clamped [0,1]
  std::uint64_t seed = 0;       // perturbs the per-point firing stream
  std::uint64_t max_fires = 0;  // retire after N fires; 0 = unlimited
};

/// Arms (or re-arms) `point`. Mode kOff disarms it.
void arm(std::string_view point, const ArmSpec& spec);
void arm(std::string_view point, Mode mode, double probability = 1.0,
         std::uint64_t seed = 0);

/// Removes one point / every point. disarm_all() also clears fire counters;
/// CLUSMT_FAULTS is only read once per process, so cleared env arming stays
/// cleared until re-armed explicitly (see arm_from_spec).
bool disarm(std::string_view point);
void disarm_all();

/// Parses a CLUSMT_FAULTS-style schedule and arms every entry. Returns
/// false (arming nothing further) on the first malformed entry. An empty
/// schedule is trivially true.
[[nodiscard]] bool arm_from_spec(std::string_view schedule);

/// Evaluates `point`: kOff when unarmed or the draw did not fire. kCrash
/// never returns (the process _exits). kError / kEnospc / kPartial are
/// returned for the call site to interpret.
Mode maybe_fail(std::string_view point);

/// Convenience for call sites with a single failure behaviour: true when
/// any error-like mode (kError, kEnospc, kPartial) fired at `point`.
[[nodiscard]] bool inject_error(std::string_view point);

/// Fires recorded at `point` / across all points since the last
/// disarm_all() — lets tests assert a fault path was actually taken.
[[nodiscard]] std::uint64_t fires(std::string_view point);
[[nodiscard]] std::uint64_t total_fires();

/// Currently armed (non-retired) points.
[[nodiscard]] std::size_t armed_count();

/// Parses a mode name ("error", "partial", "crash", "enospc", "off");
/// false on anything else.
[[nodiscard]] bool parse_mode(std::string_view name, Mode& out);

}  // namespace clusmt::faultpoint
