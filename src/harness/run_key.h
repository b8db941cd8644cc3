// Content-addressed identity of a simulation run. A RunKey is a 128-bit
// hash of every input that determines a run's outcome — the full SimConfig
// (including nested predictor/memory/policy knobs), the workload's trace
// profiles and generator seeds, and the cycle budget — so the RunCache can
// equate runs across SweepSpec instances and never across runs that
// differ in any behavioural knob. In particular two traces that merely
// share a *name* hash differently when their content differs (the latent
// collision the old name-keyed baseline cache had).
#pragma once

#include <cstdint>

#include "common/hash.h"
#include "common/types.h"
#include "core/config.h"
#include "trace/workload.h"

namespace clusmt::harness {

struct RunKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const RunKey&, const RunKey&) = default;
  friend constexpr bool operator<(const RunKey& a, const RunKey& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Feed every behavioural field of `config` into `h`. Kept in sync with
/// core::SimConfig (and its nested config structs) by hand; run_key.cc
/// carries the authoritative field list.
void hash_config(Fnv1a& h, const core::SimConfig& config);

/// Feed the full trace content (profile knobs + generator seed) into `h`.
void hash_trace(Fnv1a& h, const trace::TraceSpec& spec);

/// Feed the workload's threads (content only — the display name/category
/// do not affect simulation) into `h`.
void hash_workload(Fnv1a& h, const trace::WorkloadSpec& spec);

/// 128-bit content key of one trace spec (profile + seed), independent of
/// any machine configuration.
[[nodiscard]] RunKey trace_content_key(const trace::TraceSpec& spec);

/// Key of a full simulation cell: machine × workload × cycle budget.
[[nodiscard]] RunKey run_key(const core::SimConfig& config,
                             const trace::WorkloadSpec& workload,
                             Cycle cycles, Cycle warmup);

/// The machine a single-thread fairness baseline runs on: `config` with one
/// thread and the scheme-independent Icount front end. Policy knobs are
/// reset to defaults — Icount reads none of them — so baselines are shared
/// across grid points that differ only in scheme parameters.
[[nodiscard]] core::SimConfig baseline_config(const core::SimConfig& config);

}  // namespace clusmt::harness
