// Per-cluster shape flags shared by benches and tools: a uniform CLI
// surface for heterogeneous grids (README "Heterogeneous grids").
//
//   --clusters=N        cluster count (1..kMaxClusters)
//   --width=4,2         per-cluster issue width     (0 = inherit base)
//   --iq=48,16          per-cluster IQ entries      (0 = inherit base)
//   --int-regs=96,32    per-cluster int registers   (0 = inherit base)
//   --fp-regs=96,32     per-cluster fp registers    (0 = inherit base)
//   --link=1,4,4,1      row-major from→to link-latency matrix
//                       (num_clusters² entries; 0 = inherit link_latency)
//
// Every list must have exactly num_clusters elements (--link:
// num_clusters²); wrong arity — like any junk token, negative value or value
// beyond INT_MAX, which CliArgs::get_int_list already rejects — is a usage
// error that exits(2). Value-range checks beyond that stay in the Simulator
// constructor, the single authority on what a runnable machine is.
#pragma once

#include "common/cli.h"
#include "core/config.h"

namespace clusmt::harness {

/// Applies the flags above to `config`; exits(2) on malformed input.
void apply_shape_flags(const CliArgs& args, core::SimConfig& config);

}  // namespace clusmt::harness
