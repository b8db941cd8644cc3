#include "harness/run_key.h"

namespace clusmt::harness {

// NOTE: these functions must cover every field that changes simulation
// behaviour. When adding a knob to core::SimConfig (or the nested
// frontend/memory/policy config structs) or trace::TraceProfile, extend the
// matching hash_* function here — a missing field silently merges cache
// entries that should stay distinct.

void hash_config(Fnv1a& h, const core::SimConfig& c) {
  h.add(c.num_threads);
  h.add(c.num_clusters);

  h.add(c.fetch_width);
  h.add(c.rename_width);
  h.add(c.commit_width);
  h.add(c.decode_queue_capacity);
  h.add(c.mispredict_penalty);
  h.add_enum(c.fetch_selection);
  h.add(c.predictor.gshare_entries);
  h.add(c.predictor.history_bits);
  h.add(c.predictor.indirect_entries);
  h.add(c.trace_cache.capacity_uops);
  h.add(c.trace_cache.line_uops);
  h.add(c.trace_cache.assoc);

  h.add(c.rob_entries);
  h.add(c.iq_entries);
  h.add(c.int_regs);
  h.add(c.fp_regs);
  h.add(c.issue_width);
  h.add(c.mob_entries);
  h.add(c.num_links);
  h.add(c.link_latency);
  h.add(c.l1_write_ports);
  for (int i = 0; i < kMaxClusters; ++i) {
    h.add(c.shape[i].issue_width);
    h.add(c.shape[i].iq_entries);
    h.add(c.shape[i].int_regs);
    h.add(c.shape[i].fp_regs);
  }
  for (int i = 0; i < kMaxClusters; ++i) {
    for (int j = 0; j < kMaxClusters; ++j) h.add(c.link_latency_cc[i][j]);
  }

  h.add(c.memory.l1_size);
  h.add(c.memory.l1_assoc);
  h.add(c.memory.l1_latency);
  h.add(c.memory.l2_size);
  h.add(c.memory.l2_assoc);
  h.add(c.memory.l2_latency);
  h.add(c.memory.memory_latency);
  h.add(c.memory.line_bytes);
  h.add(c.memory.num_l1_l2_buses);
  h.add(c.memory.bus_occupancy_cycles);
  h.add(c.memory.dtlb_entries);
  h.add(c.memory.dtlb_assoc);
  h.add(c.memory.tlb_walk_latency);

  h.add_enum(c.steering);
  h.add(c.steer_imbalance_threshold);

  h.add_enum(c.policy);
  h.add(c.policy_config.partition_fraction);
  h.add(c.policy_config.cspsp_guarantee_fraction);
  h.add(c.policy_config.cdprf_interval);
  h.add(c.policy_config.dcra_slow_share);
  h.add(c.policy_config.hillclimb_epoch);
  h.add(c.policy_config.hillclimb_delta);
  h.add(c.policy_config.unready_gate_fraction);

  h.add(c.watchdog_cycles);
}

void hash_trace(Fnv1a& h, const trace::TraceSpec& spec) {
  const trace::TraceProfile& p = spec.profile;
  // The name is display metadata, not content: excluded on purpose so two
  // identical traces with different labels share baseline runs — and two
  // *different* traces sharing a label never do.
  h.add(p.frac_int_alu);
  h.add(p.frac_int_mul);
  h.add(p.frac_fp_add);
  h.add(p.frac_fp_mul);
  h.add(p.frac_simd);
  h.add(p.frac_load);
  h.add(p.frac_store);
  h.add(p.avg_block_len);
  h.add(p.num_blocks);
  h.add(p.hard_branch_fraction);
  h.add(p.indirect_fraction);
  h.add(p.dep_geo_p);
  h.add(p.two_src_prob);
  h.add(p.footprint_bytes);
  h.add(p.stream_fraction);
  h.add(p.chase_fraction);
  h.add(p.stream_stride);
  h.add(p.hot_bytes);
  h.add(p.old_src_p);
  h.add(p.fp_load_fraction);
  h.add(spec.seed);
}

void hash_workload(Fnv1a& h, const trace::WorkloadSpec& spec) {
  h.add(spec.threads.size());
  for (const auto& t : spec.threads) hash_trace(h, t);
}

namespace {

template <typename Fn>
RunKey two_pass_key(const Fn& feed) {
  RunKey key;
  Fnv1a a(0);
  feed(a);
  key.hi = a.digest();
  Fnv1a b(1);
  feed(b);
  key.lo = b.digest();
  return key;
}

}  // namespace

RunKey trace_content_key(const trace::TraceSpec& spec) {
  return two_pass_key([&](Fnv1a& h) { hash_trace(h, spec); });
}

RunKey run_key(const core::SimConfig& config,
               const trace::WorkloadSpec& workload, Cycle cycles,
               Cycle warmup) {
  return two_pass_key([&](Fnv1a& h) {
    hash_config(h, config);
    hash_workload(h, workload);
    h.add(cycles);
    h.add(warmup);
  });
}

core::SimConfig baseline_config(const core::SimConfig& config) {
  core::SimConfig single = config;
  single.num_threads = 1;
  single.policy = policy::PolicyKind::kIcount;
  single.policy_config = policy::PolicyConfig{};
  return single;
}

}  // namespace clusmt::harness
