// Table 1: baseline processor configuration. Prints the machine parameters
// the simulator uses — including the per-cluster shape (issue width/port
// mix, IQ entries, register files, link-latency matrix), which the shared
// shape flags (--clusters, --width=4,2, --iq=48,16, --int-regs, --fp-regs,
// --link; see harness/shape_flags.h) can override to inspect a
// heterogeneous grid — and verifies the defaults match the paper's table.
#include <cassert>
#include <cstdio>
#include <string>

#include "backend/ports.h"
#include "common/cli.h"
#include "common/table.h"
#include "harness/presets.h"
#include "harness/shape_flags.h"

using namespace clusmt;

namespace {

/// "P0:int,fp,simd P1:int,mem" for one cluster's width under the
/// generalized port mix.
std::string port_mix(int width) {
  std::string mix;
  for (int p = 0; p < width; ++p) {
    if (!mix.empty()) mix += " ";
    mix += "P" + std::to_string(p) + ":int";
    if (backend::PortSet::compatible(p, trace::PortClass::kFpSimd, width)) {
      mix += ",fp,simd";
    }
    if (backend::PortSet::compatible(p, trace::PortClass::kMem, width)) {
      mix += ",mem";
    }
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  core::SimConfig c = harness::paper_baseline();
  harness::apply_shape_flags(args, c);

  Table table({"Parameter", "Value", "Parameter", "Value"});
  auto row = [&](const std::string& a, const std::string& av,
                 const std::string& b, const std::string& bv) {
    table.add_row({a, av, b, bv});
  };
  row("Fetch width", std::to_string(c.fetch_width), "Commit width",
      std::to_string(c.commit_width));
  row("Misprediction pipeline", std::to_string(c.mispredict_penalty),
      "ROB size", std::to_string(c.rob_entries) + " per thread");
  row("Indirect branch", std::to_string(c.predictor.indirect_entries),
      "Gshare entries", std::to_string(c.predictor.gshare_entries));
  row("Trace cache size",
      std::to_string(c.trace_cache.capacity_uops / 1024) + "K uops",
      "Issue width/cluster", std::to_string(c.issue_width) + " (base)");
  row("Issue queue size per cluster", std::to_string(c.iq_entries) + "-64",
      "MOB", std::to_string(c.mob_entries));
  row("Int physical registers", std::to_string(c.int_regs) + "-128 /cluster",
      "FP/SSE physical registers",
      std::to_string(c.fp_regs) + "-128 /cluster");
  row("DTLB entries", std::to_string(c.memory.dtlb_entries), "DTLB assoc",
      std::to_string(c.memory.dtlb_assoc));
  row("L1 size", std::to_string(c.memory.l1_size / 1024) + "KB", "L1 assoc",
      std::to_string(c.memory.l1_assoc));
  row("L1 hit latency", std::to_string(c.memory.l1_latency) + " cycle",
      "L1 ports", "2 read / 2 write");
  row("L2 size", std::to_string(c.memory.l2_size / (1024 * 1024)) + "MB",
      "L2 assoc", std::to_string(c.memory.l2_assoc));
  row("L2 hit latency", std::to_string(c.memory.l2_latency) + " cycles",
      "Memory latency", std::to_string(c.memory.memory_latency) + " cycles");
  row("# Point-to-point links", std::to_string(c.num_links),
      "Link latency", std::to_string(c.link_latency) + " cycle");
  row("# Data buses (L1 to L2)", std::to_string(c.memory.num_l1_l2_buses),
      "Clusters", std::to_string(c.num_clusters));

  std::printf("Table 1 — Baseline processor configuration\n\n%s\n",
              table.render_text().c_str());

  // Per-cluster effective shape: each field resolves zero-means-inherit
  // against the scalars above, so a homogeneous machine prints identical
  // rows and a shaped one shows exactly what each cluster got.
  Table shape({"Cluster", "Issue ports", "IQ", "Int regs", "FP regs"});
  for (int cl = 0; cl < c.num_clusters; ++cl) {
    shape.add_row({std::to_string(cl),
                   port_mix(c.effective_issue_width(cl)),
                   std::to_string(c.effective_iq_entries(cl)),
                   std::to_string(c.effective_int_regs(cl)),
                   std::to_string(c.effective_fp_regs(cl))});
  }
  std::printf("Per-cluster shape (zero-means-inherit resolved)\n\n%s\n",
              shape.render_text().c_str());

  Table links({"Link latency", "to ..."});
  for (int from = 0; from < c.num_clusters; ++from) {
    std::string latencies;
    for (int to = 0; to < c.num_clusters; ++to) {
      if (!latencies.empty()) latencies += " ";
      latencies += std::to_string(c.effective_link_latency(from, to));
    }
    links.add_row({"from " + std::to_string(from), latencies});
  }
  std::printf("Inter-cluster copy latency matrix\n\n%s\n",
              links.render_text().c_str());

  // Verify the defaults actually match the paper — against a pristine
  // baseline, so shape flags change what is printed, never the verdict.
  const core::SimConfig d = harness::paper_baseline();
  bool ok = d.fetch_width == 6 && d.commit_width == 6 &&
            d.mispredict_penalty == 14 && d.rob_entries == 128 &&
            d.predictor.gshare_entries == 32 * 1024 &&
            d.predictor.indirect_entries == 4096 &&
            d.memory.l1_size == 32 * 1024 && d.memory.l1_assoc == 2 &&
            d.memory.l2_size == 4 * 1024 * 1024 && d.memory.l2_assoc == 8 &&
            d.memory.l2_latency == 12 && d.memory.memory_latency == 60 &&
            d.memory.dtlb_entries == 1024 && d.memory.dtlb_assoc == 8 &&
            d.num_links == 2 && d.link_latency == 1 &&
            d.memory.num_l1_l2_buses == 2 && d.mob_entries == 128 &&
            d.num_clusters == 2 && d.issue_width == 3 &&
            port_mix(d.issue_width) ==
                "P0:int,fp,simd P1:int,fp,simd P2:int,mem";
  std::printf("Defaults match paper Table 1: %s\n", ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
