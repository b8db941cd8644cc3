#include "harness/shape_flags.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace clusmt::harness {

namespace {

[[noreturn]] void die_arity(const char* flag, std::size_t got,
                            std::size_t want) {
  std::fprintf(stderr,
               "error: --%s expects %zu comma-separated values (one per "
               "cluster%s), got %zu\n",
               flag, want, std::string(flag) == "link" ? " pair" : "", got);
  std::exit(2);
}

/// Fetches --`flag` and enforces one element per cluster (`want`).
std::vector<int> cluster_list(const CliArgs& args, const char* flag,
                              std::size_t want) {
  std::vector<int> values = args.get_int_list(flag);
  if (!values.empty() && values.size() != want) {
    die_arity(flag, values.size(), want);
  }
  return values;
}

}  // namespace

void apply_shape_flags(const CliArgs& args, core::SimConfig& config) {
  const std::int64_t clusters =
      args.get_int("clusters", config.num_clusters);
  if (clusters < 1 || clusters > kMaxClusters) {
    std::fprintf(stderr, "error: --clusters expects 1..%d, got %lld\n",
                 kMaxClusters, static_cast<long long>(clusters));
    std::exit(2);
  }
  config.num_clusters = static_cast<int>(clusters);
  const auto n = static_cast<std::size_t>(config.num_clusters);

  const std::vector<int> width = cluster_list(args, "width", n);
  const std::vector<int> iq = cluster_list(args, "iq", n);
  const std::vector<int> int_regs = cluster_list(args, "int-regs", n);
  const std::vector<int> fp_regs = cluster_list(args, "fp-regs", n);
  for (std::size_t c = 0; c < n; ++c) {
    if (!width.empty()) config.shape[c].issue_width = width[c];
    if (!iq.empty()) config.shape[c].iq_entries = iq[c];
    if (!int_regs.empty()) config.shape[c].int_regs = int_regs[c];
    if (!fp_regs.empty()) config.shape[c].fp_regs = fp_regs[c];
  }

  const std::vector<int> link = cluster_list(args, "link", n * n);
  for (std::size_t from = 0; from < n && !link.empty(); ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      config.link_latency_cc[from][to] = link[from * n + to];
    }
  }
}

}  // namespace clusmt::harness
