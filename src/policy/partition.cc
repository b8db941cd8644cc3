#include "policy/partition.h"

#include <algorithm>

namespace clusmt::policy {

bool CispPolicy::allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                   ClusterId /*c*/, int /*count*/,
                                   int total_count) {
  // Cluster-insensitive: the cap applies to the thread's total occupancy,
  // so the whole rename group (µop + copies) counts at once.
  const int limit =
      fraction_of(view.iq_capacity_total(), config_.partition_fraction);
  return view.iq_occ_thread_total(tid) + total_count <= limit;
}

bool CsspPolicy::allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                   ClusterId c, int count,
                                   int /*total_count*/) {
  const int limit =
      fraction_of(view.iq_capacity_of(c), config_.partition_fraction);
  return view.iq_occ_tc[tid][c] + count <= limit;
}

bool CspspPolicy::allow_iq_dispatch(const PipelineView& view, ThreadId tid,
                                    ClusterId c, int count,
                                    int /*total_count*/) {
  const int guarantee =
      fraction_of(view.iq_capacity_of(c), config_.cspsp_guarantee_fraction);
  const int occ = view.iq_occ_tc[tid][c];
  if (occ + count <= guarantee) return true;

  // Beyond the guarantee, the thread competes for the shared pool of this
  // cluster: capacity minus every thread's reserved (still unused) slice.
  int reserved_unused = 0;
  for (ThreadId t = 0; t < view.num_threads; ++t) {
    if (t == tid) continue;
    reserved_unused += std::max(0, guarantee - view.iq_occ_tc[t][c]);
  }
  return view.iq_occ[c] + count + reserved_unused <= view.iq_capacity_of(c);
}

ClusterId PrivateClustersPolicy::forced_cluster(const PipelineView& view,
                                                ThreadId tid) const {
  return tid % view.num_clusters;
}

bool PrivateClustersPolicy::allow_iq_dispatch(const PipelineView& view,
                                              ThreadId tid, ClusterId c,
                                              int /*count*/,
                                              int /*total_count*/) {
  return c == tid % view.num_clusters;
}

}  // namespace clusmt::policy
