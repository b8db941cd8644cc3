#include "frontend/rename_map.h"

#include <cassert>
#include <stdexcept>

namespace clusmt::frontend {

RenameMap::RenameMap(int num_clusters)
    : map_(kNumArchRegs), num_clusters_(num_clusters) {
  if (num_clusters < 1 || num_clusters > kMaxClusters) {
    throw std::invalid_argument("unsupported cluster count");
  }
}

ReplicaSet RenameMap::define(int arch, ClusterId cluster, std::int16_t phys) {
  assert(is_valid_arch_reg(arch));
  assert(cluster >= 0 && cluster < num_clusters_);
  ReplicaSet previous = map_[arch];
  ReplicaSet fresh;
  fresh.phys[cluster] = phys;
  map_[arch] = fresh;
  return previous;
}

void RenameMap::add_replica(int arch, ClusterId cluster, std::int16_t phys) {
  assert(is_valid_arch_reg(arch));
  assert(!map_[arch].present(cluster) && "replica already present");
  map_[arch].phys[cluster] = phys;
}

void RenameMap::remove_replica(int arch, ClusterId cluster) {
  assert(is_valid_arch_reg(arch));
  assert(map_[arch].present(cluster));
  map_[arch].phys[cluster] = -1;
}

void RenameMap::restore(int arch, const ReplicaSet& previous) {
  assert(is_valid_arch_reg(arch));
  map_[arch] = previous;
}

}  // namespace clusmt::frontend
