#include "core/stats.h"

#include <algorithm>

namespace pgrid {

std::map<size_t, size_t> GridStats::PathLengthHistogram(const Grid& grid) {
  std::map<size_t, size_t> hist;
  for (const PeerState& p : grid) ++hist[p.depth()];
  return hist;
}

std::unordered_map<KeyPath, size_t, KeyPathHash> GridStats::ReplicaCounts(
    const Grid& grid) {
  std::unordered_map<KeyPath, size_t, KeyPathHash> counts;
  for (const PeerState& p : grid) ++counts[p.path()];
  return counts;
}

std::map<size_t, size_t> GridStats::ReplicaHistogram(const Grid& grid) {
  auto counts = ReplicaCounts(grid);
  std::map<size_t, size_t> hist;
  for (const PeerState& p : grid) ++hist[counts[p.path()]];
  return hist;
}

double GridStats::AverageReplicationFactor(const Grid& grid) {
  if (grid.size() == 0) return 0.0;
  auto counts = ReplicaCounts(grid);
  double sum = 0.0;
  for (const PeerState& p : grid) sum += static_cast<double>(counts[p.path()]);
  return sum / static_cast<double>(grid.size());
}

std::vector<PeerId> GridStats::ReplicasOf(const Grid& grid, const KeyPath& key) {
  std::vector<PeerId> out;
  for (const PeerState& p : grid) {
    if (PathsOverlap(p.path(), key)) out.push_back(p.id());
  }
  return out;
}

double GridStats::AverageTotalRefs(const Grid& grid) {
  if (grid.size() == 0) return 0.0;
  double sum = 0.0;
  for (const PeerState& p : grid) sum += static_cast<double>(p.TotalRefs());
  return sum / static_cast<double>(grid.size());
}

size_t GridStats::MaxTotalRefs(const Grid& grid) {
  size_t best = 0;
  for (const PeerState& p : grid) best = std::max(best, p.TotalRefs());
  return best;
}

GridStats::LoadProfile GridStats::QueryLoadProfile(const Grid& grid) {
  LoadProfile out;
  std::vector<uint64_t> load = grid.query_load();
  load.resize(grid.size(), 0);
  if (load.empty()) return out;
  std::sort(load.begin(), load.end());
  uint64_t total = 0;
  for (uint64_t l : load) {
    total += l;
    if (l == 0) ++out.idle_peers;
  }
  out.mean = static_cast<double>(total) / static_cast<double>(load.size());
  out.max = load.back();
  out.p50 = load[load.size() / 2];
  out.p99 = load[load.size() * 99 / 100];
  out.imbalance = out.mean > 0 ? static_cast<double>(out.max) / out.mean : 0.0;
  return out;
}

}  // namespace pgrid
