// Structural statistics over a built grid (Sec. 5 metrics).

#pragma once

#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/grid.h"
#include "key/key_path.h"

namespace pgrid {

/// Read-only analyses of grid structure.
class GridStats {
 public:
  /// Histogram: path length -> number of peers.
  static std::map<size_t, size_t> PathLengthHistogram(const Grid& grid);

  /// Number of peers per distinct complete path.
  static std::unordered_map<KeyPath, size_t, KeyPathHash> ReplicaCounts(
      const Grid& grid);

  /// Histogram for Fig. 4: replication factor -> number of peers whose exact path is
  /// shared by that many peers (including themselves).
  static std::map<size_t, size_t> ReplicaHistogram(const Grid& grid);

  /// Average replication factor over peers (the paper reports 19.46 at N=20000).
  static double AverageReplicationFactor(const Grid& grid);

  /// All peers co-responsible for `key` (path overlaps the key). This is the ground
  /// truth replica set for the Fig. 5 / table 6 experiments.
  static std::vector<PeerId> ReplicasOf(const Grid& grid, const KeyPath& key);

  /// Mean routing-table size (total references per peer): the storage metric of
  /// Sec. 6.
  static double AverageTotalRefs(const Grid& grid);

  /// Largest routing-table size over peers.
  static size_t MaxTotalRefs(const Grid& grid);

  /// Summary of the per-peer served-message distribution (Grid::query_load()).
  struct LoadProfile {
    double mean = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    double imbalance = 0;  ///< max / mean (1.0 = perfectly even)
    size_t idle_peers = 0; ///< peers that served nothing
  };

  /// Computes the load profile of the messages served so far. The paper claims
  /// communication cost scales "equally for all peers"; this quantifies it.
  static LoadProfile QueryLoadProfile(const Grid& grid);
};

}  // namespace pgrid
