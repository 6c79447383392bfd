// Update propagation to replicas (Sec. 3 strategies, evaluated in Sec. 5.2 / Fig. 5).
//
// An update must reach *all* peers co-responsible for a key, not just one. Three
// strategies from the paper:
//  - kRepeatedDfs:        run the Fig. 2 depth-first search `repetition` times from
//                         random online peers; each run delivers the update to the
//                         one replica it reaches.
//  - kRepeatedDfsBuddies: as above, but every reached replica also forwards the
//                         update to its (online) buddies.
//  - kBreadthFirst:       breadth-first routing: at every routing level follow up to
//                         `recbreadth` (online) references instead of one, reaching
//                         many replicas per run; restarted `repetition` times.
//
// Reached replicas apply the new version to their leaf index entries. Every
// successful remote contact costs one message; offline contacts cost nothing,
// matching the search metric. Breadth-first hops and buddy notifications count as
// kUpdate; the depth-first passes route through SearchEngine, so their hops count
// as kQuery. UpdateOutcome::messages is the sum of both.

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/grid.h"
#include "core/search.h"
#include "obs/metrics.h"
#include "sim/online_model.h"
#include "util/rng.h"

namespace pgrid {

/// How an update is propagated to the replica set.
enum class UpdateStrategy {
  kRepeatedDfs,
  kRepeatedDfsBuddies,
  kBreadthFirst,
};

/// Returns a stable display name ("dfs", "dfs+buddies", "bfs").
const char* UpdateStrategyName(UpdateStrategy s);

/// Outcome of one update propagation.
struct UpdateOutcome {
  /// Messages spent (the insertion cost of Sec. 5.2).
  uint64_t messages = 0;

  /// Distinct replicas the update reached (responsible peers only).
  std::vector<PeerId> reached;
};

/// Propagates updates through a Grid.
class UpdateEngine {
 public:
  /// `online` may be null (everyone online).
  UpdateEngine(Grid* grid, const OnlineModel* online, Rng* rng);

  /// Propagates version `version` of item `item` (indexed under `key`) using
  /// `strategy` with the given parameters. Every reached replica bumps its index
  /// entries for the item.
  UpdateOutcome Propagate(const KeyPath& key, ItemId item, uint64_t version,
                          UpdateStrategy strategy, const UpdateConfig& config);

  /// Collects replicas reachable for `key` without modifying any state: used by the
  /// Fig. 5 experiment, which measures the fraction of replicas identified per
  /// message budget.
  UpdateOutcome Probe(const KeyPath& key, UpdateStrategy strategy,
                      const UpdateConfig& config);

 private:
  UpdateOutcome Run(const KeyPath& key, UpdateStrategy strategy,
                    const UpdateConfig& config);

  /// One depth-first pass: reaches at most one replica.
  void DfsPass(const KeyPath& key, bool with_buddies,
               std::unordered_set<PeerId>* reached, uint64_t* messages);

  /// One breadth-first pass from `peer`.
  void BfsPass(PeerId peer, const KeyPath& p, size_t consumed, size_t recbreadth,
               std::unordered_set<PeerId>* reached, uint64_t* messages);

  /// Forwards to up to `recbreadth` online members of `refs`; each successful
  /// contact costs one message and recurses into BfsPass.
  void BfsFanOut(Span<PeerId> refs, const KeyPath& querypath,
                 size_t consumed, size_t recbreadth,
                 std::unordered_set<PeerId>* reached, uint64_t* messages);

  bool IsOnline(PeerId p) const;

  Grid* grid_;
  const OnlineModel* online_;
  Rng* rng_;
  SearchEngine search_;  // picks start peers and runs the depth-first passes

  // Cached registry instruments (owned by the grid; see docs/observability.md).
  obs::Counter* updates_;   // runs of the propagation algorithm
  obs::Counter* messages_;  // MessageStats kUpdate
  obs::Histogram* fanout_;  // replicas reached per propagation
};

}  // namespace pgrid
