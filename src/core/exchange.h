// The randomized P-Grid construction algorithm (paper Fig. 3).
//
// Whenever two peers meet they execute `exchange`:
//  - If their paths share a prefix of length lc > 0, they cross-pollinate their
//    reference sets at level lc (union, then each keeps a random refmax-subset).
//  - Case 1: both paths are identical and below maxl -> introduce a new level; one
//    takes bit 0, the other bit 1, and they reference each other.
//  - Case 2/3: one path is a proper prefix of the other -> the shorter peer
//    specializes with the complement of the longer peer's next bit; mutual
//    references are installed at that level.
//  - Case 4: the paths diverge below their ends -> each peer forwards the other to
//    its references on the far side, recursively (bounded by recmax, and optionally
//    by a per-side fan-out bound -- the stabilizing fix of Sec. 5.1).
//  - Replica case (not in the paper's pseudo code, implied by Sec. 3/5.2): identical
//    paths at maxl cannot split; the peers record each other as buddies and merge
//    their leaf indexes.
//
// When ExchangeConfig::manage_data is set, path changes also redistribute leaf index
// entries so each entry ends up at peers whose path overlaps its key; entries that
// temporarily match neither peer are parked in the owner's foreign buffer and offered
// again at later meetings (never dropped).
//
// Every invocation (including recursive ones) counts as one kExchange message --
// the cost metric `e` of Sec. 5.1.

#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/grid.h"
#include "core/split_policy.h"
#include "obs/metrics.h"
#include "sim/online_model.h"
#include "util/rng.h"

namespace pgrid {

/// A recursive exchange (Fig. 3 case 4) captured during sharded execution instead
/// of executed inline. The parallel driver schedules it into a later conflict-free
/// wave; its randomness comes from the deterministic per-slot stream it is
/// assigned to (see core/parallel_builder.h), never from thread timing.
struct PendingExchange {
  PeerId initiator = 0;
  PeerId target = 0;
  uint32_t depth = 0;
};

/// Sinks for one sharded exchange execution (see ParallelGridBuilder). A shard
/// isolates everything an exchange touches besides the two peers' own state, so
/// conflict-free meetings can run concurrently:
///  - all random draws come from `rng` (a per-meeting counter-derived stream),
///  - path growth accumulates in `path_bits`, applied at the barrier,
///  - case-4 recursion is captured into `deferred` (when set) instead of executed
///    inline, because recursion targets are third peers another concurrent meeting
///    may own. A null `deferred` recurses inline (the sequential behavior).
struct ExchangeShard {
  Rng* rng = nullptr;
  uint64_t path_bits = 0;
  std::vector<PendingExchange>* deferred = nullptr;
};

/// Executes the construction algorithm against a Grid.
class ExchangeEngine {
 public:
  /// `grid`, `rng` must outlive the engine. `online` may be null (everyone online);
  /// when set, recursive exchange targets are skipped while offline, as in Fig. 3.
  /// `split_policy` may refine (never widen) the maxl bound on specialization --
  /// see split_policy.h; null means the paper's plain maxl rule.
  ExchangeEngine(Grid* grid, const ExchangeConfig& config, Rng* rng,
                 const OnlineModel* online = nullptr,
                 const SplitPolicy* split_policy = nullptr);

  /// Runs one meeting between two distinct peers (the paper's exchange(a1, a2, 0)).
  void Exchange(PeerId a1, PeerId a2);

  /// Runs one (possibly recursive, depth > 0) exchange drawing from `shard->rng`
  /// instead of the engine's Rng. Mutates only the states of `a1`, `a2` (and,
  /// with a null `shard->deferred`, of inline recursion targets); path growth
  /// lands in the shard for the barrier. Metrics-registry instruments are atomic
  /// and recorded directly. Thread-safe for concurrent calls whose peer pairs
  /// are disjoint.
  void ExchangeSharded(PeerId a1, PeerId a2, uint32_t depth, ExchangeShard* shard);

  /// Total exchange executions recorded so far (the paper's `e`).
  uint64_t num_exchanges() const { return exchanges_->value(); }

  const ExchangeConfig& config() const { return config_; }

 private:
  void ExchangeImpl(PeerId id1, PeerId id2, size_t depth, ExchangeShard* shard);

  /// Level-lc reference cross-pollination: union both sets, each keeps a random
  /// refmax-subset.
  void CrossPollinateRefs(PeerState* a1, PeerState* a2, size_t level,
                          ExchangeShard* shard);

  /// Cases 2/3: `shorter` (whose path equals the common prefix) specializes with the
  /// complement of `longer`'s bit at level lc+1; installs mutual references.
  void SplitShorter(PeerState* shorter, PeerState* longer, size_t lc,
                    ExchangeShard* shard);

  /// Replication-balancing variant of cases 2/3: `shorter` adopts the partner's bit
  /// (joins its side) and inherits a sample of the partner's references at the new
  /// level. Triggered by SplitPolicy::PreferClone.
  void CloneShorter(PeerState* shorter, PeerState* longer, size_t lc,
                    ExchangeShard* shard);

  /// Replica meeting: leaf index merge, plus mutual buddy registration when the
  /// paths are final (at maxl).
  void MergeReplicas(PeerState* a1, PeerState* a2, bool record_buddies);

  /// Moves leaf index entries between the two peers so that each retained entry
  /// overlaps its holder's (possibly just-extended) path.
  void ReconcileData(PeerState* x, PeerState* y);

  bool IsOnline(PeerId p, Rng* rng) const;

  /// True iff `a` may extend its path when meeting `partner` with common prefix
  /// length `lc`: always bounded by maxl, optionally further restricted by the
  /// split policy.
  bool MaySplit(const PeerState& a, const PeerState& partner, size_t lc) const;

  Grid* grid_;
  ExchangeConfig config_;
  Rng* rng_;
  const OnlineModel* online_;
  const SplitPolicy* split_policy_;

  // Cached registry instruments (owned by the grid; see docs/observability.md).
  obs::Counter* exchanges_;  // MessageStats kExchange
  obs::Counter* splits_;
  obs::Counter* entries_moved_;  // MessageStats kDataTransfer (this engine's share)
  obs::Histogram* recursion_depth_;
};

}  // namespace pgrid
