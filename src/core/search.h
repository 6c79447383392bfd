// The randomized depth-first search algorithm (paper Fig. 2) and the repeated-query
// reliable read built on top of it (Sec. 5.2).
//
// query(a, p, l) matches the remaining query path p against the suffix of a's path
// after the first l (already consumed) bits. If either side is exhausted, a is
// responsible for the query. Otherwise the request is forwarded through a's
// references at the divergence level, trying them in random order until one succeeds
// (depth-first backtracking). Offline peers are skipped; a reference whose subtree
// fails is abandoned and the next one is tried.
//
// Message accounting follows the paper: each successful remote invocation of query
// counts as one kQuery message; contacting an offline peer costs nothing.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/grid.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/online_model.h"
#include "util/result.h"
#include "util/rng.h"

namespace pgrid {

/// What a peer does with a query: one local step of query(a, p, l), the one
/// match of a query against a path. SearchEngine, UpdateEngine and the node's
/// query handler all route with StepSearch.
struct SearchStep {
  /// The query is exhausted: the peer's interval lies inside the query's.
  bool key_exhausted = false;

  /// The peer is responsible: the query or the rest of its path is exhausted.
  bool responsible = false;

  /// Bits of the path matched after this step.
  size_t consumed = 0;

  /// The query handed to the references at level() (empty if responsible).
  KeyPath remaining;

  /// If not responsible, the 1-indexed level where the query leaves the path;
  /// if the query is exhausted, the first level below it.
  size_t level() const { return consumed + 1; }
};

/// The step at a peer with path `path` for the remaining query `key` after
/// `consumed` bits. A `consumed` beyond the path (a request off the wire may
/// carry one) leaves nothing to match, so the peer is responsible.
inline SearchStep StepSearch(const KeyPath& path, const KeyPath& key, size_t consumed) {
  const KeyPath rest = path.SuffixFrom(consumed);
  const size_t lc = key.CommonPrefixLength(rest);
  SearchStep step;
  step.key_exhausted = lc == key.length();
  step.responsible = step.key_exhausted || lc == rest.length();
  step.consumed = consumed + lc;
  if (!step.responsible) step.remaining = key.SuffixFrom(lc);
  return step;
}

/// The whole query a responsible peer answers: the consumed bits of its own
/// path (they agree with the query by the routing invariant) plus `key`.
inline KeyPath FullQuery(const KeyPath& path, const KeyPath& key, size_t consumed) {
  return path.Prefix(std::min(consumed, path.length())).Concat(key);
}

/// Outcome of one depth-first query.
struct QueryResult {
  /// True iff a responsible peer was reached.
  bool found = false;

  /// The responsible peer (valid iff found).
  PeerId responder = kInvalidPeer;

  /// Successful remote query invocations performed (the paper's message metric).
  uint64_t messages = 0;

  /// Hops rejected by an overloaded server (see set_shed_fn). Each shed hop is
  /// counted in `messages` too -- the request reached the server and cost wire
  /// traffic; it was degraded, not failed.
  uint64_t sheds = 0;

  /// Number of routing hops on the successful path (0 if the start peer answered).
  size_t hops = 0;
};

/// Outcome of a repeated-query (majority decision) read of one item's version.
struct ReliableReadResult {
  /// True iff some version reached the quorum within max_attempts.
  bool decided = false;

  /// The version agreed on (valid iff decided); falls back to the plurality value
  /// among collected answers when no quorum was reached but answers exist.
  uint64_t version = 0;

  /// True iff at least one query found a responsible peer.
  bool any_found = false;

  /// Total messages across all query attempts.
  uint64_t messages = 0;

  /// Number of queries issued.
  size_t attempts = 0;
};

/// Outcome of a prefix (interval) search: entries gathered from every reachable
/// peer whose path overlaps the prefix.
struct PrefixSearchResult {
  /// Distinct responsible peers visited.
  std::vector<PeerId> responders;

  /// Union of matching index entries across responders (deduplicated by
  /// (holder, item)).
  std::vector<IndexEntry> entries;

  /// Messages spent.
  uint64_t messages = 0;
};

/// Executes searches against a Grid.
class SearchEngine {
 public:
  /// `online` may be null (everyone online).
  SearchEngine(Grid* grid, const OnlineModel* online, Rng* rng);

  /// Issues query(start, key, 0). The start peer is assumed reachable (callers pick
  /// an online entry point; any peer can serve as one).
  QueryResult Query(PeerId start, const KeyPath& key);

  /// Repeated independent queries from random online start peers until `config.quorum`
  /// answers agree on one version of `item` (majority decision read, Sec. 5.2).
  ReliableReadResult ReadVersion(const KeyPath& key, ItemId item,
                                 const ReliableReadConfig& config);

  /// Prefix search (Sec. 6 trie extension): visits all reachable peers whose
  /// interval overlaps `prefix` -- breadth-first with per-level fan-out `fanout` --
  /// and gathers their matching index entries. A short prefix addresses a whole
  /// subtree; entries are deduplicated across replicas.
  PrefixSearchResult PrefixSearch(PeerId start, const KeyPath& prefix,
                                  size_t fanout = 2);

  /// Range search over the order-preserving key space: decomposes the inclusive
  /// range [lo, hi] (equal-length keys, see DecomposeRange) into aligned prefixes
  /// and runs a prefix search for each, merging the results. InvalidArgument for
  /// malformed bounds.
  Result<PrefixSearchResult> RangeSearch(PeerId start, const KeyPath& lo,
                                         const KeyPath& hi, size_t fanout = 2);

  /// Picks a uniformly random online peer to serve as query entry point, or nullopt
  /// if nobody is online (after sampling `tries` candidates).
  std::optional<PeerId> RandomOnlinePeer(size_t tries = 256);

  /// Routing preference for gray peers: references for which `fn(from, to)` is
  /// true (demoted as slow, see repair::RepairEngine::IsDemoted) are tried
  /// only after every fast reference at the level has been exhausted. While no
  /// reference is demoted the draw sequence is exactly the historical one, so
  /// installing the callback does not perturb replayed scenario digests.
  void set_slow_fn(std::function<bool(PeerId from, PeerId to)> fn) {
    slow_fn_ = std::move(fn);
  }

  /// Per-peer overload shedding: before a hop recurses into server `r`,
  /// `fn(r)` may reject it (bounded in-flight serve queue). A shed hop costs a
  /// kQuery message like a served one but does not recurse and is not counted
  /// as served -- degraded, not failed; the query backtracks to other refs.
  void set_shed_fn(std::function<bool(PeerId server)> fn) {
    shed_fn_ = std::move(fn);
  }

 private:
  bool QueryImpl(PeerId peer, const KeyPath& p, size_t consumed, size_t hops,
                 QueryResult* out, obs::TraceSpan* span);

  void PrefixImpl(PeerId peer, const KeyPath& p, size_t consumed, size_t fanout,
                  std::vector<uint8_t>* visited, PrefixSearchResult* out,
                  obs::TraceSpan* span);

  Grid* grid_;
  const OnlineModel* online_;
  Rng* rng_;
  std::function<bool(PeerId, PeerId)> slow_fn_;
  std::function<bool(PeerId)> shed_fn_;

  // Cached registry instruments (owned by the grid; see docs/observability.md).
  obs::Counter* queries_;
  obs::Counter* messages_;  // MessageStats kQuery
  obs::Counter* backtracks_;
  obs::Counter* offline_skips_;
  obs::Counter* sheds_;
  obs::Counter* failures_;
  obs::Histogram* hops_;
};

}  // namespace pgrid
