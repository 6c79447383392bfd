#include "core/update.h"

#include "util/macros.h"

namespace pgrid {

const char* UpdateStrategyName(UpdateStrategy s) {
  switch (s) {
    case UpdateStrategy::kRepeatedDfs:
      return "dfs";
    case UpdateStrategy::kRepeatedDfsBuddies:
      return "dfs+buddies";
    case UpdateStrategy::kBreadthFirst:
      return "bfs";
  }
  return "?";
}

UpdateEngine::UpdateEngine(Grid* grid, const OnlineModel* online, Rng* rng)
    : grid_(grid), online_(online), rng_(rng), search_(grid, online, rng) {
  obs::MetricsRegistry& m = grid->metrics();
  updates_ = m.GetCounter("update.runs");
  messages_ = m.GetCounter("update.messages");
  fanout_ = m.GetHistogram("update.fanout", obs::CountBounds());
}

bool UpdateEngine::IsOnline(PeerId p) const {
  return online_ == nullptr || online_->IsOnline(p, rng_);
}

UpdateOutcome UpdateEngine::Propagate(const KeyPath& key, ItemId item, uint64_t version,
                                      UpdateStrategy strategy,
                                      const UpdateConfig& config) {
  UpdateOutcome out = Run(key, strategy, config);
  for (PeerId p : out.reached) {
    grid_->peer(p).index().ApplyVersion(item, version);
  }
  return out;
}

UpdateOutcome UpdateEngine::Probe(const KeyPath& key, UpdateStrategy strategy,
                                  const UpdateConfig& config) {
  return Run(key, strategy, config);
}

UpdateOutcome UpdateEngine::Run(const KeyPath& key, UpdateStrategy strategy,
                                const UpdateConfig& config) {
  PGRID_CHECK(config.Validate().ok());
  updates_->Increment();
  obs::TraceSpan span(grid_->trace(), "update.propagate");
  std::unordered_set<PeerId> reached;
  uint64_t messages = 0;
  for (size_t rep = 0; rep < config.repetition; ++rep) {
    switch (strategy) {
      case UpdateStrategy::kRepeatedDfs:
        DfsPass(key, /*with_buddies=*/false, &reached, &messages);
        break;
      case UpdateStrategy::kRepeatedDfsBuddies:
        DfsPass(key, /*with_buddies=*/true, &reached, &messages);
        break;
      case UpdateStrategy::kBreadthFirst: {
        std::optional<PeerId> start = search_.RandomOnlinePeer();
        if (start.has_value()) BfsPass(*start, key, 0, config.recbreadth, &reached,
                                       &messages);
        break;
      }
    }
  }
  UpdateOutcome out;
  out.messages = messages;
  out.reached.assign(reached.begin(), reached.end());
  fanout_->Record(out.reached.size());
  if (grid_->trace() != nullptr) {
    span.Event("update.reached",
               "replicas=" + std::to_string(out.reached.size()) +
                   " messages=" + std::to_string(out.messages));
  }
  return out;
}

void UpdateEngine::DfsPass(const KeyPath& key, bool with_buddies,
                           std::unordered_set<PeerId>* reached, uint64_t* messages) {
  std::optional<PeerId> start = search_.RandomOnlinePeer();
  if (!start.has_value()) return;
  QueryResult q = search_.Query(*start, key);
  *messages += q.messages;
  if (!q.found) return;
  reached->insert(q.responder);
  if (!with_buddies) return;
  // The replica forwards the update to its known same-path buddies. One message per
  // online buddy; offline buddies are missed (they rejoin with stale state).
  for (PeerId b : grid_->peer(q.responder).buddies()) {
    if (reached->contains(b)) continue;
    if (!IsOnline(b)) continue;
    messages_->Increment();
    ++*messages;
    reached->insert(b);
  }
}

void UpdateEngine::BfsPass(PeerId peer, const KeyPath& p, size_t consumed,
                           size_t recbreadth, std::unordered_set<PeerId>* reached,
                           uint64_t* messages) {
  const PeerState& a = grid_->peer(peer);
  const SearchStep step = StepSearch(a.path(), p, consumed);
  if (step.responsible) {
    reached->insert(peer);
    if (step.key_exhausted) {
      // Query exhausted: every peer referenced at a deeper level is a replica
      // too (their intervals partition the rest of the query's interval).
      const KeyPath empty;
      for (size_t level = step.level(); level <= a.depth(); ++level) {
        // consumed = level: targets only explore levels strictly below `level`,
        // which guarantees termination (consumed grows monotonically toward maxl).
        BfsFanOut(a.RefsAt(level), empty, level, recbreadth, reached, messages);
      }
    }
    return;
  }
  // Divergence: forward to up to recbreadth references at the divergence level --
  // breadth-first, no early exit.
  BfsFanOut(a.RefsAt(step.level()), step.remaining, step.consumed, recbreadth, reached,
            messages);
}

void UpdateEngine::BfsFanOut(Span<PeerId> refs, const KeyPath& querypath,
                             size_t consumed, size_t recbreadth,
                             std::unordered_set<PeerId>* reached, uint64_t* messages) {
  std::vector<PeerId> candidates = refs.ToVector();  // copy: we draw and remove
  size_t contacted = 0;
  while (!candidates.empty() && contacted < recbreadth) {
    PeerId r = rng_->TakeRandom(&candidates);
    if (!IsOnline(r)) continue;
    messages_->Increment();
    grid_->NoteServed(r);
    ++*messages;
    ++contacted;
    BfsPass(r, querypath, consumed, recbreadth, reached, messages);
  }
}

}  // namespace pgrid
