#include "core/search.h"

#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "key/range.h"
#include "util/macros.h"

namespace pgrid {

namespace {

using EntrySet = std::set<std::pair<PeerId, ItemId>>;

/// Appends to `out` the entries whose (holder, item) pair `seen` lacks, and
/// adds their pairs to it.
void AppendUnseen(std::vector<IndexEntry> entries, EntrySet* seen,
                  std::vector<IndexEntry>* out) {
  for (IndexEntry& e : entries) {
    if (seen->emplace(e.holder, e.item_id).second) out->push_back(std::move(e));
  }
}

}  // namespace

SearchEngine::SearchEngine(Grid* grid, const OnlineModel* online, Rng* rng)
    : grid_(grid), online_(online), rng_(rng) {
  PGRID_CHECK(grid != nullptr && rng != nullptr);
  obs::MetricsRegistry& m = grid->metrics();
  queries_ = m.GetCounter("search.queries");
  messages_ = m.GetCounter("search.messages");
  backtracks_ = m.GetCounter("search.backtracks");
  offline_skips_ = m.GetCounter("search.offline_skips");
  sheds_ = m.GetCounter("search.sheds");
  failures_ = m.GetCounter("search.failures");
  hops_ = m.GetHistogram("search.hops", obs::CountBounds());
}

QueryResult SearchEngine::Query(PeerId start, const KeyPath& key) {
  QueryResult out;
  queries_->Increment();
  obs::TraceSpan span(grid_->trace(), "search.query");
  out.found = QueryImpl(start, key, /*consumed=*/0, /*hops=*/0, &out, &span);
  if (out.found) {
    hops_->Record(out.hops);
  } else {
    failures_->Increment();
  }
  return out;
}

bool SearchEngine::QueryImpl(PeerId peer, const KeyPath& p, size_t consumed,
                             size_t hops, QueryResult* out, obs::TraceSpan* span) {
  const bool tracing = grid_->trace() != nullptr;
  const PeerState& a = grid_->peer(peer);
  const SearchStep step = StepSearch(a.path(), p, consumed);
  if (step.responsible) {
    out->responder = peer;
    out->hops = hops;
    return true;
  }

  std::vector<PeerId> refs = a.RefsAt(step.level());  // copy: we draw and remove
  std::vector<PeerId> deferred;  // demoted (gray) refs: tried after the fast ones
  if (slow_fn_) {
    // Stable partition so that with no demotions the draw sequence over `refs`
    // is byte-identical to the historical one.
    std::vector<PeerId> fast;
    fast.reserve(refs.size());
    for (PeerId r : refs) {
      (slow_fn_(peer, r) ? deferred : fast).push_back(r);
    }
    refs = std::move(fast);
  }
  while (!refs.empty() || !deferred.empty()) {
    PeerId r = !refs.empty() ? rng_->TakeRandom(&refs) : rng_->TakeRandom(&deferred);
    if (online_ != nullptr && !online_->IsOnline(r, rng_)) {
      offline_skips_->Increment();
      if (tracing) {
        span->Event("search.offline_skip", "peer=" + std::to_string(r),
                    static_cast<uint32_t>(hops));
      }
      continue;
    }
    if (shed_fn_ && shed_fn_(r)) {
      // The request reached r but its serve queue is full: one kQuery spent on
      // the wire (counted like any hop), nothing served, no recursion. The
      // query degrades to the remaining references.
      messages_->Increment();
      ++out->messages;
      sheds_->Increment();
      ++out->sheds;
      if (tracing) {
        span->Event("search.shed", "peer=" + std::to_string(r),
                    static_cast<uint32_t>(hops));
      }
      continue;
    }
    messages_->Increment();
    grid_->NoteServed(r);
    ++out->messages;
    if (tracing) {
      span->Event("search.hop",
                  "peer=" + std::to_string(r) + " level=" + std::to_string(step.level()),
                  static_cast<uint32_t>(hops + 1));
    }
    if (QueryImpl(r, step.remaining, step.consumed, hops + 1, out, span)) return true;
    backtracks_->Increment();
    if (tracing) {
      span->Event("search.backtrack", "peer=" + std::to_string(r),
                  static_cast<uint32_t>(hops + 1));
    }
  }
  return false;
}

PrefixSearchResult SearchEngine::PrefixSearch(PeerId start, const KeyPath& prefix,
                                              size_t fanout) {
  PGRID_CHECK_GT(fanout, 0u);
  PrefixSearchResult out;
  std::vector<uint8_t> visited(grid_->size(), 0);
  obs::TraceSpan span(grid_->trace(), "search.prefix");
  PrefixImpl(start, prefix, /*consumed=*/0, fanout, &visited, &out, &span);
  // Replicas answer with the same entries.
  EntrySet seen;
  AppendUnseen(std::exchange(out.entries, {}), &seen, &out.entries);
  return out;
}

void SearchEngine::PrefixImpl(PeerId peer, const KeyPath& p, size_t consumed,
                              size_t fanout, std::vector<uint8_t>* visited,
                              PrefixSearchResult* out, obs::TraceSpan* span) {
  if ((*visited)[peer]) return;
  (*visited)[peer] = 1;
  const PeerState& a = grid_->peer(peer);
  const SearchStep step = StepSearch(a.path(), p, consumed);

  auto fan = [&](Span<PeerId> refs, const KeyPath& next,
                 size_t consumed_next) {
    std::vector<PeerId> candidates = refs.ToVector();  // copy: draw and remove
    size_t contacted = 0;
    while (!candidates.empty() && contacted < fanout) {
      PeerId r = rng_->TakeRandom(&candidates);
      if (online_ != nullptr && !online_->IsOnline(r, rng_)) {
        offline_skips_->Increment();
        continue;
      }
      messages_->Increment();
      grid_->NoteServed(r);
      ++out->messages;
      ++contacted;
      if (grid_->trace() != nullptr) {
        span->Event("search.hop", "peer=" + std::to_string(r),
                    static_cast<uint32_t>(consumed_next));
      }
      PrefixImpl(r, next, consumed_next, fanout, visited, out, span);
    }
  };

  if (step.responsible) {
    // The peer's interval intersects the prefix region: gather its matching
    // entries.
    out->responders.push_back(peer);
    a.index().ForEachOverlapping(
        FullQuery(a.path(), p, consumed),
        [out](const IndexEntry& e) { out->entries.push_back(e); });
    if (step.key_exhausted) {
      // Prefix exhausted but the peer's path continues: references at every
      // deeper level cover the sibling sub-intervals of the prefix region.
      // consumed = level ensures strictly deeper exploration (termination).
      const KeyPath empty;
      for (size_t level = step.level(); level <= a.depth(); ++level) {
        fan(a.RefsAt(level), empty, level);
      }
    }
    return;
  }
  fan(a.RefsAt(step.level()), step.remaining, step.consumed);
}

Result<PrefixSearchResult> SearchEngine::RangeSearch(PeerId start, const KeyPath& lo,
                                                     const KeyPath& hi,
                                                     size_t fanout) {
  PGRID_ASSIGN_OR_RETURN(std::vector<KeyPath> prefixes, DecomposeRange(lo, hi));
  PrefixSearchResult merged;
  EntrySet seen_entries;
  std::unordered_set<PeerId> seen_responders;
  for (const KeyPath& prefix : prefixes) {
    PrefixSearchResult part = PrefixSearch(start, prefix, fanout);
    merged.messages += part.messages;
    for (PeerId p : part.responders) {
      if (seen_responders.insert(p).second) merged.responders.push_back(p);
    }
    AppendUnseen(std::move(part.entries), &seen_entries, &merged.entries);
  }
  return merged;
}

std::optional<PeerId> SearchEngine::RandomOnlinePeer(size_t tries) {
  for (size_t i = 0; i < tries; ++i) {
    PeerId p = static_cast<PeerId>(rng_->UniformIndex(grid_->size()));
    if (online_ == nullptr || online_->IsOnline(p, rng_)) return p;
  }
  return std::nullopt;
}

ReliableReadResult SearchEngine::ReadVersion(const KeyPath& key, ItemId item,
                                             const ReliableReadConfig& config) {
  PGRID_CHECK(config.Validate().ok());
  ReliableReadResult out;
  std::map<uint64_t, size_t> tally;
  for (size_t attempt = 0; attempt < config.max_attempts; ++attempt) {
    std::optional<PeerId> start = RandomOnlinePeer();
    if (!start.has_value()) break;
    QueryResult q = Query(*start, key);
    ++out.attempts;
    out.messages += q.messages;
    if (!q.found) continue;
    out.any_found = true;
    const uint64_t v = grid_->peer(q.responder).index().LatestVersionOf(item);
    if (++tally[v] >= config.quorum) {
      out.decided = true;
      out.version = v;
      return out;
    }
  }
  // No quorum: report the plurality answer (highest count, ties broken by larger
  // version, i.e. prefer fresher data).
  size_t best_count = 0;
  for (const auto& [v, c] : tally) {
    if (c > best_count || (c == best_count && v > out.version)) {
      best_count = c;
      out.version = v;
    }
  }
  return out;
}

}  // namespace pgrid
