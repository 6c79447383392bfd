#include "core/exchange.h"

#include "core/ref_lists.h"
#include "util/macros.h"

namespace pgrid {

ExchangeEngine::ExchangeEngine(Grid* grid, const ExchangeConfig& config, Rng* rng,
                               const OnlineModel* online,
                               const SplitPolicy* split_policy)
    : grid_(grid),
      config_(config),
      rng_(rng),
      online_(online),
      split_policy_(split_policy) {
  PGRID_CHECK(grid != nullptr && rng != nullptr);
  PGRID_CHECK(config.Validate().ok());
  obs::MetricsRegistry& m = grid->metrics();
  exchanges_ = m.GetCounter("exchange.count");
  splits_ = m.GetCounter("exchange.splits");
  entries_moved_ = m.GetCounter("exchange.entries_moved");
  recursion_depth_ = m.GetHistogram("exchange.recursion_depth", obs::CountBounds());
}

bool ExchangeEngine::IsOnline(PeerId p, Rng* rng) const {
  return online_ == nullptr || online_->IsOnline(p, rng);
}

bool ExchangeEngine::MaySplit(const PeerState& a, const PeerState& partner,
                              size_t lc) const {
  if (lc >= config_.maxl) return false;
  return split_policy_ == nullptr || split_policy_->MaySplit(a, partner, lc);
}

void ExchangeEngine::Exchange(PeerId a1, PeerId a2) {
  // Sequential entry point: the engine's own Rng, inline recursion. Path growth
  // accumulates in the shard and is applied before returning, so callers observe
  // the same AveragePathLength as ever.
  ExchangeShard shard;
  shard.rng = rng_;
  ExchangeImpl(a1, a2, 0, &shard);
  if (shard.path_bits > 0) grid_->NotePathGrowth(shard.path_bits);
}

void ExchangeEngine::ExchangeSharded(PeerId a1, PeerId a2, uint32_t depth,
                                     ExchangeShard* shard) {
  PGRID_CHECK(shard != nullptr && shard->rng != nullptr);
  ExchangeImpl(a1, a2, depth, shard);
}

void ExchangeEngine::ExchangeImpl(PeerId id1, PeerId id2, size_t depth,
                                  ExchangeShard* shard) {
  if (id1 == id2) return;
  exchanges_->Increment();
  recursion_depth_->Record(depth);
  obs::TraceRecorder* trace = grid_->trace();
  obs::TraceSpan span(depth == 0 ? trace : nullptr, "exchange");
  if (trace != nullptr && depth > 0) {
    // Recursive invocations are point events; the enclosing depth-0 span owns the
    // wall-clock duration of the whole meeting tree.
    trace->Event(0, "exchange.recurse",
                 "a=" + std::to_string(id1) + " b=" + std::to_string(id2),
                 static_cast<uint32_t>(depth));
  }

  PeerState& a1 = grid_->peer(id1);
  PeerState& a2 = grid_->peer(id2);

  const size_t lc = a1.path().CommonPrefixLength(a2.path());
  if (lc > 0) CrossPollinateRefs(&a1, &a2, lc, shard);

  const size_t l1 = a1.depth() - lc;
  const size_t l2 = a2.depth() - lc;

  if (l1 == 0 && l2 == 0 && MaySplit(a1, a2, lc)) {
    // Case 1: identical paths below the split bound -- introduce a new level.
    a1.AppendPathBit(0);
    a2.AppendPathBit(1);
    shard->path_bits += 2;
    splits_->Increment(2);
    a1.SetRefsAt(lc + 1, {id2});
    a2.SetRefsAt(lc + 1, {id1});
    if (config_.manage_data) ReconcileData(&a1, &a2);
  } else if (l1 == 0 && l2 > 0 && MaySplit(a1, a2, lc)) {
    // Case 2: a1's path is a proper prefix of a2's -- a1 specializes (or clones to
    // the data-dense side under replication balancing).
    if (split_policy_ != nullptr && split_policy_->PreferClone(a1, a2, lc)) {
      CloneShorter(&a1, &a2, lc, shard);
    } else {
      SplitShorter(&a1, &a2, lc, shard);
    }
    if (config_.manage_data) ReconcileData(&a1, &a2);
  } else if (l1 > 0 && l2 == 0 && MaySplit(a2, a1, lc)) {
    // Case 3: symmetric to case 2.
    if (split_policy_ != nullptr && split_policy_->PreferClone(a2, a1, lc)) {
      CloneShorter(&a2, &a1, lc, shard);
    } else {
      SplitShorter(&a2, &a1, lc, shard);
    }
    if (config_.manage_data) ReconcileData(&a1, &a2);
  } else if (l1 > 0 && l2 > 0 && depth < config_.recmax) {
    // Case 4: paths diverge -- forward each peer to the other's references on the
    // matching side and recurse.
    std::vector<PeerId> refs1 = Without(a1.RefsAt(lc + 1), id2);
    std::vector<PeerId> refs2 = Without(a2.RefsAt(lc + 1), id1);
    Rng* rng = shard->rng;
    if (config_.recursion_fanout > 0) {
      refs1 = rng->SampleWithoutReplacement(std::move(refs1), config_.recursion_fanout);
      refs2 = rng->SampleWithoutReplacement(std::move(refs2), config_.recursion_fanout);
    }
    if (shard->deferred != nullptr) {
      // Sharded execution: recursion targets are third peers a concurrent meeting
      // may own, so the recursive calls are captured for the driver to schedule in
      // a later conflict-free wave. Online filtering stays on this shard's stream,
      // keeping the capture deterministic.
      for (PeerId r1 : refs1) {
        if (IsOnline(r1, rng)) {
          shard->deferred->push_back({id2, r1, static_cast<uint32_t>(depth + 1)});
        }
      }
      for (PeerId r2 : refs2) {
        if (IsOnline(r2, rng)) {
          shard->deferred->push_back({id1, r2, static_cast<uint32_t>(depth + 1)});
        }
      }
    } else {
      // NOTE: a1/a2 may specialize further inside these recursive calls; peers are
      // addressed by id, and Grid storage is stable, so this is safe.
      for (PeerId r1 : refs1) {
        if (IsOnline(r1, rng)) ExchangeImpl(id2, r1, depth + 1, shard);
      }
      for (PeerId r2 : refs2) {
        if (IsOnline(r2, rng)) ExchangeImpl(id1, r2, depth + 1, shard);
      }
    }
  } else if (l1 == 0 && l2 == 0 && config_.manage_data) {
    // Replica case: identical paths that may not split (at maxl, or refused by the
    // split policy). Merge leaf indexes either way; register buddies only at maxl,
    // where paths are final (a policy-refused pair may still specialize later once
    // it accumulates data, which would invalidate the buddy relation).
    MergeReplicas(&a1, &a2, /*record_buddies=*/lc >= config_.maxl);
  }
}

void ExchangeEngine::CrossPollinateRefs(PeerState* a1, PeerState* a2, size_t level,
                                        ExchangeShard* shard) {
  Rng* rng = shard->rng;
  std::vector<PeerId> common = Union(a1->RefsAt(level), a2->RefsAt(level));
  if (config_.prune_unreachable_refs && online_ != nullptr) {
    // Gossip-time failure detection: drop targets that cannot be reached right
    // now. Temporarily offline peers lose some incoming references and regain
    // them through later exchanges; permanently dead ones are flushed for good.
    std::erase_if(common, [this, rng](PeerId r) { return !IsOnline(r, rng); });
  }
  a1->SetRefsAt(level, rng->SampleWithoutReplacement(common, config_.refmax));
  a2->SetRefsAt(level, rng->SampleWithoutReplacement(std::move(common), config_.refmax));
}

void ExchangeEngine::SplitShorter(PeerState* shorter, PeerState* longer, size_t lc,
                                  ExchangeShard* shard) {
  PGRID_CHECK_EQ(shorter->depth(), lc);
  PGRID_CHECK_GT(longer->depth(), lc);
  const int bit = ComplementBit(longer->PathBit(lc + 1));
  shorter->AppendPathBit(bit);
  shard->path_bits += 1;
  splits_->Increment();
  shorter->SetRefsAt(lc + 1, {longer->id()});
  const PeerId self = shorter->id();
  std::vector<PeerId> refs = Union(Span<PeerId>(&self, 1), longer->RefsAt(lc + 1));
  longer->SetRefsAt(lc + 1, shard->rng->SampleWithoutReplacement(std::move(refs),
                                                                 config_.refmax));
}

void ExchangeEngine::CloneShorter(PeerState* shorter, PeerState* longer, size_t lc,
                                  ExchangeShard* shard) {
  PGRID_CHECK_EQ(shorter->depth(), lc);
  PGRID_CHECK_GT(longer->depth(), lc);
  // Adopt the partner's bit: the shorter peer joins the data-dense side. Its
  // references at the new level must point to the complement of its own bit, which
  // is exactly what the partner's references at that level do.
  const int bit = longer->PathBit(lc + 1);
  shorter->AppendPathBit(bit);
  shard->path_bits += 1;
  splits_->Increment();
  shorter->SetRefsAt(lc + 1, shard->rng->SampleWithoutReplacement(
                                 longer->RefsAt(lc + 1).ToVector(), config_.refmax));
}

void ExchangeEngine::MergeReplicas(PeerState* a1, PeerState* a2,
                                   bool record_buddies) {
  if (record_buddies) {
    a1->AddBuddy(a2->id(), config_.buddymax);
    a2->AddBuddy(a1->id(), config_.buddymax);
    // Replicas also learn each other's buddies (transitive closure over
    // meetings). Each loop walks one peer's list while inserting into the
    // other's, so the span being iterated is never reallocated mid-walk; the
    // second loop deliberately sees what the first one just added.
    for (PeerId b : a2->buddies()) a1->AddBuddy(b, config_.buddymax);
    for (PeerId b : a1->buddies()) a2->AddBuddy(b, config_.buddymax);
  }
  size_t moved = a1->index().MergeFrom(a2->index());
  moved += a2->index().MergeFrom(a1->index());
  if (moved > 0) entries_moved_->Increment(moved);
}

void ExchangeEngine::ReconcileData(PeerState* x, PeerState* y) {
  for (int round = 0; round < 2; ++round) {
    PeerState* from = round == 0 ? x : y;
    PeerState* to = round == 0 ? y : x;
    // Entries that stopped overlapping the (possibly just-extended) own path, plus
    // anything parked earlier, are offered to the partner.
    std::vector<IndexEntry> pending = from->index().ExtractNotMatching(from->path());
    for (IndexEntry& e : from->foreign_entries()) pending.push_back(std::move(e));
    from->foreign_entries().clear();
    size_t moved = 0;
    for (IndexEntry& e : pending) {
      if (PathsOverlap(to->path(), e.key)) {
        if (to->index().InsertOrRefresh(e)) ++moved;
      } else if (PathsOverlap(from->path(), e.key)) {
        from->index().InsertOrRefresh(e);
      } else {
        from->foreign_entries().push_back(std::move(e));
      }
    }
    if (moved > 0) entries_moved_->Increment(moved);
  }
}

}  // namespace pgrid
