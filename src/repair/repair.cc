#include "repair/repair.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/digest.h"
#include "util/macros.h"

namespace pgrid {
namespace repair {

namespace {

/// Targeted lookups per under-full level per Tick, and random bootstrap
/// vantages per recruiting peer.
constexpr size_t kRecruitAttempts = 4;

/// Latency bound for a delivered probe, in the units of the latency callback
/// (set_latency_fn). A delivered probe whose reported latency exceeds it
/// counts as slow.
constexpr uint64_t kProbeTimeout = 4;

uint64_t PairKey(PeerId a, PeerId b) {
  const PeerId lo = std::min(a, b);
  const PeerId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

}  // namespace

RepairEngine::RepairEngine(Grid* grid, const ExchangeConfig& exchange_config,
                           const RepairConfig& config, SearchEngine* search,
                           const OnlineModel* online, Rng* rng)
    : grid_(grid),
      exchange_config_(exchange_config),
      config_(config),
      search_(search),
      online_(online),
      rng_(rng) {}

bool RepairEngine::Probe(PeerId from, PeerId to) {
  if (probe_fn_) return probe_fn_(from, to);
  return IsLive(to) && (online_ == nullptr || online_->IsOnline(to, rng_));
}

bool RepairEngine::SatisfiesRefProperty(const PeerState& a, size_t level,
                                        PeerId target) const {
  if (target == a.id() || target >= grid_->size()) return false;
  return CanReference(a.path(), level, grid_->peer(target).path());
}

void RepairEngine::ProbeAndEvict(PeerState& peer, RepairTick* tick) {
  // Each referenced peer is probed once per observer per round, in first-seen
  // order, no matter how many levels list it.
  std::vector<PeerId> targets;
  for (size_t level = 1; level <= peer.depth(); ++level) {
    for (PeerId r : peer.RefsAt(level)) {
      if (std::find(targets.begin(), targets.end(), r) == targets.end()) {
        targets.push_back(r);
      }
    }
  }
  SuspicionTable& suspicion = suspicion_[peer.id()];
  obs::MetricsRegistry& m = grid_->metrics();
  for (PeerId t : targets) {
    if (Probe(peer.id(), t)) {
      m.GetCounter("repair.probes")->Increment();
      ++tick->probes;
      suspicion.NoteSuccess(t);
      if (latency_fn_) {
        // Gray-failure detection: the probe arrived, but slowly. Slow evidence
        // only ever demotes (routing deprioritization) -- a slow replica still
        // holds valid data, so it must not be evicted as dead.
        if (latency_fn_(peer.id(), t) > kProbeTimeout) {
          m.GetCounter("repair.slow_probes")->Increment();
          ++tick->slow_probes;
          if (suspicion.NoteSlow(t)) {
            m.GetCounter("repair.slow_demotions")->Increment();
            ++tick->demotions;
          }
        } else {
          suspicion.NoteFast(t);
        }
      }
      // A delivered probe also announces the prober: the target may adopt it
      // into an under-full level (the reference property is symmetric between
      // complementary subtrees). This is how a live peer that lost all of its
      // inbound references re-enters the routing fabric.
      PeerState& target = grid_->peer(t);
      for (size_t level = 1; level <= target.depth(); ++level) {
        if (target.RefsAt(level).size() < exchange_config_.refmax &&
            SatisfiesRefProperty(target, level, peer.id()) &&
            target.AddRefAt(level, peer.id())) {
          m.GetCounter("repair.recruitments")->Increment();
          ++tick->recruited;
        }
      }
      continue;
    }
    // An undelivered probe costs nothing on the simulated wire.
    m.GetCounter("repair.probe_failures")->Increment();
    ++tick->probe_failures;
    if (!suspicion.NoteFailure(t)) continue;
    uint64_t removed = 0;
    for (size_t level = 1; level <= peer.depth(); ++level) {
      removed += peer.RemoveRefAt(level, t);
    }
    m.GetCounter("repair.evictions")->Increment(removed);
    tick->evictions += removed;
  }
}

void RepairEngine::RecruitReferences(PeerState& peer, RepairTick* tick) {
  bool any_underfull = false;
  for (size_t level = 1; level <= peer.depth(); ++level) {
    if (peer.RefsAt(level).size() < exchange_config_.refmax) {
      any_underfull = true;
      break;
    }
  }
  if (!any_underfull) return;

  obs::MetricsRegistry& m = grid_->metrics();
  // Vantage points for the recruitment lookups: the peer itself, then its live
  // buddies and live references. Cycling over several start peers keeps one
  // unlucky local routing table from starving the whole repair.
  std::vector<PeerId> vantages = {peer.id()};
  auto add_vantage = [&](PeerId v) {
    if (IsLive(v) &&
        std::find(vantages.begin(), vantages.end(), v) == vantages.end()) {
      vantages.push_back(v);
    }
  };
  for (PeerId b : peer.buddies()) add_vantage(b);
  for (size_t level = 1; level <= peer.depth(); ++level) {
    for (PeerId r : peer.RefsAt(level)) add_vantage(r);
  }
  // Bootstrap entry points: a peer whose reference levels were hollowed out by
  // eviction cannot route its own lookups any more. Like any search client it
  // may enter the grid through an arbitrary online peer, so a few random live
  // vantages break the can't-route-because-empty deadlock.
  for (size_t i = 0; i < kRecruitAttempts; ++i) {
    const std::optional<PeerId> v = search_->RandomOnlinePeer();
    if (v.has_value() && IsLive(*v)) add_vantage(*v);
  }

  for (size_t level = 1; level <= peer.depth(); ++level) {
    auto adopt = [&](PeerId candidate) {
      if (peer.RefsAt(level).size() >= exchange_config_.refmax) return false;
      if (!IsLive(candidate) || !SatisfiesRefProperty(peer, level, candidate) ||
          !peer.AddRefAt(level, candidate)) {
        return false;
      }
      m.GetCounter("repair.recruitments")->Increment();
      ++tick->recruited;
      return true;
    };
    for (size_t attempt = 0; attempt < kRecruitAttempts; ++attempt) {
      if (peer.RefsAt(level).size() >= exchange_config_.refmax) break;
      const KeyPath key =
          ComplementaryKey(peer.path(), level, exchange_config_.maxl, rng_);
      // Try the vantages in order until one can route the lookup: local ones
      // first, the random bootstrap entries when local routing is hollowed out.
      QueryResult r;
      for (size_t v = 0; v < vantages.size() && !r.found; ++v) {
        r = search_->Query(vantages[v], key);
      }
      if (!r.found) continue;
      // The responder's buddies cover the same subtree: try them whether or
      // not the responder itself was new. At the deepest level the lookup key
      // is fully determined (no random padding), so every attempt routes to
      // the same few replicas; an already-referenced responder is then the
      // only doorway to the rest of its group.
      adopt(r.responder);
      for (PeerId b : grid_->peer(r.responder).buddies()) adopt(b);
      // Registration is symmetric: the recruiting peer sits in the responder's
      // complementary subtree at this level, so it offers itself back. This is
      // how a peer that nobody references re-enters the routing fabric.
      PeerState& resp = grid_->peer(r.responder);
      if (resp.depth() >= level &&
          resp.RefsAt(level).size() < exchange_config_.refmax &&
          SatisfiesRefProperty(resp, level, peer.id()) &&
          resp.AddRefAt(level, peer.id())) {
        m.GetCounter("repair.recruitments")->Increment();
        ++tick->recruited;
      }
    }
  }
}

void RepairEngine::SyncBuddies(PeerState& peer,
                               std::unordered_set<uint64_t>* synced,
                               RepairTick* tick) {
  obs::MetricsRegistry& m = grid_->metrics();
  const std::vector<PeerId> buddies = peer.buddies();
  for (PeerId b_id : buddies) {
    if (b_id >= grid_->size() || !IsLive(b_id)) continue;
    // Buddy lists may be asymmetric, so dedupe by unordered pair: each pair
    // reconciles at most once per round regardless of which side lists whom.
    if (!synced->insert(PairKey(peer.id(), b_id)).second) continue;
    if (!Probe(peer.id(), b_id)) continue;
    PeerState& buddy = grid_->peer(b_id);

    // One digest exchange per session: 2 x (8-byte digest) on the wire.
    m.GetCounter("repair.sync_sessions")->Increment();
    m.GetCounter("repair.sync_bytes")->Increment(16);
    ++tick->sync_sessions;

    const uint64_t key = PairKey(peer.id(), b_id);
    if (sim::IndexDigest(peer.index()) != sim::IndexDigest(buddy.index())) {
      ++tick->syncs_diverged;
      m.GetHistogram("repair.divergence_age", obs::CountBounds())
          ->Record(rounds_ - last_in_sync_[key]);
      // Max-version merge in both directions leaves both replicas holding the
      // union of their entry sets at the newest version of each.
      const uint64_t moved = peer.index().MergeFrom(buddy.index()) +
                             buddy.index().MergeFrom(peer.index());
      m.GetCounter("repair.entries_reconciled")->Increment(moved);
      m.GetCounter("repair.sync_bytes")->Increment(32 * moved);
      tick->entries_reconciled += moved;
    }
    last_in_sync_[key] = rounds_;

    // Replicas also pool routing knowledge: each side offers its live valid
    // references to the other, which refills under-full levels without a lookup.
    PeerState* pair[2] = {&peer, &buddy};
    for (int dir = 0; dir < 2; ++dir) {
      const PeerState& src = *pair[dir];
      PeerState& dst = *pair[1 - dir];
      const size_t levels = std::min(src.depth(), dst.depth());
      for (size_t level = 1; level <= levels; ++level) {
        for (PeerId r : src.RefsAt(level)) {
          if (dst.RefsAt(level).size() >= exchange_config_.refmax) break;
          if (IsLive(r) && SatisfiesRefProperty(dst, level, r) &&
              dst.AddRefAt(level, r)) {
            m.GetCounter("repair.recruitments")->Increment();
            ++tick->recruited;
          }
        }
      }
      // Replica membership gossip: buddy lists converge toward the full
      // replica group of the leaf, so recruitment's "responder plus buddies"
      // fan-out eventually sees every live replica.
      for (PeerId nb : src.buddies()) {
        if (nb != dst.id() && nb < grid_->size() && IsLive(nb) &&
            grid_->peer(nb).path() == dst.path()) {
          dst.AddBuddy(nb, exchange_config_.buddymax);
        }
      }
    }
  }
}

RepairTick RepairEngine::RejoinSync(PeerId peer) {
  while (suspicion_.size() < grid_->size()) {
    suspicion_.emplace_back(config_.suspicion_threshold, config_.slow_threshold);
  }
  RepairTick tick;
  if (!IsLive(peer)) return tick;
  grid_->metrics().GetCounter("repair.rejoin_syncs")->Increment();
  std::unordered_set<uint64_t> synced;
  SyncBuddies(grid_->peer(peer), &synced, &tick);
  return tick;
}

RepairTick RepairEngine::Tick() {
  ++rounds_;
  while (suspicion_.size() < grid_->size()) {
    suspicion_.emplace_back(config_.suspicion_threshold, config_.slow_threshold);
  }
  RepairTick tick;
  std::unordered_set<uint64_t> synced;
  for (PeerId id = 0; id < grid_->size(); ++id) {
    if (!IsLive(id)) continue;
    PeerState& peer = grid_->peer(id);
    ProbeAndEvict(peer, &tick);
    if (config_.recruit) RecruitReferences(peer, &tick);
    if (config_.anti_entropy) SyncBuddies(peer, &synced, &tick);
  }
  return tick;
}

RepairEngine::ReconcileOutcome RepairEngine::ReconcileUntilConverged(
    size_t max_rounds) {
  ReconcileOutcome out;
  obs::MetricsRegistry& m = grid_->metrics();
  for (size_t round = 0; round < max_rounds; ++round) {
    const RepairTick tick = Tick();
    m.GetCounter("repair.reconcile_rounds")->Increment();
    ++out.rounds;
    out.sync_sessions += tick.sync_sessions;
    out.entries_reconciled += tick.entries_reconciled;
    if (tick.syncs_diverged == 0) {
      out.converged = true;
      break;
    }
  }
  return out;
}

ReadRepairOutcome RepairEngine::ReadRepair(const KeyPath& key, ItemId item,
                                           const ReliableReadConfig& read_config) {
  ReadRepairOutcome out;
  obs::MetricsRegistry& m = grid_->metrics();
  std::vector<std::pair<PeerId, uint64_t>> answers;  // distinct responders
  for (size_t attempt = 0;
       attempt < read_config.max_attempts && answers.size() < read_config.quorum;
       ++attempt) {
    const std::optional<PeerId> start = search_->RandomOnlinePeer();
    if (!start.has_value()) break;
    const QueryResult r = search_->Query(*start, key);
    if (!r.found || !IsLive(r.responder)) continue;
    const auto seen = [&](const std::pair<PeerId, uint64_t>& a) {
      return a.first == r.responder;
    };
    if (std::find_if(answers.begin(), answers.end(), seen) != answers.end()) {
      continue;
    }
    answers.push_back(
        {r.responder, grid_->peer(r.responder).index().LatestVersionOf(item)});
  }
  if (answers.empty()) return out;

  // Majority decision; ties break toward the higher (newer) version.
  uint64_t best = 0;
  size_t best_votes = 0;
  for (const auto& [responder, version] : answers) {
    size_t votes = 0;
    for (const auto& other : answers) votes += other.second == version;
    if (votes > best_votes || (votes == best_votes && version > best)) {
      best = version;
      best_votes = votes;
    }
  }
  out.decided = answers.size() >= read_config.quorum;
  out.version = best;

  // The read doubles as repair: every responder that answered with a minority
  // version is patched to the majority one.
  for (const auto& [responder, version] : answers) {
    if (version == best) continue;
    ++out.stale_replicas;
    const uint64_t patched =
        grid_->peer(responder).index().ApplyVersion(item, best);
    if (patched == 0) continue;
    m.GetCounter("repair.read_repairs")->Increment();
    out.repaired_entries += patched;
  }
  return out;
}

}  // namespace repair
}  // namespace pgrid
