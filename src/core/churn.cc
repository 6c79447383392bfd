#include "core/churn.h"

#include "core/stats.h"
#include "util/macros.h"

namespace pgrid {

ChurnDriver::ChurnDriver(Grid* grid, ExchangeEngine* exchange,
                         MeetingScheduler* scheduler, OnlineModel* online, Rng* rng)
    : grid_(grid),
      exchange_(exchange),
      scheduler_(scheduler),
      online_(online),
      rng_(rng),
      dead_(grid->size(), 0),
      live_count_(grid->size()) {
  PGRID_CHECK(grid != nullptr && exchange != nullptr && scheduler != nullptr &&
              online != nullptr && rng != nullptr);
}

std::vector<PeerId> ChurnDriver::LivePeers() const {
  std::vector<PeerId> out;
  out.reserve(live_count_);
  for (PeerId p = 0; p < dead_.size(); ++p) {
    if (dead_[p] == 0) out.push_back(p);
  }
  return out;
}

PeerId ChurnDriver::RandomLivePeer() {
  PGRID_CHECK_GT(live_count_, 0u);
  while (true) {
    PeerId p = static_cast<PeerId>(rng_->UniformIndex(dead_.size()));
    if (dead_[p] == 0) return p;
  }
}

uint64_t ChurnDriver::Retire(PeerId peer, bool graceful) {
  PGRID_CHECK(dead_[peer] == 0);
  uint64_t handed = 0;
  if (graceful) {
    PeerState& leaving = grid_->peer(peer);
    if (!leaving.index().empty() || !leaving.foreign_entries().empty()) {
      // Prefer a live buddy (same path); otherwise any live co-responsible peer.
      PeerId heir = kInvalidPeer;
      auto eligible = [&](PeerId h) {
        return dead_[h] == 0 && (!heir_filter_ || heir_filter_(peer, h));
      };
      for (PeerId b : leaving.buddies()) {
        if (eligible(b)) {
          heir = b;
          break;
        }
      }
      if (heir == kInvalidPeer) {
        for (PeerId r : GridStats::ReplicasOf(*grid_, leaving.path())) {
          if (r != peer && eligible(r)) {
            heir = r;
            break;
          }
        }
      }
      if (heir != kInvalidPeer) {
        PeerState& target = grid_->peer(heir);
        leaving.index().ForEach([&target, &handed](const IndexEntry& e) {
          if (PathsOverlap(target.path(), e.key)) {
            if (target.index().InsertOrRefresh(e)) ++handed;
          } else {
            target.foreign_entries().push_back(e);
            ++handed;
          }
        });
        for (const IndexEntry& e : leaving.foreign_entries()) {
          target.foreign_entries().push_back(e);
          ++handed;
        }
        if (handed > 0) {
          grid_->metrics().GetCounter("churn.entries_handed_over")->Increment(handed);
          // One kControl message: the handover session.
          grid_->metrics().GetCounter("churn.handovers")->Increment();
        }
      }
    }
  }
  dead_[peer] = 1;
  --live_count_;
  online_->Pin(peer, false);
  return handed;
}

void ChurnDriver::Revive(PeerId peer) {
  PGRID_CHECK(dead_[peer] != 0);
  dead_[peer] = 0;
  ++live_count_;
  online_->Pin(peer, std::nullopt);
}

PeerId ChurnDriver::Join(size_t count, double online_prob) {
  const PeerId first = static_cast<PeerId>(grid_->size());
  if (count == 0) return first;
  // One batched grow for the whole wave: AddPeer() per joiner rebuilds the
  // grid's atomic load vector each time, turning mass joins quadratic.
  grid_->AddPeers(count);
  for (size_t i = 0; i < count; ++i) {
    online_->AddPeer(online_prob, rng_);
    dead_.push_back(0);
    ++live_count_;
  }
  scheduler_->SetNumPeers(grid_->size());
  return first;
}

ChurnRound ChurnDriver::Round(const ChurnConfig& config) {
  PGRID_CHECK(config.Validate().ok());
  ChurnRound round;

  const size_t crashes = static_cast<size_t>(
      static_cast<double>(live_count_) * config.crash_fraction);
  const size_t leaves = static_cast<size_t>(
      static_cast<double>(live_count_) * config.leave_fraction);
  const size_t joins = static_cast<size_t>(
      static_cast<double>(live_count_) * config.join_fraction);

  for (size_t i = 0; i < crashes && live_count_ > 2; ++i) {
    Retire(RandomLivePeer(), /*graceful=*/false);
    ++round.crashed;
  }
  for (size_t i = 0; i < leaves && live_count_ > 2; ++i) {
    round.handover_entries += Retire(RandomLivePeer(), /*graceful=*/true);
    ++round.left_gracefully;
  }
  Join(joins, config.join_online_prob);
  round.joined = joins;

  for (size_t m = 0; m < config.meetings_per_round; ++m) {
    Meeting meeting = scheduler_->Next(rng_);
    // Dead peers cannot meet; availability of live peers is handled inside the
    // exchange (recursion targets) and by the experiment's own online model.
    if (dead_[meeting.a] != 0 || dead_[meeting.b] != 0) continue;
    exchange_->Exchange(meeting.a, meeting.b);
    ++round.meetings;
  }

  round.live = live_count_;
  return round;
}

}  // namespace pgrid
