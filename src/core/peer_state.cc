#include "core/peer_state.h"

#include <utility>

#include "util/macros.h"

namespace pgrid {

int PeerState::PathBit(size_t level) const {
  PGRID_CHECK(level >= 1 && level <= depth());
  return path_.bit(level - 1);
}

Span<PeerId> PeerState::RefsAt(size_t level) const {
  PGRID_CHECK(level >= 1 && level <= refs_.depth());
  return refs_.At(level - 1);
}

void PeerState::SetRefsAt(size_t level, std::vector<PeerId> refs) {
  PGRID_CHECK(level >= 1 && level <= refs_.depth());
  refs_.Set(level - 1, refs.data(), refs.size());
}

bool PeerState::AddRefAt(size_t level, PeerId peer) {
  PGRID_CHECK(level >= 1 && level <= refs_.depth());
  return refs_.Add(level - 1, peer);
}

size_t PeerState::RemoveRefAt(size_t level, PeerId peer) {
  PGRID_CHECK(level >= 1 && level <= refs_.depth());
  return refs_.Remove(level - 1, peer);
}

void PeerState::AppendPathBit(int bit) {
  path_.PushBack(bit);
  refs_.AppendLevel();
}

bool PeerState::AddBuddy(PeerId peer, size_t max_buddies) {
  if (peer == id_) return false;
  for (PeerId b : buddies_) {
    if (b == peer) return false;
  }
  if (max_buddies > 0 && buddies_.size() >= max_buddies) return false;
  buddies_.push_back(peer);
  return true;
}

bool PeerState::RemoveBuddy(PeerId peer) {
  TightVec<PeerId> kept;
  for (PeerId b : buddies_) {
    if (b != peer) kept.push_back(b);
  }
  if (kept.size() == buddies_.size()) return false;
  buddies_ = std::move(kept);
  return true;
}

size_t PeerState::ApproxMemoryBytes() const {
  size_t bytes = path_.ApproxMemoryBytes();
  bytes += refs_.ApproxMemoryBytes();
  bytes += buddies_.ApproxMemoryBytes();
  bytes += index_.ApproxMemoryBytes();
  bytes += store_.ApproxMemoryBytes();
  bytes += foreign_.ApproxMemoryBytes();
  for (const IndexEntry& e : foreign_) bytes += e.key.ApproxMemoryBytes();
  return bytes;
}

}  // namespace pgrid
