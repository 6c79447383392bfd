#include "storage/peer_delta.h"

namespace pgrid {
namespace storage {

PeerDelta PeerDelta::All(const PeerState& peer) {
  PeerDelta delta;
  delta.path_ = true;
  delta.refs_.assign(peer.depth() + 1, true);
  delta.buddies_ = true;
  delta.foreign_ = true;
  delta.index_.reserve(peer.index().size());
  peer.index().ForEach(
      [&delta](const IndexEntry& e) { delta.index_.push_back({e.holder, e.item_id}); });
  delta.items_.reserve(peer.store().size());
  for (const auto& [id, item] : peer.store()) delta.items_.push_back(id);
  return delta;
}

void PeerDelta::MarkRefs(size_t level) {
  if (!recording_) return;
  if (refs_.size() <= level) refs_.resize(level + 1);
  refs_[level] = true;
}

void PeerDelta::Clear() {
  path_ = buddies_ = foreign_ = false;
  refs_.clear();
  index_.clear();
  items_.clear();
}

}  // namespace storage
}  // namespace pgrid
