// What changed in one PeerState since its last durable commit (docs/storage.md).
//
// The owner of a peer's state marks each slice at the point where it changes
// it: the path grew, a reference level was replaced, the buddy list or the
// foreign buffer changed, an index entry or a stored item was put or removed.
// PersistenceManager::Encode (storage/persist.h) turns the marks into one WAL
// record per marked slice, valued from the live state, so a commit costs
// O(delta) rather than O(state). A mark says only "look here": whether a key
// became a put or a delete is read off the live state at encode time, which
// is why marking a slice that did not change costs a record but loses
// nothing, and forgetting a mark loses that change.

#pragma once

#include <cstddef>
#include <vector>

#include "core/peer_state.h"
#include "sim/types.h"

namespace pgrid {
namespace storage {

/// One index entry's key.
struct IndexKey {
  PeerId holder = kInvalidPeer;
  ItemId item_id = 0;

  friend bool operator==(const IndexKey&, const IndexKey&) = default;
};

/// The slices of one PeerState marked as changed since its last commit.
class PeerDelta {
 public:
  /// A delta that records marks. `recording = false` gives one that ignores
  /// every mark, for an owner that has no store to commit to.
  explicit PeerDelta(bool recording = true) : recording_(recording) {}

  /// Every slice of `peer` marked: path, each reference level, buddies,
  /// foreign buffer, and every index key and stored item, the last two in the
  /// peer's own iteration order (so a replay inserts them in that order).
  static PeerDelta All(const PeerState& peer);

  void MarkPath() { path_ |= recording_; }
  /// Marks reference level `level` (1-indexed).
  void MarkRefs(size_t level);
  void MarkBuddies() { buddies_ |= recording_; }
  void MarkForeign() { foreign_ |= recording_; }
  void MarkIndex(PeerId holder, ItemId item_id) {
    if (recording_) index_.push_back(IndexKey{holder, item_id});
  }
  void MarkItem(ItemId id) {
    if (recording_) items_.push_back(id);
  }

  bool path() const { return path_; }
  bool refs(size_t level) const { return level < refs_.size() && refs_[level]; }
  bool buddies() const { return buddies_; }
  bool foreign() const { return foreign_; }
  /// Index keys and item ids in the order they were marked; a key marked
  /// twice appears twice.
  const std::vector<IndexKey>& index_keys() const { return index_; }
  const std::vector<ItemId>& items() const { return items_; }

  /// Forgets every mark (after a commit has encoded them).
  void Clear();

 private:
  bool recording_;
  bool path_ = false;
  std::vector<bool> refs_;  // refs_[level]; sized to the deepest marked level
  bool buddies_ = false;
  bool foreign_ = false;
  std::vector<IndexKey> index_;
  std::vector<ItemId> items_;
};

}  // namespace storage
}  // namespace pgrid
