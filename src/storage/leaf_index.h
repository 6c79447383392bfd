// Leaf-level index entries (the paper's D ⊆ ADDR × K).
//
// At the leaf level a peer knows, for every key it is responsible for, which peers
// hold matching data items. LeafIndex manages that set: deduplicated insertion,
// version tracking for the update experiments, and the split/merge operations the
// construction algorithm performs when peers specialize or meet as replicas.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "key/key_path.h"
#include "sim/types.h"

namespace pgrid {

/// One index entry: "peer `holder` stores item `item_id` with key `key`".
/// `version` is the entry's view of the item version; stale entries are the root
/// cause of the consistency problem studied in Sec. 5.2.
struct IndexEntry {
  PeerId holder = kInvalidPeer;
  ItemId item_id = 0;
  KeyPath key;
  uint64_t version = 0;

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

/// Set of index entries held by one peer, keyed by (holder, item_id).
///
/// Stored as an open-addressed linear-probe table of IndexEntry slots (no
/// per-entry node allocations, no separate bucket array): the holder field
/// doubles as the empty/tombstone sentinel, so an empty index owns no heap at
/// all and a populated one is a single flat array. Iteration order is a
/// deterministic function of the insertion/erasure history; everything that
/// must be canonical (snapshots, digests) sorts or folds commutatively.
///
/// Slots are hashed by item id alone, so every entry of one item lies on one
/// chain: the run of slots from the item's home slot to the first empty one.
/// A lookup matches (holder, item_id) along that chain, and the per-item
/// operations walk it, tombstones included. Occupancy (live + tombstones)
/// stays at or below 7/8, so every chain ends.
///
/// Next to the table the index keeps the live slot indices sorted by key, a
/// permutation of 4 B per entry. KeyPath orders a prefix before its
/// extensions, so the keys that extend a key K form one run of it and each
/// proper prefix of K one more: a match is a binary search per run rather than
/// a scan of the table. Entries never move for the permutation's sake, and the
/// operations that answer from it hand entries over in slot order, the order
/// ForEach visits them in.
class LeafIndex {
 public:
  /// Inserts the entry, or refreshes key/version if (holder, item_id) is present
  /// with an older version. Returns true if anything changed. A refresh copies
  /// the entry as it was to `*replaced` if that is non-null. The holder must be
  /// a real peer id (the two topmost ids are reserved as slot sentinels).
  bool InsertOrRefresh(const IndexEntry& entry, IndexEntry* replaced = nullptr);

  /// Returns the entry for (holder, item_id), or nullptr.
  const IndexEntry* Find(PeerId holder, ItemId item_id) const;

  /// Removes the entry for (holder, item_id). Returns true if it was present.
  /// The durable layer replays index-delete WAL records through this.
  bool Erase(PeerId holder, ItemId item_id);

  /// Visits, in slot order, every entry whose key overlaps `key` (one is a
  /// prefix of the other): what a peer responsible for `key` answers. `fn`
  /// receives a const IndexEntry&. The index must not be mutated during the
  /// visit. Costs a binary search for the run of keys that extend `key`, one
  /// more for each proper-prefix length at or above the shortest key held,
  /// and a sort of the k hits: O(log n + k log k) when no key held is shorter
  /// than `key`.
  template <typename Fn>
  void ForEachOverlapping(const KeyPath& key, Fn&& fn) const {
    for (uint32_t slot : OverlappingSlots(key)) fn(slots_[slot]);
  }

  /// Visits every entry in slot order, without copying. `fn` receives a const
  /// IndexEntry&. The index must not be mutated during the visit.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // Live slots are gathered 64 at a time into a bit mask first: a table is
    // often about half full, where a branch on each slot's liveness would
    // mispredict on every other slot.
    for (size_t base = 0; base < slots_.size(); base += 64) {
      const size_t end = std::min(slots_.size(), base + 64);
      uint64_t live = 0;
      for (size_t i = base; i < end; ++i) live |= uint64_t{IsLive(slots_[i])} << (i - base);
      for (; live != 0; live &= live - 1) fn(slots_[base + std::countr_zero(live)]);
    }
  }

  /// Highest version among entries for item `item_id` (0 if none). Used by queries to
  /// answer "what is the current version of this item". Costs one walk of the
  /// item's chain.
  uint64_t LatestVersionOf(ItemId item_id) const;

  /// Applies `version` to every entry for item `item_id` that is older. Returns the
  /// number of entries bumped. Costs one walk of the item's chain.
  size_t ApplyVersion(ItemId item_id, uint64_t version);

  /// Removes and returns, in slot order, every entry whose key does not
  /// overlap `path` (neither is a prefix of the other). Used when a peer
  /// specializes its path and hands mismatching entries to the exchange
  /// partner. When every key extends `path` (the first and the last in key
  /// order do) it returns at once without allocating; otherwise it costs the
  /// runs of ForEachOverlapping plus O(n) to close the permutation's gaps.
  std::vector<IndexEntry> ExtractNotMatching(const KeyPath& path);

  /// Merges all of `other`'s entries into this index (used when replicas meet).
  /// Returns the number of entries inserted or refreshed.
  size_t MergeFrom(const LeafIndex& other);

  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }

  /// Approximate heap bytes owned: the flat slot array and the permutation at
  /// capacity, plus each entry key's own heap (zero for inline keys). Excludes
  /// sizeof(*this).
  size_t ApproxMemoryBytes() const;

  /// Snapshot of all entries (unordered).
  std::vector<IndexEntry> All() const;

 private:
  // The holder field of a slot distinguishes live entries from the two
  // sentinel states; real peer ids can never collide with either (a grid of
  // 2^32 - 2 peers is far beyond the 32-bit id space in practice).
  static constexpr PeerId kEmptySlot = kInvalidPeer;
  static constexpr PeerId kTombstoneSlot = kInvalidPeer - 1;

  static bool IsLive(const IndexEntry& e) {
    return e.holder != kEmptySlot && e.holder != kTombstoneSlot;
  }

  /// The home slot of every entry of `item_id`, before masking.
  static size_t HashItem(ItemId item_id);

  /// Returns the live slot holding (holder, item_id), or nullptr.
  IndexEntry* FindSlot(PeerId holder, ItemId item_id);
  const IndexEntry* FindSlot(PeerId holder, ItemId item_id) const {
    return const_cast<LeafIndex*>(this)->FindSlot(holder, item_id);
  }

  /// Calls fn(slot) for each live slot of item `item_id`, walking its chain
  /// in probe order. Defined in the .cc file, its only user.
  template <typename Fn>
  void ForEachOfItem(ItemId item_id, Fn&& fn) const;

  /// Slot indices of the entries whose keys overlap `key`, ascending.
  std::vector<uint32_t> OverlappingSlots(const KeyPath& key) const;

  /// Calls fn(first, last) for each run [first, last) of order_ positions
  /// whose keys overlap `key`, in ascending position order: an equal run for
  /// each proper prefix of `key` held, then the run of keys `key` is a prefix
  /// of. Defined in the .cc file, its only user.
  template <typename Fn>
  void ForEachOverlapRun(const KeyPath& key, Fn&& fn) const;

  /// Inserts live slot `slot` into order_ at its key's place.
  void AddToOrder(uint32_t slot);

  /// Removes live slot `slot` from order_.
  void RemoveFromOrder(uint32_t slot);

  /// Turns live slot `slot` into a tombstone. order_ must no longer hold it.
  void Tombstone(uint32_t slot);

  /// Re-buckets every live entry into a fresh table of at least `min_slots`
  /// slots (rounded up to a power of two), dropping tombstones. Entries are
  /// placed in old slot order and order_ is remapped to the new slots.
  void Rehash(size_t min_slots);

  /// Grows/cleans the table if inserting one more entry would push the
  /// occupied fraction (live + tombstones) above 7/8.
  void ReserveForInsert();

  std::vector<IndexEntry> slots_;  // size is a power of two (or zero when empty)
  std::vector<uint32_t> order_;    // the live slots sorted by key; size() is its size
  size_t tombstones_ = 0;          // erased slots awaiting the next rehash
  // No live key is shorter than this (lowered by inserts, recomputed by
  // Rehash): proper prefixes of a query below it are never looked up.
  uint32_t min_key_length_ = UINT32_MAX;
};

}  // namespace pgrid
