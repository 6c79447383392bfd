// Per-peer P-Grid state (Sec. 2).
//
// Every peer maintains the sequence (p1, R1)(p2, R2)...(pn, Rn): its path p1...pn and,
// for each level i, a set Ri of references to peers whose path agrees on the first
// i-1 bits and has the complementary bit at position i. In addition a peer keeps the
// leaf-level index D (references to data items under its path), the data items it
// physically stores, and the buddy list of known same-path replicas.
//
// Levels are 1-indexed throughout, matching the paper: RefsAt(1) routes on the first
// bit, RefsAt(depth()) on the last.
//
// The containers are chosen for per-peer footprint at community sizes in the
// millions: the reference table is one pooled block (core/packed_refs.h), the
// buddy list a tight 1.25x-growth array (util/tight_vec.h), and reference
// lists are exposed as read-only spans over the pooled storage.

#pragma once

#include <cstddef>
#include <vector>

#include "core/packed_refs.h"
#include "key/key_path.h"
#include "sim/types.h"
#include "storage/data_store.h"
#include "storage/leaf_index.h"
#include "util/span.h"
#include "util/tight_vec.h"

namespace pgrid {

/// Complete protocol state of one peer.
class PeerState {
 public:
  explicit PeerState(PeerId id) : id_(id) {}

  PeerId id() const { return id_; }

  /// The path this peer is responsible for. Empty means the whole key space.
  const KeyPath& path() const { return path_; }

  /// Current path length n.
  size_t depth() const { return path_.length(); }

  /// Bit p_level of the path, 1-indexed. Requires 1 <= level <= depth().
  int PathBit(size_t level) const;

  /// References R_level, 1-indexed, as a read-only view into the pooled table.
  /// Requires 1 <= level <= depth(). Invalidated by any mutation of this peer's
  /// references; copy (ToVector) before mutating.
  Span<PeerId> RefsAt(size_t level) const;

  /// Replaces R_level wholesale.
  void SetRefsAt(size_t level, std::vector<PeerId> refs);

  /// Adds `peer` to R_level if not already present. Returns true if added.
  bool AddRefAt(size_t level, PeerId peer);

  /// Removes every occurrence of `peer` from R_level. Returns the number removed.
  size_t RemoveRefAt(size_t level, PeerId peer);

  /// Extends the path by one bit, creating an (initially empty) reference level.
  /// Paths only ever grow; references installed earlier therefore stay prefix-valid.
  void AppendPathBit(int bit);

  /// Known same-path replicas discovered during construction (Sec. 3, update
  /// strategy 3). Deduplicated; never contains this peer itself.
  Span<PeerId> buddies() const { return Span<PeerId>(buddies_.begin(), buddies_.size()); }

  /// Adds `peer` to the buddy list if absent. With max_buddies > 0 the list is
  /// capped: once full, further additions are refused (0 keeps the historical
  /// unbounded behavior). Returns true if added.
  bool AddBuddy(PeerId peer, size_t max_buddies = 0);
  void ClearBuddies() { buddies_.clear(); }

  /// Removes `peer` from the buddy list; the remaining buddies keep their order.
  /// Returns true if it was present.
  bool RemoveBuddy(PeerId peer);

  /// Leaf-level index D: references to data items under this peer's path.
  LeafIndex& index() { return index_; }
  const LeafIndex& index() const { return index_; }

  /// Data items this peer physically stores (it is the `holder` of their entries).
  DataStore& store() { return store_; }
  const DataStore& store() const { return store_; }

  /// Index entries this peer currently holds although their keys do not overlap its
  /// path (they could not yet be handed to a matching peer). Drained opportunistically
  /// during later exchanges; never silently dropped.
  TightVec<IndexEntry>& foreign_entries() { return foreign_; }
  const TightVec<IndexEntry>& foreign_entries() const { return foreign_; }

  /// Total routing references over all levels (storage-cost metric of Sec. 6).
  size_t TotalRefs() const { return refs_.total(); }

  /// Approximate heap bytes owned by this peer's protocol state: path words,
  /// reference lists, buddy list, leaf index, data store, and foreign buffer,
  /// all counted at container capacity. Excludes sizeof(*this) so Grid can sum
  /// footprints without double counting (Sec. 6's storage cost in bytes).
  size_t ApproxMemoryBytes() const;

 private:
  PeerId id_;
  KeyPath path_;
  PackedRefs refs_;  // level i (0-indexed) holds R_{i+1}
  TightVec<PeerId> buddies_;
  LeafIndex index_;
  DataStore store_;
  TightVec<IndexEntry> foreign_;
};

}  // namespace pgrid
