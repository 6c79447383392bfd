// Canonical binary encoding of one peer's protocol state.
//
// Two writers share this codec: the whole-grid snapshot (snapshot/snapshot.h,
// PR 4) and the durable per-peer snapshot (storage/persist.h). Sharing it is
// what makes the durable snapshot *canonical* -- index entries are written
// sorted by (holder, item_id) and store items sorted by id, so
// save -> recover -> save round-trips byte-identically even though LeafIndex
// and DataStore iteration orders depend on mutation history
// (tests/recovery_test.cc pins this).
//
// Layout of the core block (exactly the per-peer block of the "PGRD" grid
// snapshot, byte for byte):
//
//   keypath path
//   per level 1..depth: u32 count, u32 ref ids
//   u32 buddy count, u32 buddy ids
//   u32 entry count, entries sorted by (holder, item_id)
//   u32 foreign count, foreign entries in buffer order
//
// The store block (durable snapshots only; the grid snapshot does not persist
// payloads):
//
//   u32 item count, items sorted by id: u64 id, keypath key, string payload,
//   u64 version

#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/peer_state.h"
#include "net/wire.h"
#include "storage/data_item.h"
#include "storage/data_store.h"
#include "storage/leaf_index.h"
#include "util/result.h"

namespace pgrid {
namespace storage {

/// One index entry: u32 holder, u64 item, keypath key, u64 version.
void WriteIndexEntry(net::ByteWriter* w, const IndexEntry& e);
Result<IndexEntry> ReadIndexEntry(net::ByteReader* r);

/// The index's entries in canonical order: sorted by (holder, item_id).
std::vector<IndexEntry> CanonicalEntries(const LeafIndex& index);

/// Writes the core block for `peer`.
void WritePeerCore(net::ByteWriter* w, const PeerState& peer);

/// Validation bounds for ReadPeerCore. Reference and buddy ids must be below
/// `peer_id_bound`, index and foreign-entry holders below `holder_id_bound`;
/// the path must not exceed `maxl` bits.
struct PeerCoreBounds {
  size_t maxl = 0;
  uint64_t peer_id_bound = 0;
  uint64_t holder_id_bound = std::numeric_limits<uint64_t>::max();
};

/// Reads one core block into `peer`, which must be freshly constructed (empty
/// path, no refs/buddies/entries). Returns the number of path bits installed
/// via `*path_bits` so the caller can keep Grid::AveragePathLength exact.
Status ReadPeerCore(net::ByteReader* r, const PeerCoreBounds& bounds,
                    PeerState* peer, size_t* path_bits);

/// Writes the store block (items sorted by id).
void WritePeerStore(net::ByteWriter* w, const DataStore& store);

/// Reads one store block into `store` (must be empty).
Status ReadPeerStore(net::ByteReader* r, DataStore* store);

}  // namespace storage
}  // namespace pgrid
