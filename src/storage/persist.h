// Durable per-peer storage: compacted snapshot + WAL tail (docs/storage.md).
//
// PersistenceManager gives each attached peer two files under StorageConfig::dir:
//
//   peer-<id>.snap   canonical full-state snapshot ("PGPS" | u32 version |
//                    name block | core block | store block | u32 crc32(body)),
//                    written atomically (tmp file + rename)
//   peer-<id>.wal    CRC-framed delta records since that snapshot (storage/wal.h)
//
// The commit protocol is delta-based: the owner of the state marks what it
// changed in a PeerDelta (storage/peer_delta.h) where it changes it, and a
// commit encodes one typed record per marked slice (path growth, reference
// level or buddy replacement, index put/delete, foreign-buffer replacement,
// store put/delete), valued from the live state, then appends the whole
// commit to the WAL with one write. The manager keeps no copy of the state:
// a commit costs O(delta), and a full copy is made only to compact. A commit
// has two steps so a caller can hold its state lock for the first only:
// Encode (pure, O(delta)) and Write (the one write, no state needed).
// Commit() runs both back to back.
//
// A failed write may leave a torn frame at the WAL's tail, behind which
// nothing later would be recovered; a clean failure still drops that commit's
// records. Either way the next commit rewrites the snapshot from the live
// state and truncates the WAL -- the same path as a due compaction -- instead
// of appending.
//
// Every record is *idempotent* and carries absolute state (a kSetPath record
// holds the full path, not the appended bit; a kSetRefs record the full level),
// so replaying a WAL whose prefix was already folded into a snapshot -- the
// window a crash between snapshot rename and WAL truncation leaves behind --
// converges to the same state.
//
// Name tables. A simulated peer names other peers by their index in the grid.
// A networked node (net/node.h) names them by dense ids into its own address
// book, and persists that book as the peer's *name table*: an append-only list
// whose entry i is the transport address of id i. The table is written as a
// block ahead of the core block, and a commit that grew it appends one
// kAppendNames record before any record that uses the new ids. Recovery with a
// table checks every reference, buddy and holder id against it as it reads.
// Simulated peers pass no table: their name block is empty and their ids are
// not checked.
//
// Recovery sequence (Recover):
//   1. read + checksum the snapshot (a corrupt snapshot is a hard error: the
//      atomic rename means it was either fully written or never replaced);
//   2. replay the WAL's longest valid prefix in append order;
//   3. truncate the WAL's torn tail, if any, so future appends extend a clean
//      prefix.
//
// The idiom follows logos-core's consensus/persistence layering: one manager
// per state family over a shared store directory.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/peer_state.h"
#include "storage/peer_delta.h"
#include "storage/storage_config.h"
#include "storage/wal.h"
#include "util/result.h"

namespace pgrid {
namespace storage {

/// One commit, encoded and not yet written (PersistenceManager::Encode).
struct CommitBatch {
  PeerId id = kInvalidPeer;
  WalBatch frames;
  /// Names the batch appends to the persisted name table.
  std::vector<std::string> new_names;
};

/// What one commit did (for metrics, benches and tests; not a ledger).
struct CommitInfo {
  uint64_t records = 0;      ///< WAL records appended
  uint64_t bytes = 0;        ///< WAL bytes appended (frame headers included)
  uint64_t write_ns = 0;     ///< time spent in the WAL write
  bool compact_due = false;  ///< Write(): the caller should Compact() now
  bool compacted = false;    ///< Commit(): this commit compacted
};

/// Persists and recovers PeerState (see file comment for the protocol).
class PersistenceManager {
 public:
  /// `maxl` bounds recovered path lengths (snapshot validation).
  PersistenceManager(StorageConfig config, size_t maxl);
  ~PersistenceManager();

  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  /// Starts tracking `peer`: writes a full snapshot of its current state and
  /// name table (empty for a simulated peer, see file comment) and resets its
  /// WAL. Re-attaching an already-attached peer re-baselines it.
  Status Attach(const PeerState& peer, const std::vector<std::string>& names = {});

  /// Encodes one record per slice `delta` marks, valued from `peer`, into a
  /// batch for Write(). `names` is the peer's name table, which only ever
  /// grows: the names past the persisted ones go into one kAppendNames record
  /// ahead of the rest. Pure and O(delta); an index key or item id marked
  /// twice gives one record, in the order of its first mark. The peer must be
  /// attached.
  Result<CommitBatch> Encode(const PeerState& peer, const PeerDelta& delta,
                             const std::vector<std::string>& names = {}) const;

  /// Appends `batch` to its peer's WAL with one write. Sets compact_due when
  /// the caller should now Compact(): after StorageConfig::compact_every
  /// commits that wrote (0 = never), or, without writing the batch, when an
  /// earlier write or compaction of this peer failed.
  Result<CommitInfo> Write(CommitBatch batch);

  /// Encode + Write, then Compact(peer, names) if that is due.
  Result<CommitInfo> Commit(const PeerState& peer, const PeerDelta& delta,
                            const std::vector<std::string>& names = {});

  /// Rewrites the snapshot from `peer` and `names` and truncates the WAL.
  Status Compact(const PeerState& peer, const std::vector<std::string>& names = {});

  /// Rebuilds the peer's state from disk: snapshot, then WAL tail, then tail
  /// truncation. Works without a prior Attach in this process (restart path).
  /// With `names`, the recovered name table is stored there and every
  /// reference, buddy and holder id must be below its size; a store that names
  /// an id outside its table is rejected.
  Result<PeerState> Recover(PeerId id, std::vector<std::string>* names = nullptr);

  /// Stops tracking `id` in memory (WAL handle released). The on-disk files
  /// stay; a later Attach re-baselines them.
  void Detach(PeerId id);

  /// True iff a snapshot file for `id` exists on disk.
  bool HasState(PeerId id) const;

  bool IsAttached(PeerId id) const { return tracked_.count(id) != 0; }

  const StorageConfig& config() const { return config_; }

  std::string SnapshotPath(PeerId id) const;
  std::string WalPath(PeerId id) const;

 private:
  struct Tracked {
    WalWriter wal;
    std::vector<std::string> names;  // persisted name table
    uint64_t commits_since_compact = 0;
    bool resnapshot = false;  // a write failed: the WAL may miss records
  };

  Status WriteSnapshot(const PeerState& peer, const std::vector<std::string>& names);
  /// Reads the snapshot and its name table into `names`; ids are checked
  /// against the table iff `check_ids`.
  Result<PeerState> ReadSnapshot(PeerId id, bool check_ids,
                                 std::vector<std::string>* names) const;

  StorageConfig config_;
  size_t maxl_;
  std::unordered_map<PeerId, std::unique_ptr<Tracked>> tracked_;
};

}  // namespace storage
}  // namespace pgrid
