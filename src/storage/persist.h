// Durable per-peer storage: compacted snapshot + WAL tail (docs/storage.md).
//
// PersistenceManager gives each attached peer two files under StorageConfig::dir:
//
//   peer-<id>.snap   canonical full-state snapshot ("PGPS" | u32 version |
//                    name block | core block | store block | u32 crc32(body)),
//                    written atomically (tmp file + rename)
//   peer-<id>.wal    CRC-framed delta records since that snapshot (storage/wal.h)
//
// The commit protocol is shadow-diff: the manager keeps a copy of each peer's
// last persisted state; Commit(peer) diffs the live peer against it and appends
// one typed record per logical change (path growth, reference-level or buddy
// replacement, index put/delete, foreign-buffer replacement, store put/delete).
// This keeps the engines persistence-oblivious -- no mutation hooks thread
// through the protocol code -- at the cost of one retained state copy per
// attached peer.
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
#include "storage/storage_config.h"
#include "storage/wal.h"
#include "util/result.h"

namespace pgrid {
namespace storage {

/// Counters one Commit() reports (for benches and tests; not a ledger).
struct CommitInfo {
  uint64_t records = 0;    ///< WAL records appended by this commit
  bool compacted = false;  ///< this commit triggered an automatic compaction
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

  /// Appends delta records for every difference between `peer` and its last
  /// persisted state. `names` is the peer's name table, which only ever grows:
  /// the names past the persisted ones go into one kAppendNames record ahead of
  /// the rest. Triggers a compaction after StorageConfig::compact_every commits
  /// (0 = never). The peer must be attached.
  Result<CommitInfo> Commit(const PeerState& peer,
                            const std::vector<std::string>& names = {});

  /// Rewrites the snapshot from the shadow state and truncates the WAL.
  Status Compact(PeerId id);

  /// Rebuilds the peer's state from disk: snapshot, then WAL tail, then tail
  /// truncation. Works without a prior Attach in this process (restart path).
  /// With `names`, the recovered name table is stored there and every
  /// reference, buddy and holder id must be below its size; a store that names
  /// an id outside its table is rejected.
  Result<PeerState> Recover(PeerId id, std::vector<std::string>* names = nullptr);

  /// Stops tracking `id` in memory (shadow copy and WAL handle released). The
  /// on-disk files stay; a later Attach re-baselines them.
  void Detach(PeerId id);

  /// True iff a snapshot file for `id` exists on disk.
  bool HasState(PeerId id) const;

  bool IsAttached(PeerId id) const { return tracked_.count(id) != 0; }

  const StorageConfig& config() const { return config_; }

  std::string SnapshotPath(PeerId id) const;
  std::string WalPath(PeerId id) const;

 private:
  struct Tracked {
    PeerState shadow;
    std::vector<std::string> names;  // persisted name table
    WalWriter wal;
    uint64_t commits_since_compact = 0;
    explicit Tracked(PeerId id) : shadow(id) {}
  };

  Status WriteSnapshot(const PeerState& peer, const std::vector<std::string>& names);
  /// Reads the snapshot and its name table into `names`; ids are checked
  /// against the table iff `check_ids`.
  Result<PeerState> ReadSnapshot(PeerId id, bool check_ids,
                                 std::vector<std::string>* names) const;

  /// Appends one record per difference between `from` (persisted) and `to`
  /// (live) to `wal`, starting with the names `to_names` has beyond
  /// `from_names`.
  Status AppendDelta(const PeerState& from, const std::vector<std::string>& from_names,
                     const PeerState& to, const std::vector<std::string>& to_names,
                     WalWriter* wal, uint64_t* records);

  StorageConfig config_;
  size_t maxl_;
  std::unordered_map<PeerId, std::unique_ptr<Tracked>> tracked_;
};

}  // namespace storage
}  // namespace pgrid
