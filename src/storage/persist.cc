#include "storage/persist.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "storage/crc32.h"
#include "storage/peer_codec.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace pgrid {
namespace storage {

namespace {

constexpr char kSnapMagic[4] = {'P', 'G', 'P', 'S'};
/// Version 2 added the name block ahead of the core block.
constexpr uint32_t kSnapVersion = 2;

/// WAL record types. Every record carries absolute state for its slice (full
/// path, full reference level, full buddy list, one whole entry/item, names at
/// absolute table positions), which is what makes replay idempotent -- see the
/// file comment in persist.h.
enum RecordType : uint8_t {
  kSetPath = 1,
  kSetRefs = 2,
  kSetBuddies = 3,
  kIndexPut = 4,
  kIndexDelete = 5,
  kSetForeign = 6,
  kStorePut = 7,
  kStoreDelete = 8,
  kAppendNames = 9,  // u32 first id + string list
};

/// Replays one record onto `peer` and its name table `names`. With
/// `check_ids`, every id the record names must be in the table.
Status ApplyRecord(std::string_view body, bool check_ids, PeerState* peer,
                   std::vector<std::string>* names) {
  net::ByteReader r(body);
  PGRID_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  const auto check = [&](uint64_t id) {
    if (!check_ids || id < names->size()) return Status::OK();
    return Status::InvalidArgument("WAL record names id " + std::to_string(id) +
                                   ", outside the name table");
  };
  switch (type) {
    case kSetPath: {
      PGRID_ASSIGN_OR_RETURN(KeyPath path, r.ReadKeyPath());
      // Paths only ever grow (core/peer_state.h); the record's path must
      // extend the state replayed so far. Anything else is corruption that
      // slipped past the CRC, which we refuse to apply.
      if (peer->path().length() > path.length() ||
          !peer->path().IsPrefixOf(path)) {
        return Status::InvalidArgument("kSetPath record does not extend path");
      }
      for (size_t i = peer->depth(); i < path.length(); ++i) {
        peer->AppendPathBit(path.bit(i));
      }
      break;
    }
    case kSetRefs: {
      PGRID_ASSIGN_OR_RETURN(uint32_t level, r.ReadU32());
      PGRID_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      if (level == 0 || level > peer->depth()) {
        return Status::InvalidArgument("kSetRefs level out of range");
      }
      if (count > net::kMaxWireCollection) {
        return Status::InvalidArgument("kSetRefs count too large");
      }
      std::vector<PeerId> refs;
      // Each id takes 4 bytes.
      refs.reserve(std::min<size_t>(count, r.remaining() / 4));
      for (uint32_t i = 0; i < count; ++i) {
        PGRID_ASSIGN_OR_RETURN(uint32_t ref, r.ReadU32());
        PGRID_RETURN_IF_ERROR(check(ref));
        refs.push_back(ref);
      }
      peer->SetRefsAt(level, std::move(refs));
      break;
    }
    case kSetBuddies: {
      PGRID_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      if (count > net::kMaxWireCollection) {
        return Status::InvalidArgument("kSetBuddies count too large");
      }
      peer->ClearBuddies();
      for (uint32_t i = 0; i < count; ++i) {
        PGRID_ASSIGN_OR_RETURN(uint32_t buddy, r.ReadU32());
        PGRID_RETURN_IF_ERROR(check(buddy));
        peer->AddBuddy(buddy);
      }
      break;
    }
    case kIndexPut: {
      PGRID_ASSIGN_OR_RETURN(IndexEntry e, ReadIndexEntry(&r));
      PGRID_RETURN_IF_ERROR(check(e.holder));
      // Exact put, not max-version refresh: the diff layer emits a record
      // whenever key OR version changed, including legal same-version key
      // rewrites, so replay must overwrite unconditionally.
      peer->index().Erase(e.holder, e.item_id);
      peer->index().InsertOrRefresh(e);
      break;
    }
    case kIndexDelete: {
      PGRID_ASSIGN_OR_RETURN(uint32_t holder, r.ReadU32());
      PGRID_ASSIGN_OR_RETURN(ItemId item, r.ReadU64());
      peer->index().Erase(holder, item);
      break;
    }
    case kSetForeign: {
      PGRID_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
      if (count > net::kMaxWireCollection) {
        return Status::InvalidArgument("kSetForeign count too large");
      }
      peer->foreign_entries().clear();
      for (uint32_t i = 0; i < count; ++i) {
        PGRID_ASSIGN_OR_RETURN(IndexEntry e, ReadIndexEntry(&r));
        PGRID_RETURN_IF_ERROR(check(e.holder));
        peer->foreign_entries().push_back(std::move(e));
      }
      break;
    }
    case kStorePut: {
      DataItem item;
      PGRID_ASSIGN_OR_RETURN(item.id, r.ReadU64());
      PGRID_ASSIGN_OR_RETURN(item.key, r.ReadKeyPath());
      PGRID_ASSIGN_OR_RETURN(item.payload, r.ReadString());
      PGRID_ASSIGN_OR_RETURN(item.version, r.ReadU64());
      peer->store().Upsert(std::move(item));
      break;
    }
    case kStoreDelete: {
      PGRID_ASSIGN_OR_RETURN(ItemId id, r.ReadU64());
      peer->store().Remove(id);
      break;
    }
    case kAppendNames: {
      PGRID_ASSIGN_OR_RETURN(uint32_t first, r.ReadU32());
      PGRID_ASSIGN_OR_RETURN(std::vector<std::string> added, r.ReadStringList());
      if (first > names->size()) {
        return Status::InvalidArgument("kAppendNames record leaves a gap in the table");
      }
      // Names the table already holds (a replay over the snapshot that folded
      // them in) must match; the rest extend it.
      for (size_t i = 0; i < added.size(); ++i) {
        if (first + i == names->size()) {
          names->push_back(std::move(added[i]));
        } else if ((*names)[first + i] != added[i]) {
          return Status::InvalidArgument("kAppendNames record renames an id");
        }
      }
      break;
    }
    default:
      return Status::InvalidArgument("unknown WAL record type " +
                                     std::to_string(type));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in WAL record");
  }
  return Status::OK();
}

struct IndexKeyHash {
  size_t operator()(const IndexKey& k) const {
    return std::hash<uint64_t>{}((static_cast<uint64_t>(k.holder) << 32) ^
                                 (k.item_id * 0x9e3779b97f4a7c15ull));
  }
};

/// Calls `fn` on each distinct key of `keys`, in the order of its first
/// appearance, and stops at the first error.
template <typename Key, typename Hash, typename Fn>
Status ForEachFirstMark(const std::vector<Key>& keys, Hash hash, Fn&& fn) {
  std::unordered_set<Key, Hash> seen(keys.size(), hash);
  for (const Key& key : keys) {
    if (!seen.insert(key).second) continue;
    PGRID_RETURN_IF_ERROR(fn(key));
  }
  return Status::OK();
}

}  // namespace

PersistenceManager::PersistenceManager(StorageConfig config, size_t maxl)
    : config_(std::move(config)), maxl_(maxl) {
  if (config_.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
  }
}

PersistenceManager::~PersistenceManager() = default;

std::string PersistenceManager::SnapshotPath(PeerId id) const {
  return config_.dir + "/peer-" + std::to_string(id) + ".snap";
}

std::string PersistenceManager::WalPath(PeerId id) const {
  return config_.dir + "/peer-" + std::to_string(id) + ".wal";
}

bool PersistenceManager::HasState(PeerId id) const {
  std::error_code ec;
  return std::filesystem::exists(SnapshotPath(id), ec);
}

Status PersistenceManager::WriteSnapshot(const PeerState& peer,
                                         const std::vector<std::string>& names) {
  net::ByteWriter w;
  w.WriteU32(kSnapVersion);
  w.WriteStringList(names);
  WritePeerCore(&w, peer);
  WritePeerStore(&w, peer.store());
  const std::string& body = w.data();

  // Atomic replace: write a tmp file, push it to stable storage if the sync
  // mode demands it, then rename over the old snapshot. A crash anywhere
  // leaves either the old snapshot or the new one, never a torn file.
  const std::string path = SnapshotPath(peer.id());
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + tmp + " for writing");
  bool ok = std::fwrite(kSnapMagic, 1, sizeof(kSnapMagic), f) == sizeof(kSnapMagic);
  ok = ok && std::fwrite(body.data(), 1, body.size(), f) == body.size();
  char crc[4];
  const uint32_t checksum = Crc32(body);
  for (int i = 0; i < 4; ++i) crc[i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
  ok = ok && std::fwrite(crc, 1, sizeof(crc), f) == sizeof(crc);
  ok = ok && std::fflush(f) == 0;
#ifndef _WIN32
  if (ok && config_.sync_mode == SyncMode::kFsync) ok = fsync(fileno(f)) == 0;
#endif
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("write of snapshot " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename of " + tmp + " failed");
  }
#ifndef _WIN32
  if (config_.sync_mode == SyncMode::kFsync) {
    // The rename is durable only once the directory entry is. Every caller
    // truncates the WAL next; without this sync an OS crash could bring back
    // the old snapshot next to an already empty WAL.
    const int dir = open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir < 0) return Status::Internal("cannot open " + config_.dir + " to sync it");
    const bool synced = fsync(dir) == 0;
    close(dir);
    if (!synced) return Status::Internal("fsync of " + config_.dir + " failed");
  }
#endif
  return Status::OK();
}

Result<PeerState> PersistenceManager::ReadSnapshot(
    PeerId id, bool check_ids, std::vector<std::string>* names) const {
  const std::string path = SnapshotPath(id);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, got);
  std::fclose(f);

  if (data.size() < sizeof(kSnapMagic) + 4 ||
      std::string_view(data.data(), 4) != std::string_view(kSnapMagic, 4)) {
    return Status::InvalidArgument(path + " is not a peer snapshot");
  }
  const std::string_view body(data.data() + 4, data.size() - 4 - 4);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<unsigned char>(data[data.size() - 4 + i]))
              << (8 * i);
  }
  // Unlike the WAL (whose torn tail is expected and truncated), a snapshot is
  // written atomically: a checksum mismatch means real corruption, and
  // guessing at a prefix would silently resurrect stale state.
  if (stored != Crc32(body)) {
    return Status::Internal(path + " failed checksum validation");
  }

  net::ByteReader r(body);
  PGRID_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kSnapVersion) {
    return Status::InvalidArgument("unsupported peer snapshot version " +
                                   std::to_string(version));
  }
  PGRID_ASSIGN_OR_RETURN(*names, r.ReadStringList());
  PeerState peer(id);
  PeerCoreBounds bounds;
  bounds.maxl = maxl_;
  bounds.peer_id_bound = static_cast<uint64_t>(kInvalidPeer);
  if (check_ids) bounds.peer_id_bound = bounds.holder_id_bound = names->size();
  PGRID_RETURN_IF_ERROR(ReadPeerCore(&r, bounds, &peer, nullptr));
  PGRID_RETURN_IF_ERROR(ReadPeerStore(&r, &peer.store()));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after peer snapshot payload");
  }
  return peer;
}

Status PersistenceManager::Attach(const PeerState& peer,
                                  const std::vector<std::string>& names) {
  if (!config_.enabled()) {
    return Status::FailedPrecondition("storage is not configured (empty dir)");
  }
  auto tracked = std::make_unique<Tracked>();
  tracked->names = names;
  PGRID_RETURN_IF_ERROR(WriteSnapshot(peer, names));
  PGRID_RETURN_IF_ERROR(
      tracked->wal.Open(WalPath(peer.id()), config_.sync_mode, /*truncate=*/true));
  tracked_[peer.id()] = std::move(tracked);
  return Status::OK();
}

Result<CommitBatch> PersistenceManager::Encode(const PeerState& peer,
                                               const PeerDelta& delta,
                                               const std::vector<std::string>& names) const {
  auto it = tracked_.find(peer.id());
  if (it == tracked_.end()) {
    return Status::FailedPrecondition("peer " + std::to_string(peer.id()) +
                                      " is not attached");
  }
  const std::vector<std::string>& persisted = it->second->names;
  CommitBatch batch;
  batch.id = peer.id();
  const auto emit = [&batch](const net::ByteWriter& w) { return batch.frames.Add(w.data()); };

  // New names first: every later record may use their ids.
  if (names.size() > persisted.size()) {
    batch.new_names.assign(names.begin() + static_cast<ptrdiff_t>(persisted.size()),
                           names.end());
    net::ByteWriter w;
    w.WriteU8(kAppendNames);
    w.WriteU32(static_cast<uint32_t>(persisted.size()));
    w.WriteStringList(batch.new_names);
    PGRID_RETURN_IF_ERROR(emit(w));
  }

  if (delta.path()) {
    net::ByteWriter w;
    w.WriteU8(kSetPath);
    w.WriteKeyPath(peer.path());
    PGRID_RETURN_IF_ERROR(emit(w));
  }
  for (size_t level = 1; level <= peer.depth(); ++level) {
    if (!delta.refs(level)) continue;
    const auto refs = peer.RefsAt(level);
    net::ByteWriter w;
    w.WriteU8(kSetRefs);
    w.WriteU32(static_cast<uint32_t>(level));
    w.WriteU32(static_cast<uint32_t>(refs.size()));
    for (PeerId r : refs) w.WriteU32(r);
    PGRID_RETURN_IF_ERROR(emit(w));
  }
  if (delta.buddies()) {
    net::ByteWriter w;
    w.WriteU8(kSetBuddies);
    w.WriteU32(static_cast<uint32_t>(peer.buddies().size()));
    for (PeerId b : peer.buddies()) w.WriteU32(b);
    PGRID_RETURN_IF_ERROR(emit(w));
  }

  PGRID_RETURN_IF_ERROR(ForEachFirstMark(
      delta.index_keys(), IndexKeyHash{}, [&](const IndexKey& key) -> Status {
        net::ByteWriter w;
        if (const IndexEntry* e = peer.index().Find(key.holder, key.item_id)) {
          w.WriteU8(kIndexPut);
          WriteIndexEntry(&w, *e);
        } else {
          w.WriteU8(kIndexDelete);
          w.WriteU32(key.holder);
          w.WriteU64(key.item_id);
        }
        return emit(w);
      }));

  if (delta.foreign()) {
    // The foreign buffer is a small parked list with arbitrary reorderings
    // (drains compact it), so it is rewritten whole.
    net::ByteWriter w;
    w.WriteU8(kSetForeign);
    w.WriteU32(static_cast<uint32_t>(peer.foreign_entries().size()));
    for (const IndexEntry& e : peer.foreign_entries()) WriteIndexEntry(&w, e);
    PGRID_RETURN_IF_ERROR(emit(w));
  }

  PGRID_RETURN_IF_ERROR(ForEachFirstMark(
      delta.items(), std::hash<ItemId>{}, [&](ItemId id) -> Status {
        net::ByteWriter w;
        if (const DataItem* item = peer.store().Get(id)) {
          w.WriteU8(kStorePut);
          w.WriteU64(item->id);
          w.WriteKeyPath(item->key);
          w.WriteString(item->payload);
          w.WriteU64(item->version);
        } else {
          w.WriteU8(kStoreDelete);
          w.WriteU64(id);
        }
        return emit(w);
      }));
  return batch;
}

Result<CommitInfo> PersistenceManager::Write(CommitBatch batch) {
  auto it = tracked_.find(batch.id);
  if (it == tracked_.end()) {
    return Status::FailedPrecondition("peer " + std::to_string(batch.id) +
                                      " is not attached");
  }
  Tracked& t = *it->second;
  CommitInfo info;
  if (t.resnapshot) {
    // The WAL may end in a torn frame or miss an earlier commit's records:
    // appending would not make this batch recoverable, rewriting the snapshot
    // from the live state does.
    info.compact_due = true;
    return info;
  }
  if (batch.frames.empty()) return info;
  const auto start = std::chrono::steady_clock::now();
  const Status written = t.wal.Append(batch.frames);
  info.write_ns = static_cast<uint64_t>(
      std::chrono::nanoseconds(std::chrono::steady_clock::now() - start).count());
  if (!written.ok()) {
    t.resnapshot = true;
    return written;
  }
  info.records = batch.frames.records();
  info.bytes = batch.frames.bytes().size();
  t.names.insert(t.names.end(), std::make_move_iterator(batch.new_names.begin()),
                 std::make_move_iterator(batch.new_names.end()));
  info.compact_due = config_.compact_every != 0 &&
                     ++t.commits_since_compact >= config_.compact_every;
  return info;
}

Result<CommitInfo> PersistenceManager::Commit(const PeerState& peer,
                                              const PeerDelta& delta,
                                              const std::vector<std::string>& names) {
  PGRID_ASSIGN_OR_RETURN(CommitBatch batch, Encode(peer, delta, names));
  PGRID_ASSIGN_OR_RETURN(CommitInfo info, Write(std::move(batch)));
  if (info.compact_due) {
    PGRID_RETURN_IF_ERROR(Compact(peer, names));
    info.compacted = true;
  }
  return info;
}

Status PersistenceManager::Compact(const PeerState& peer,
                                   const std::vector<std::string>& names) {
  auto it = tracked_.find(peer.id());
  if (it == tracked_.end()) {
    return Status::FailedPrecondition("peer " + std::to_string(peer.id()) +
                                      " is not attached");
  }
  Tracked& t = *it->second;
  // Snapshot first, truncate second: a crash between the two leaves a snapshot
  // plus a WAL whose records are already folded in -- harmless, because every
  // record is idempotent against the state it produced.
  Status s = WriteSnapshot(peer, names);
  if (s.ok()) s = t.wal.Open(WalPath(peer.id()), config_.sync_mode, /*truncate=*/true);
  if (!s.ok()) {
    t.resnapshot = true;
    return s;
  }
  t.names = names;
  t.commits_since_compact = 0;
  t.resnapshot = false;
  return Status::OK();
}

Result<PeerState> PersistenceManager::Recover(PeerId id,
                                              std::vector<std::string>* names) {
  // If we are still tracking this peer, its WalWriter may hold appended
  // records in the stdio buffer (SyncMode::kNone never flushes); push them to
  // the file so the read below sees everything committed so far.
  auto it = tracked_.find(id);
  if (it != tracked_.end() && it->second->wal.is_open()) {
    PGRID_RETURN_IF_ERROR(it->second->wal.Sync());
  }
  // Without a caller's table the ids go unchecked and the table is dropped.
  const bool check_ids = names != nullptr;
  std::vector<std::string> dropped;
  if (names == nullptr) names = &dropped;
  PGRID_ASSIGN_OR_RETURN(PeerState peer, ReadSnapshot(id, check_ids, names));
  Result<WalContents> wal = ReadWal(WalPath(id));
  if (!wal.ok()) {
    if (wal.status().code() == StatusCode::kNotFound) return peer;
    return wal.status();
  }
  for (const std::string& record : wal->records) {
    PGRID_RETURN_IF_ERROR(ApplyRecord(record, check_ids, &peer, names));
  }
  if (wal->torn_tail) {
    PGRID_RETURN_IF_ERROR(TruncateWal(WalPath(id), wal->valid_bytes));
  }
  return peer;
}

void PersistenceManager::Detach(PeerId id) { tracked_.erase(id); }

}  // namespace storage
}  // namespace pgrid
