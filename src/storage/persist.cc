#include "storage/persist.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
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

bool SpanEquals(Span<PeerId> a, Span<PeerId> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

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
      refs.reserve(count);
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
  auto tracked = std::make_unique<Tracked>(peer.id());
  tracked->shadow = peer;
  tracked->names = names;
  PGRID_RETURN_IF_ERROR(WriteSnapshot(peer, names));
  PGRID_RETURN_IF_ERROR(
      tracked->wal.Open(WalPath(peer.id()), config_.sync_mode, /*truncate=*/true));
  tracked_[peer.id()] = std::move(tracked);
  return Status::OK();
}

Status PersistenceManager::AppendDelta(const PeerState& from,
                                       const std::vector<std::string>& from_names,
                                       const PeerState& to,
                                       const std::vector<std::string>& to_names,
                                       WalWriter* wal, uint64_t* records) {
  auto emit = [wal, records](const net::ByteWriter& w) -> Status {
    PGRID_RETURN_IF_ERROR(wal->Append(w.data()));
    ++*records;
    return Status::OK();
  };

  // New names first: every later record may use their ids.
  if (to_names.size() > from_names.size()) {
    net::ByteWriter w;
    w.WriteU8(kAppendNames);
    w.WriteU32(static_cast<uint32_t>(from_names.size()));
    w.WriteU32(static_cast<uint32_t>(to_names.size() - from_names.size()));
    for (size_t i = from_names.size(); i < to_names.size(); ++i) w.WriteString(to_names[i]);
    PGRID_RETURN_IF_ERROR(emit(w));
  }

  if (to.path() != from.path()) {
    net::ByteWriter w;
    w.WriteU8(kSetPath);
    w.WriteKeyPath(to.path());
    PGRID_RETURN_IF_ERROR(emit(w));
  }
  for (size_t level = 1; level <= to.depth(); ++level) {
    if (level <= from.depth() && SpanEquals(to.RefsAt(level), from.RefsAt(level))) {
      continue;
    }
    const auto refs = to.RefsAt(level);
    // A level the shadow did not have yet only needs a record if non-empty
    // (kSetPath replay already creates it empty).
    if (level > from.depth() && refs.empty()) continue;
    net::ByteWriter w;
    w.WriteU8(kSetRefs);
    w.WriteU32(static_cast<uint32_t>(level));
    w.WriteU32(static_cast<uint32_t>(refs.size()));
    for (PeerId r : refs) w.WriteU32(r);
    PGRID_RETURN_IF_ERROR(emit(w));
  }
  if (!SpanEquals(to.buddies(), from.buddies())) {
    net::ByteWriter w;
    w.WriteU8(kSetBuddies);
    w.WriteU32(static_cast<uint32_t>(to.buddies().size()));
    for (PeerId b : to.buddies()) w.WriteU32(b);
    PGRID_RETURN_IF_ERROR(emit(w));
  }

  Status index_status = Status::OK();
  to.index().ForEach([&](const IndexEntry& e) {
    if (!index_status.ok()) return;
    const IndexEntry* old = from.index().Find(e.holder, e.item_id);
    if (old != nullptr && old->version == e.version && old->key == e.key) return;
    net::ByteWriter w;
    w.WriteU8(kIndexPut);
    WriteIndexEntry(&w, e);
    index_status = emit(w);
  });
  PGRID_RETURN_IF_ERROR(index_status);
  from.index().ForEach([&](const IndexEntry& e) {
    if (!index_status.ok()) return;
    if (to.index().Find(e.holder, e.item_id) != nullptr) return;
    net::ByteWriter w;
    w.WriteU8(kIndexDelete);
    w.WriteU32(e.holder);
    w.WriteU64(e.item_id);
    index_status = emit(w);
  });
  PGRID_RETURN_IF_ERROR(index_status);

  const auto& new_foreign = to.foreign_entries();
  const auto& old_foreign = from.foreign_entries();
  bool foreign_changed = new_foreign.size() != old_foreign.size();
  for (size_t i = 0; !foreign_changed && i < new_foreign.size(); ++i) {
    foreign_changed = !(new_foreign[i] == old_foreign[i]);
  }
  if (foreign_changed) {
    // The foreign buffer is a small parked list with arbitrary reorderings
    // (drains compact it), so it is rewritten whole rather than diffed.
    net::ByteWriter w;
    w.WriteU8(kSetForeign);
    w.WriteU32(static_cast<uint32_t>(new_foreign.size()));
    for (const IndexEntry& e : new_foreign) WriteIndexEntry(&w, e);
    PGRID_RETURN_IF_ERROR(emit(w));
  }

  for (const auto& [id, item] : to.store()) {
    const DataItem* old = from.store().Get(id);
    if (old != nullptr && *old == item) continue;
    net::ByteWriter w;
    w.WriteU8(kStorePut);
    w.WriteU64(item.id);
    w.WriteKeyPath(item.key);
    w.WriteString(item.payload);
    w.WriteU64(item.version);
    PGRID_RETURN_IF_ERROR(emit(w));
  }
  for (const auto& [id, item] : from.store()) {
    if (to.store().Get(id) != nullptr) continue;
    net::ByteWriter w;
    w.WriteU8(kStoreDelete);
    w.WriteU64(id);
    PGRID_RETURN_IF_ERROR(emit(w));
  }
  return Status::OK();
}

Result<CommitInfo> PersistenceManager::Commit(const PeerState& peer,
                                              const std::vector<std::string>& names) {
  auto it = tracked_.find(peer.id());
  if (it == tracked_.end()) {
    return Status::FailedPrecondition("peer " + std::to_string(peer.id()) +
                                      " is not attached");
  }
  Tracked& t = *it->second;
  CommitInfo info;
  PGRID_RETURN_IF_ERROR(
      AppendDelta(t.shadow, t.names, peer, names, &t.wal, &info.records));
  if (info.records == 0) return info;
  t.shadow = peer;
  if (names.size() > t.names.size()) {
    t.names.insert(t.names.end(), names.begin() + t.names.size(), names.end());
  }
  if (config_.compact_every != 0 &&
      ++t.commits_since_compact >= config_.compact_every) {
    PGRID_RETURN_IF_ERROR(Compact(peer.id()));
    info.compacted = true;
  }
  return info;
}

Status PersistenceManager::Compact(PeerId id) {
  auto it = tracked_.find(id);
  if (it == tracked_.end()) {
    return Status::FailedPrecondition("peer " + std::to_string(id) +
                                      " is not attached");
  }
  Tracked& t = *it->second;
  // Snapshot first, truncate second: a crash between the two leaves a snapshot
  // plus a WAL whose records are already folded in -- harmless, because every
  // record is idempotent against the state it produced.
  PGRID_RETURN_IF_ERROR(WriteSnapshot(t.shadow, t.names));
  PGRID_RETURN_IF_ERROR(t.wal.Open(WalPath(id), config_.sync_mode, /*truncate=*/true));
  t.commits_since_compact = 0;
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
