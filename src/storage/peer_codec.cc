#include "storage/peer_codec.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace pgrid {
namespace storage {

void WriteIndexEntry(net::ByteWriter* w, const IndexEntry& e) {
  w->WriteU32(e.holder);
  w->WriteU64(e.item_id);
  w->WriteKeyPath(e.key);
  w->WriteU64(e.version);
}

Result<IndexEntry> ReadIndexEntry(net::ByteReader* r) {
  IndexEntry e;
  PGRID_ASSIGN_OR_RETURN(uint32_t holder, r->ReadU32());
  e.holder = holder;
  PGRID_ASSIGN_OR_RETURN(e.item_id, r->ReadU64());
  PGRID_ASSIGN_OR_RETURN(e.key, r->ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(e.version, r->ReadU64());
  return e;
}

std::vector<IndexEntry> CanonicalEntries(const LeafIndex& index) {
  // All() iterates the index's hash table, whose order depends on insertion
  // history; sorting makes the encoding canonical, so save -> load -> save
  // round-trips byte-identically.
  std::vector<IndexEntry> entries = index.All();
  std::sort(entries.begin(), entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return std::tie(a.holder, a.item_id) <
                     std::tie(b.holder, b.item_id);
            });
  return entries;
}

void WritePeerCore(net::ByteWriter* w, const PeerState& peer) {
  w->WriteKeyPath(peer.path());
  for (size_t level = 1; level <= peer.depth(); ++level) {
    const auto refs = peer.RefsAt(level);
    w->WriteU32(static_cast<uint32_t>(refs.size()));
    for (PeerId r : refs) w->WriteU32(r);
  }
  w->WriteU32(static_cast<uint32_t>(peer.buddies().size()));
  for (PeerId b : peer.buddies()) w->WriteU32(b);
  const std::vector<IndexEntry> entries = CanonicalEntries(peer.index());
  w->WriteU32(static_cast<uint32_t>(entries.size()));
  for (const IndexEntry& e : entries) WriteIndexEntry(w, e);
  w->WriteU32(static_cast<uint32_t>(peer.foreign_entries().size()));
  for (const IndexEntry& e : peer.foreign_entries()) WriteIndexEntry(w, e);
}

Status ReadPeerCore(net::ByteReader* r, const PeerCoreBounds& bounds,
                    PeerState* peer, size_t* path_bits) {
  PGRID_ASSIGN_OR_RETURN(KeyPath peer_path, r->ReadKeyPath());
  if (peer_path.length() > bounds.maxl) {
    return Status::InvalidArgument("peer path exceeds maxl in snapshot");
  }
  for (size_t i = 0; i < peer_path.length(); ++i) {
    peer->AppendPathBit(peer_path.bit(i));
  }
  if (path_bits != nullptr) *path_bits = peer_path.length();
  for (size_t level = 1; level <= peer_path.length(); ++level) {
    PGRID_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32());
    if (count > bounds.peer_id_bound) {
      return Status::InvalidArgument("ref count too large");
    }
    std::vector<PeerId> refs;
    // Each id takes 4 bytes.
    refs.reserve(std::min<size_t>(count, r->remaining() / 4));
    for (uint32_t i = 0; i < count; ++i) {
      PGRID_ASSIGN_OR_RETURN(uint32_t ref, r->ReadU32());
      if (ref >= bounds.peer_id_bound) {
        return Status::InvalidArgument("ref id out of range");
      }
      refs.push_back(ref);
    }
    peer->SetRefsAt(level, std::move(refs));
  }
  PGRID_ASSIGN_OR_RETURN(uint32_t num_buddies, r->ReadU32());
  if (num_buddies > bounds.peer_id_bound) {
    return Status::InvalidArgument("buddy count too large");
  }
  for (uint32_t i = 0; i < num_buddies; ++i) {
    PGRID_ASSIGN_OR_RETURN(uint32_t buddy, r->ReadU32());
    if (buddy >= bounds.peer_id_bound) {
      return Status::InvalidArgument("buddy out of range");
    }
    peer->AddBuddy(buddy);
  }
  PGRID_ASSIGN_OR_RETURN(uint32_t num_entries, r->ReadU32());
  if (num_entries > net::kMaxWireCollection) {
    return Status::InvalidArgument("entry count too large");
  }
  for (uint32_t i = 0; i < num_entries; ++i) {
    PGRID_ASSIGN_OR_RETURN(IndexEntry e, ReadIndexEntry(r));
    if (e.holder >= bounds.holder_id_bound) {
      return Status::InvalidArgument("entry holder out of range");
    }
    peer->index().InsertOrRefresh(e);
  }
  PGRID_ASSIGN_OR_RETURN(uint32_t num_foreign, r->ReadU32());
  if (num_foreign > net::kMaxWireCollection) {
    return Status::InvalidArgument("foreign count too large");
  }
  for (uint32_t i = 0; i < num_foreign; ++i) {
    PGRID_ASSIGN_OR_RETURN(IndexEntry e, ReadIndexEntry(r));
    if (e.holder >= bounds.holder_id_bound) {
      return Status::InvalidArgument("foreign entry holder out of range");
    }
    peer->foreign_entries().push_back(std::move(e));
  }
  return Status::OK();
}

void WritePeerStore(net::ByteWriter* w, const DataStore& store) {
  std::vector<const DataItem*> items;
  items.reserve(store.size());
  for (const auto& [id, item] : store) items.push_back(&item);
  std::sort(items.begin(), items.end(),
            [](const DataItem* a, const DataItem* b) { return a->id < b->id; });
  w->WriteU32(static_cast<uint32_t>(items.size()));
  for (const DataItem* item : items) {
    w->WriteU64(item->id);
    w->WriteKeyPath(item->key);
    w->WriteString(item->payload);
    w->WriteU64(item->version);
  }
}

Status ReadPeerStore(net::ByteReader* r, DataStore* store) {
  PGRID_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32());
  if (count > net::kMaxWireCollection) {
    return Status::InvalidArgument("store item count too large");
  }
  for (uint32_t i = 0; i < count; ++i) {
    DataItem item;
    PGRID_ASSIGN_OR_RETURN(item.id, r->ReadU64());
    PGRID_ASSIGN_OR_RETURN(item.key, r->ReadKeyPath());
    PGRID_ASSIGN_OR_RETURN(item.payload, r->ReadString());
    PGRID_ASSIGN_OR_RETURN(item.version, r->ReadU64());
    store->Upsert(std::move(item));
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace pgrid
