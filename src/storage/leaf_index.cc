#include "storage/leaf_index.h"

#include <utility>

#include "util/macros.h"

namespace pgrid {

namespace {

/// Final avalanche of MurmurHash3; spreads the packed key across all bits so
/// the power-of-two mask below sees a well-mixed value.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

constexpr size_t kMinSlots = 8;

}  // namespace

size_t LeafIndex::HashKey(PeerId holder, ItemId item_id) {
  return static_cast<size_t>(Mix64((static_cast<uint64_t>(holder) << 32) ^
                                   (item_id * 0x9e3779b97f4a7c15ull)));
}

IndexEntry* LeafIndex::FindSlot(PeerId holder, ItemId item_id) {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  size_t i = HashKey(holder, item_id) & mask;
  while (true) {
    IndexEntry& slot = slots_[i];
    if (slot.holder == kEmptySlot) return nullptr;
    if (slot.holder == holder && slot.item_id == item_id) return &slot;
    i = (i + 1) & mask;
  }
}

void LeafIndex::Rehash(size_t min_slots) {
  size_t cap = kMinSlots;
  while (cap < min_slots) cap <<= 1;
  std::vector<IndexEntry> old = std::move(slots_);
  slots_.clear();
  slots_.resize(cap);  // default IndexEntry has holder == kEmptySlot
  tombstones_ = 0;
  const size_t mask = cap - 1;
  for (IndexEntry& e : old) {
    if (!IsLive(e)) continue;
    size_t i = HashKey(e.holder, e.item_id) & mask;
    while (slots_[i].holder != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = std::move(e);
  }
}

void LeafIndex::ReserveForInsert() {
  if (slots_.empty()) {
    Rehash(kMinSlots);
    return;
  }
  // Keep occupancy (live + tombstones) at or below 7/8 so probe chains stay
  // short. Growing rehashes by live count, which also sweeps tombstones; a
  // table dominated by tombstones rehashes at the same capacity.
  if ((size_ + tombstones_ + 1) * 8 > slots_.size() * 7) {
    Rehash(size_ * 2 >= kMinSlots ? size_ * 2 : kMinSlots);
  }
}

bool LeafIndex::InsertOrRefresh(const IndexEntry& entry, IndexEntry* replaced) {
  PGRID_CHECK_LT(entry.holder, kTombstoneSlot);
  if (IndexEntry* slot = FindSlot(entry.holder, entry.item_id)) {
    if (entry.version > slot->version) {
      if (replaced != nullptr) *replaced = *slot;
      slot->version = entry.version;
      slot->key = entry.key;
      return true;
    }
    return false;
  }
  ReserveForInsert();
  const size_t mask = slots_.size() - 1;
  size_t i = HashKey(entry.holder, entry.item_id) & mask;
  while (IsLive(slots_[i])) i = (i + 1) & mask;
  if (slots_[i].holder == kTombstoneSlot) --tombstones_;
  slots_[i] = entry;
  ++size_;
  return true;
}

const IndexEntry* LeafIndex::Find(PeerId holder, ItemId item_id) const {
  return FindSlot(holder, item_id);
}

bool LeafIndex::Erase(PeerId holder, ItemId item_id) {
  IndexEntry* slot = FindSlot(holder, item_id);
  if (slot == nullptr) return false;
  *slot = IndexEntry{};
  slot->holder = kTombstoneSlot;
  --size_;
  ++tombstones_;
  return true;
}

uint64_t LeafIndex::LatestVersionOf(ItemId item_id) const {
  uint64_t latest = 0;
  for (const IndexEntry& e : slots_) {
    if (IsLive(e) && e.item_id == item_id && e.version > latest) latest = e.version;
  }
  return latest;
}

size_t LeafIndex::ApplyVersion(ItemId item_id, uint64_t version) {
  size_t bumped = 0;
  for (IndexEntry& e : slots_) {
    if (IsLive(e) && e.item_id == item_id && e.version < version) {
      e.version = version;
      ++bumped;
    }
  }
  return bumped;
}

std::vector<IndexEntry> LeafIndex::ExtractNotMatching(const KeyPath& path) {
  std::vector<IndexEntry> out;
  for (IndexEntry& e : slots_) {
    if (!IsLive(e) || PathsOverlap(path, e.key)) continue;
    out.push_back(std::move(e));
    e = IndexEntry{};
    e.holder = kTombstoneSlot;
    --size_;
    ++tombstones_;
  }
  return out;
}

size_t LeafIndex::MergeFrom(const LeafIndex& other) {
  if (&other == this) return 0;
  size_t changed = 0;
  for (const IndexEntry& e : other.slots_) {
    if (IsLive(e) && InsertOrRefresh(e)) ++changed;
  }
  return changed;
}

std::vector<IndexEntry> LeafIndex::All() const {
  std::vector<IndexEntry> out;
  out.reserve(size_);
  ForEach([&out](const IndexEntry& e) { out.push_back(e); });
  return out;
}

size_t LeafIndex::ApproxMemoryBytes() const {
  size_t bytes = slots_.capacity() * sizeof(IndexEntry);
  for (const IndexEntry& e : slots_) {
    if (IsLive(e)) bytes += e.key.ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace pgrid
