#include "storage/leaf_index.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace pgrid {

namespace {

/// Final avalanche of MurmurHash3; spreads the item id across all bits so the
/// power-of-two mask below sees a well-mixed value.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

constexpr size_t kMinSlots = 8;

/// For std::lower_bound over a permutation of slot indices: does `slot`'s key
/// order before `key`?
struct SlotKeyBefore {
  const std::vector<IndexEntry>* slots;
  bool operator()(uint32_t slot, const KeyPath& key) const {
    return (*slots)[slot].key < key;
  }
};

}  // namespace

size_t LeafIndex::HashItem(ItemId item_id) {
  return static_cast<size_t>(Mix64(item_id));
}

IndexEntry* LeafIndex::FindSlot(PeerId holder, ItemId item_id) {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  size_t i = HashItem(item_id) & mask;
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
  PGRID_CHECK_LE(cap, size_t{UINT32_MAX});  // order_ holds slot indices as uint32_t
  std::vector<IndexEntry> old = std::move(slots_);
  slots_.clear();
  slots_.resize(cap);  // default IndexEntry has holder == kEmptySlot
  tombstones_ = 0;
  min_key_length_ = UINT32_MAX;
  // Where each old slot's entry lands, so that order_ keeps its key order.
  std::vector<uint32_t> moved_to(old.size());
  const size_t mask = cap - 1;
  for (size_t old_slot = 0; old_slot < old.size(); ++old_slot) {
    IndexEntry& e = old[old_slot];
    if (!IsLive(e)) continue;
    size_t i = HashItem(e.item_id) & mask;
    while (slots_[i].holder != kEmptySlot) i = (i + 1) & mask;
    min_key_length_ = std::min(min_key_length_, static_cast<uint32_t>(e.key.length()));
    slots_[i] = std::move(e);
    moved_to[old_slot] = static_cast<uint32_t>(i);
  }
  for (uint32_t& slot : order_) slot = moved_to[slot];
  // The table rehashes again before its live entries pass 7/8 of it.
  order_.reserve(cap / 8 * 7);
}

void LeafIndex::ReserveForInsert() {
  if (slots_.empty()) {
    Rehash(kMinSlots);
    return;
  }
  // Keep occupancy (live + tombstones) at or below 7/8 so probe chains stay
  // short. Growing rehashes by live count, which also sweeps tombstones; a
  // table dominated by tombstones rehashes at the same capacity.
  if ((size() + tombstones_ + 1) * 8 > slots_.size() * 7) {
    Rehash(size() * 2 >= kMinSlots ? size() * 2 : kMinSlots);
  }
}

bool LeafIndex::InsertOrRefresh(const IndexEntry& entry, IndexEntry* replaced) {
  PGRID_CHECK_LT(entry.holder, kTombstoneSlot);
  if (IndexEntry* slot = FindSlot(entry.holder, entry.item_id)) {
    if (entry.version > slot->version) {
      if (replaced != nullptr) *replaced = *slot;
      slot->version = entry.version;
      if (slot->key != entry.key) {
        // A new key is a new place in key order.
        const auto s = static_cast<uint32_t>(slot - slots_.data());
        RemoveFromOrder(s);
        slot->key = entry.key;
        AddToOrder(s);
      }
      return true;
    }
    return false;
  }
  ReserveForInsert();
  const size_t mask = slots_.size() - 1;
  size_t i = HashItem(entry.item_id) & mask;
  while (IsLive(slots_[i])) i = (i + 1) & mask;
  if (slots_[i].holder == kTombstoneSlot) --tombstones_;
  slots_[i] = entry;
  AddToOrder(static_cast<uint32_t>(i));
  return true;
}

const IndexEntry* LeafIndex::Find(PeerId holder, ItemId item_id) const {
  return FindSlot(holder, item_id);
}

bool LeafIndex::Erase(PeerId holder, ItemId item_id) {
  IndexEntry* slot = FindSlot(holder, item_id);
  if (slot == nullptr) return false;
  const auto s = static_cast<uint32_t>(slot - slots_.data());
  RemoveFromOrder(s);
  Tombstone(s);
  return true;
}

void LeafIndex::AddToOrder(uint32_t slot) {
  const KeyPath& key = slots_[slot].key;
  order_.insert(std::lower_bound(order_.begin(), order_.end(), key, SlotKeyBefore{&slots_}),
                slot);
  min_key_length_ = std::min(min_key_length_, static_cast<uint32_t>(key.length()));
}

void LeafIndex::RemoveFromOrder(uint32_t slot) {
  // Entries with equal keys sit side by side in no particular order.
  auto it = std::lower_bound(order_.begin(), order_.end(), slots_[slot].key,
                             SlotKeyBefore{&slots_});
  while (*it != slot) ++it;
  order_.erase(it);
}

void LeafIndex::Tombstone(uint32_t slot) {
  slots_[slot] = IndexEntry{};
  slots_[slot].holder = kTombstoneSlot;
  ++tombstones_;
}

template <typename Fn>
void LeafIndex::ForEachOverlapRun(const KeyPath& key, Fn&& fn) const {
  const auto begin = order_.begin();
  // A key that orders at or after `key` and before some extension of `key`
  // extends it too, so the extensions (`key` itself included) are one run.
  const auto ext_first = std::lower_bound(begin, order_.end(), key, SlotKeyBefore{&slots_});
  const auto ext_last = std::partition_point(
      ext_first, order_.end(), [&](uint32_t slot) { return key.IsPrefixOf(slots_[slot].key); });
  // Each proper prefix of `key` orders before it, a shorter one before a
  // longer one, so each search starts where the last run ended.
  auto from = begin;
  for (size_t len = min_key_length_; len < key.length(); ++len) {
    const KeyPath prefix = key.Prefix(len);
    const auto first = std::lower_bound(from, ext_first, prefix, SlotKeyBefore{&slots_});
    from = std::partition_point(
        first, ext_first, [&](uint32_t slot) { return slots_[slot].key == prefix; });
    if (first != from) fn(first - begin, from - begin);
  }
  if (ext_first != ext_last) fn(ext_first - begin, ext_last - begin);
}

std::vector<uint32_t> LeafIndex::OverlappingSlots(const KeyPath& key) const {
  std::vector<uint32_t> hits;
  ForEachOverlapRun(key, [&](size_t first, size_t last) {
    hits.insert(hits.end(), order_.begin() + first, order_.begin() + last);
  });
  std::sort(hits.begin(), hits.end());
  return hits;
}

template <typename Fn>
void LeafIndex::ForEachOfItem(ItemId item_id, Fn&& fn) const {
  if (slots_.empty()) return;
  const size_t mask = slots_.size() - 1;
  // A tombstone keeps the chain going: entries placed past it before it was
  // erased are still on the chain.
  for (size_t i = HashItem(item_id) & mask; slots_[i].holder != kEmptySlot; i = (i + 1) & mask) {
    if (slots_[i].holder != kTombstoneSlot && slots_[i].item_id == item_id) fn(i);
  }
}

uint64_t LeafIndex::LatestVersionOf(ItemId item_id) const {
  uint64_t latest = 0;
  ForEachOfItem(item_id, [&](size_t i) { latest = std::max(latest, slots_[i].version); });
  return latest;
}

size_t LeafIndex::ApplyVersion(ItemId item_id, uint64_t version) {
  size_t bumped = 0;
  ForEachOfItem(item_id, [&](size_t i) {
    if (slots_[i].version < version) {
      slots_[i].version = version;
      ++bumped;
    }
  });
  return bumped;
}

std::vector<IndexEntry> LeafIndex::ExtractNotMatching(const KeyPath& path) {
  // The keys that extend `path` are one run of key order: if the first key
  // and the last both extend it, every key does and nothing leaves.
  if (order_.empty() || (path.IsPrefixOf(slots_[order_.front()].key) &&
                         path.IsPrefixOf(slots_[order_.back()].key))) {
    return {};
  }
  std::vector<std::pair<size_t, size_t>> stay;
  ForEachOverlapRun(path, [&stay](size_t first, size_t last) { stay.emplace_back(first, last); });
  // The gaps between the runs that stay leave; the runs close up at the front.
  std::vector<uint32_t> leaving;
  size_t kept = 0;
  size_t next = 0;
  for (const auto& [first, last] : stay) {
    leaving.insert(leaving.end(), order_.begin() + next, order_.begin() + first);
    if (kept != first) {  // std::copy may not write onto its own source
      std::copy(order_.begin() + first, order_.begin() + last, order_.begin() + kept);
    }
    kept += last - first;
    next = last;
  }
  leaving.insert(leaving.end(), order_.begin() + next, order_.end());
  order_.resize(kept);
  std::sort(leaving.begin(), leaving.end());
  std::vector<IndexEntry> out;
  out.reserve(leaving.size());
  for (uint32_t slot : leaving) {
    out.push_back(std::move(slots_[slot]));
    Tombstone(slot);
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
  out.reserve(size());
  ForEach([&out](const IndexEntry& e) { out.push_back(e); });
  return out;
}

size_t LeafIndex::ApproxMemoryBytes() const {
  size_t bytes = slots_.capacity() * sizeof(IndexEntry) + order_.capacity() * sizeof(uint32_t);
  for (const IndexEntry& e : slots_) {
    if (IsLive(e)) bytes += e.key.ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace pgrid
