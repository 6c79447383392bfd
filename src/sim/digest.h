// FNV-1a digest machinery shared by the deterministic-simulation harness.
//
// The scenario runner (sim/scenario.h) fingerprints final grid states to assert
// byte-identical replay, and the repair subsystem (repair/repair.h) compares
// per-leaf index summaries during buddy anti-entropy. Both fold state through
// the same primitives so "two replicas agree" and "two runs agree" mean the
// same thing: equal FNV-1a digests over a canonical byte stream.

#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/grid.h"
#include "storage/leaf_index.h"
#include "util/rng.h"

namespace pgrid {
namespace sim {

/// FNV-1a over the byte stream fed to it.
class Digest {
 public:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) Byte(p[i]);
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    char buf[20];
    snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return std::string(buf);
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The size term of IndexDigest: an index of `entries` entries adds this to
/// the sum of its entry terms.
inline uint64_t SizeTerm(size_t entries) { return entries * 0x9e3779b97f4a7c15ull; }

/// One entry's term of IndexDigest. `holder` has folded the entry's holder
/// already; the term goes on with the item id, the key -- its length, then one
/// '0'/'1' byte per bit, the bytes Str(key.ToString()) would fold, without
/// building the string -- and the version, and ends with Mix64.
inline uint64_t EntryTerm(Digest holder, const IndexEntry& e) {
  holder.U64(e.item_id);
  holder.U64(e.key.length());
  for (size_t i = 0; i < e.key.length(); ++i) {
    holder.Byte(static_cast<unsigned char>('0' + e.key.bit(i)));
  }
  holder.U64(e.version);
  return Mix64(holder.value());
}

/// Order-independent digest of one entry set: the sum of per-entry digests
/// (LeafIndex iteration order is unspecified, so the fold must commute). Two
/// replicas hold the same entries at the same versions iff their digests match;
/// this is the summary buddy anti-entropy exchanges before deciding whether a
/// reconciliation pass is needed.
///
/// Each per-entry FNV value is passed through Mix64 before summing. Raw FNV is
/// too linear for a commutative fold: the trailing version field enters as
/// (h ^ version) * p^8, so bumping the versions of two entries shifts their
/// digests by +/-delta amounts that cancel across the sum with probability
/// ~1/8 -- two visibly diverged replicas then compare "equal" and anti-entropy
/// never reconciles them. The finalizer makes such cancellation 2^-64.
///
/// `fold_holder(Digest&, PeerId)` folds an entry's holder. The simulator folds
/// the PeerId itself; a networked node folds the holder's transport address,
/// so its digests compare equal across nodes whose id tables differ.
///
/// The digest is SizeTerm(n) plus one EntryTerm per entry, so whoever changes
/// an index can keep its digest as a running sum instead: add a term on
/// insert, subtract it on removal, both on a refresh (PGridNode does).
template <typename FoldHolder>
uint64_t IndexDigest(const LeafIndex& index, FoldHolder&& fold_holder) {
  uint64_t sum = SizeTerm(index.size());
  index.ForEach([&](const IndexEntry& e) {
    Digest d;
    fold_holder(d, e.holder);
    sum += EntryTerm(d, e);
  });
  return sum;
}

inline uint64_t IndexDigest(const LeafIndex& index) {
  return IndexDigest(index, [](Digest& d, PeerId holder) { d.U64(holder); });
}

/// Digest of the full structural state of a grid: paths, per-level references,
/// buddies, leaf indexes, parked foreign entries. Deterministic runs produce
/// equal grids iff they produce equal digests (modulo hash collisions).
inline uint64_t GridStateDigest(const Grid& grid) {
  Digest d;
  d.U64(grid.size());
  for (const PeerState& p : grid) {
    d.Str(p.path().ToString());
    for (size_t level = 1; level <= p.depth(); ++level) {
      const auto refs = p.RefsAt(level);
      d.U64(refs.size());
      for (PeerId r : refs) d.U64(r);
    }
    d.U64(p.buddies().size());
    for (PeerId b : p.buddies()) d.U64(b);
    d.U64(p.index().size());
    d.U64(IndexDigest(p.index()));
    d.U64(p.foreign_entries().size());
  }
  return d.value();
}

}  // namespace sim
}  // namespace pgrid
