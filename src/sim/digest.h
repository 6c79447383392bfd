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
  void Bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
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
template <typename FoldHolder>
uint64_t IndexDigest(const LeafIndex& index, FoldHolder&& fold_holder) {
  uint64_t sum = index.size() * 0x9e3779b97f4a7c15ull;
  index.ForEach([&](const IndexEntry& e) {
    Digest d;
    fold_holder(d, e.holder);
    d.U64(e.item_id);
    d.Str(e.key.ToString());
    d.U64(e.version);
    sum += Mix64(d.value());
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
