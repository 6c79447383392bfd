// sim::IndexDigest folds each entry's key bits directly (sim::EntryTerm).
// These tests pin it bit for bit to the formula it replaced, which folded
// Str(key.ToString()), over keys that live inline (at most 64 bits) and on the
// heap, for the simulator's PeerId fold and the node's address fold. They also
// check that a running sum of the terms, the way PGridNode keeps it, equals
// the digest recomputed from the index.

#include "sim/digest.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace pgrid {
namespace sim {
namespace {

/// The per-entry fold before EntryTerm existed: the key went in as the
/// string KeyPath::ToString() builds.
template <typename FoldHolder>
uint64_t StringFoldDigest(const LeafIndex& index, FoldHolder&& fold_holder) {
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

const std::vector<std::string>& Addresses() {
  static const std::vector<std::string> names = {"node:0", "node:1", "10.0.0.7:7401",
                                                 "a-much-longer-host.example:65535"};
  return names;
}

void FoldPeerId(Digest& d, PeerId holder) { d.U64(holder); }
void FoldAddress(Digest& d, PeerId holder) { d.Str(Addresses()[holder]); }

/// A random index whose keys take every length in `lengths` in turn.
LeafIndex RandomIndex(Rng* rng, const std::vector<size_t>& lengths, size_t entries) {
  LeafIndex index;
  for (size_t i = 0; i < entries; ++i) {
    IndexEntry e;
    e.holder = static_cast<PeerId>(rng->UniformIndex(Addresses().size()));
    e.item_id = rng->UniformInt(0, 1000);
    e.key = KeyPath::Random(rng, lengths[i % lengths.size()]);
    e.version = rng->UniformInt(1, 9);
    index.InsertOrRefresh(e);
  }
  return index;
}

TEST(IndexDigestTest, EntryTermMatchesTheStringFoldForBothHolderFolds) {
  // 0 bits, the inline word's edges, and keys that spill to the heap.
  const std::vector<size_t> lengths = {0, 1, 15, 16, 63, 64, 65, 130};
  Rng rng(DeriveStreamSeed(7, 1));
  for (int trial = 0; trial < 20; ++trial) {
    const LeafIndex index = RandomIndex(&rng, lengths, 1 + rng.UniformIndex(60));
    EXPECT_EQ(IndexDigest(index), StringFoldDigest(index, FoldPeerId)) << trial;
    EXPECT_EQ(IndexDigest(index, FoldAddress), StringFoldDigest(index, FoldAddress))
        << trial;
  }
  for (size_t length : lengths) {
    const LeafIndex index = RandomIndex(&rng, {length}, 12);
    EXPECT_EQ(IndexDigest(index), StringFoldDigest(index, FoldPeerId)) << length;
    EXPECT_EQ(IndexDigest(index, FoldAddress), StringFoldDigest(index, FoldAddress))
        << length;
  }
  const LeafIndex empty;
  EXPECT_EQ(IndexDigest(empty), StringFoldDigest(empty, FoldPeerId));
}

TEST(IndexDigestTest, RunningSumOfTermsTracksInsertsRefreshesAndErases) {
  const auto term = [](const IndexEntry& e) {
    Digest d;
    FoldAddress(d, e.holder);
    return EntryTerm(d, e);
  };
  Rng rng(DeriveStreamSeed(7, 2));
  LeafIndex index;
  uint64_t terms = 0;
  for (int op = 0; op < 400; ++op) {
    IndexEntry e;
    e.holder = static_cast<PeerId>(rng.UniformIndex(Addresses().size()));
    e.item_id = rng.UniformInt(0, 30);
    if (rng.Bernoulli(0.25)) {
      if (const IndexEntry* old = index.Find(e.holder, e.item_id)) {
        terms -= term(*old);
        index.Erase(e.holder, e.item_id);
      }
    } else {
      e.key = KeyPath::Random(&rng, rng.UniformIndex(70));
      e.version = rng.UniformInt(1, 20);
      const size_t before = index.size();
      IndexEntry replaced;
      if (index.InsertOrRefresh(e, &replaced)) {
        if (index.size() == before) terms -= term(replaced);
        terms += term(e);
      }
    }
    ASSERT_EQ(SizeTerm(index.size()) + terms, IndexDigest(index, FoldAddress)) << op;
  }
}

}  // namespace
}  // namespace sim
}  // namespace pgrid
