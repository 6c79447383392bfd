#include "core/insert.h"

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/stats.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

DataItem Item(ItemId id, const KeyPath& key) {
  DataItem item;
  item.id = id;
  item.key = key;
  item.payload = "p" + std::to_string(id);
  item.version = 1;
  return item;
}

UpdateConfig Propagation(size_t recbreadth, size_t repetition) {
  UpdateConfig cfg;
  cfg.recbreadth = recbreadth;
  cfg.repetition = repetition;
  return cfg;
}

TEST(InsertTest, InsertedItemsAreSearchableFullyOnline) {
  auto built = testing_util::Build(256, 4, 3, 2, 1);
  Rng rng(2);
  InsertEngine insert(built.grid.get(), nullptr, &rng);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  size_t found = 0;
  const size_t items = 100;
  for (ItemId id = 1; id <= items; ++id) {
    DataItem item = Item(id, KeyPath::Random(&rng, 10));
    PeerId holder = static_cast<PeerId>(rng.UniformIndex(256));
    auto outcome = insert.Insert(item, holder, Propagation(4, 2));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_GT(outcome->replicas_reached, 0u);
    // The holder physically stores the item.
    EXPECT_NE(built.grid->peer(holder).store().Get(id), nullptr);

    QueryResult q = search.Query(static_cast<PeerId>(rng.UniformIndex(256)),
                                 item.key);
    ASSERT_TRUE(q.found);
    if (built.grid->peer(q.responder).index().Find(holder, id) != nullptr) ++found;
  }
  // Fully online with fan-out 4 x 2 restarts, nearly every lookup should hit an
  // informed replica on the first try.
  EXPECT_GT(found, items * 8 / 10);
}

TEST(InsertTest, EntriesOnlyLandOnCoResponsiblePeers) {
  auto built = testing_util::Build(128, 4, 3, 2, 3);
  Rng rng(4);
  InsertEngine insert(built.grid.get(), nullptr, &rng);
  DataItem item = Item(7, KeyPath::Random(&rng, 8));
  ASSERT_TRUE(insert.Insert(item, 5, Propagation(8, 3)).ok());
  for (const PeerState& p : *built.grid) {
    if (p.index().Find(5, 7) != nullptr) {
      EXPECT_TRUE(PathsOverlap(p.path(), item.key))
          << "peer " << p.id() << " (path " << p.path() << ") wrongly indexes";
    }
  }
}

TEST(InsertTest, CoverageGrowsWithPropagationEffort) {
  auto built = testing_util::Build(512, 5, 4, 2, 5);
  double weak_total = 0, strong_total = 0;
  for (int t = 0; t < 20; ++t) {
    Rng rng(100 + t);
    InsertEngine insert(built.grid.get(), nullptr, &rng);
    KeyPath key = KeyPath::Random(&rng, 10);
    auto weak = insert.Insert(Item(1000 + t, key), 0, Propagation(1, 1));
    auto strong = insert.Insert(Item(2000 + t, key), 0, Propagation(4, 3));
    if (weak.ok()) weak_total += static_cast<double>(weak->replicas_reached);
    if (strong.ok()) strong_total += static_cast<double>(strong->replicas_reached);
  }
  EXPECT_GT(strong_total, weak_total);
}

TEST(InsertTest, FailsGracefullyWhenNetworkDown) {
  auto built = testing_util::Build(64, 3, 2, 2, 6);
  Rng rng(7);
  OnlineModel offline(OnlineMode::kSnapshot, 64, 0.0, &rng);
  InsertEngine insert(built.grid.get(), &offline, &rng);
  DataItem item = Item(9, KeyPath::Random(&rng, 8));
  // Pick a holder that is NOT co-responsible so local indexing can't save it.
  PeerId holder = 0;
  for (PeerId p = 0; p < 64; ++p) {
    if (!PathsOverlap(built.grid->peer(p).path(), item.key)) {
      holder = p;
      break;
    }
  }
  auto outcome = insert.Insert(item, holder, Propagation(2, 2));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  // The item is still stored locally for a later retry.
  EXPECT_NE(built.grid->peer(holder).store().Get(9), nullptr);
}

TEST(InsertTest, InstalledEntriesAreCountedAsDataTransfer) {
  // Every index entry an insert installs at a reached replica is one kDataTransfer
  // message; the propagation itself is breadth-first, so its reported messages
  // are all kUpdate.
  auto built = testing_util::Build(256, 4, 3, 2, 1);
  Rng rng(3);
  InsertEngine insert(built.grid.get(), nullptr, &rng);
  const auto index_entries = [&built] {
    uint64_t sum = 0;
    for (const PeerState& p : *built.grid) sum += p.index().size();
    return sum;
  };
  const MessageStats before = built.grid->stats();
  const uint64_t entries_before = index_entries();
  uint64_t reached = 0;
  uint64_t messages = 0;
  for (ItemId id = 1; id <= 30; ++id) {
    const DataItem item = Item(id, KeyPath::Random(&rng, 10));
    // A holder that is not co-responsible, so no entry is indexed for free.
    PeerId holder = 0;
    while (PathsOverlap(built.grid->peer(holder).path(), item.key)) ++holder;
    auto outcome = insert.Insert(item, holder, Propagation(2, 2));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    reached += outcome->replicas_reached;
    messages += outcome->messages;
  }
  const MessageStats after = built.grid->stats();
  const uint64_t transferred = after.count(MessageType::kDataTransfer) -
                               before.count(MessageType::kDataTransfer);
  EXPECT_GT(transferred, 0u);
  EXPECT_EQ(transferred, index_entries() - entries_before);
  EXPECT_EQ(transferred, reached);  // fresh items: every reached replica installs
  EXPECT_EQ(after.count(MessageType::kUpdate) - before.count(MessageType::kUpdate),
            messages);
}

TEST(InsertTest, HolderIndexesLocallyWhenCoResponsible) {
  auto built = testing_util::Build(64, 3, 2, 2, 8);
  Rng rng(9);
  InsertEngine insert(built.grid.get(), nullptr, &rng);
  // Choose a key under the holder's own path.
  PeerId holder = 3;
  KeyPath key = built.grid->peer(holder).path().Concat(KeyPath::Random(&rng, 5));
  ASSERT_TRUE(insert.Insert(Item(11, key), holder, Propagation(2, 1)).ok());
  EXPECT_NE(built.grid->peer(holder).index().Find(holder, 11), nullptr);
}

TEST(SearchRangeTest, RangeSearchFindsItemsInRange) {
  auto built = testing_util::Build(256, 4, 3, 2, 10);
  Rng rng(11);
  // Install items at all replicas for determinism.
  const size_t keylen = 8;
  std::set<ItemId> in_range;
  const KeyPath lo = KeyPath::FromUint64(40, keylen);
  const KeyPath hi = KeyPath::FromUint64(170, keylen);
  for (ItemId id = 1; id <= 60; ++id) {
    KeyPath key = KeyPath::Random(&rng, keylen);
    uint64_t v = 0;
    for (size_t i = 0; i < keylen; ++i) v = (v << 1) | static_cast<uint64_t>(key.bit(i));
    if (v >= 40 && v <= 170) in_range.insert(id);
    IndexEntry e;
    e.holder = 1;
    e.item_id = id;
    e.key = key;
    e.version = 1;
    for (PeerState& p : *built.grid) {
      if (PathsOverlap(p.path(), key)) p.index().InsertOrRefresh(e);
    }
  }
  SearchEngine search(built.grid.get(), nullptr, &rng);
  auto result = search.RangeSearch(0, lo, hi, /*fanout=*/8);
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<ItemId> found;
  for (const IndexEntry& e : result->entries) found.insert(e.item_id);
  EXPECT_EQ(found, in_range);
}

TEST(SearchRangeTest, RangeSearchRejectsBadBounds) {
  auto built = testing_util::Build(64, 3, 2, 2, 12);
  Rng rng(13);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  auto bad = search.RangeSearch(0, KeyPath::FromUint64(5, 4),
                                KeyPath::FromUint64(2, 4));
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace pgrid
