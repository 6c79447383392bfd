#include "storage/leaf_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "util/rng.h"

namespace pgrid {
namespace {

IndexEntry Entry(PeerId holder, ItemId item, const std::string& key,
                 uint64_t version = 1) {
  IndexEntry e;
  e.holder = holder;
  e.item_id = item;
  e.key = KeyPath::FromString(key).value();
  e.version = version;
  return e;
}

/// The items ForEachOverlapping visits for `key`, sorted. (The visit order is
/// pinned by KeyOrderedAnswersMatchAScanOfEverySlot.)
std::vector<ItemId> OverlappingItems(const LeafIndex& index, const std::string& key) {
  std::vector<ItemId> items;
  index.ForEachOverlapping(KeyPath::FromString(key).value(),
                           [&items](const IndexEntry& e) { items.push_back(e.item_id); });
  std::sort(items.begin(), items.end());
  return items;
}

TEST(LeafIndexTest, InsertAndFind) {
  LeafIndex index;
  EXPECT_TRUE(index.InsertOrRefresh(Entry(1, 10, "0101")));
  const IndexEntry* e = index.Find(1, 10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key.ToString(), "0101");
  EXPECT_EQ(index.Find(1, 11), nullptr);
  EXPECT_EQ(index.Find(2, 10), nullptr);
}

TEST(LeafIndexTest, ReinsertSameVersionIsNoop) {
  LeafIndex index;
  EXPECT_TRUE(index.InsertOrRefresh(Entry(1, 10, "01", 2)));
  EXPECT_FALSE(index.InsertOrRefresh(Entry(1, 10, "01", 2)));
  EXPECT_FALSE(index.InsertOrRefresh(Entry(1, 10, "01", 1)));  // stale
  EXPECT_EQ(index.size(), 1u);
}

TEST(LeafIndexTest, RefreshBumpsVersion) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 10, "01", 1));
  EXPECT_TRUE(index.InsertOrRefresh(Entry(1, 10, "01", 3)));
  EXPECT_EQ(index.Find(1, 10)->version, 3u);
}

TEST(LeafIndexTest, RefreshReportsTheEntryItReplaced) {
  LeafIndex index;
  IndexEntry replaced = Entry(9, 9, "1");
  EXPECT_TRUE(index.InsertOrRefresh(Entry(1, 10, "01", 1), &replaced));
  EXPECT_EQ(replaced, Entry(9, 9, "1"));  // an insert replaces nothing
  EXPECT_FALSE(index.InsertOrRefresh(Entry(1, 10, "0111", 1), &replaced));
  EXPECT_EQ(replaced, Entry(9, 9, "1"));  // neither does a no-op
  EXPECT_TRUE(index.InsertOrRefresh(Entry(1, 10, "0111", 4), &replaced));
  EXPECT_EQ(replaced, Entry(1, 10, "01", 1));
  EXPECT_EQ(*index.Find(1, 10), Entry(1, 10, "0111", 4));
}

TEST(LeafIndexTest, SameItemDifferentHoldersAreDistinct) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 10, "01"));
  index.InsertOrRefresh(Entry(2, 10, "01"));
  EXPECT_EQ(index.size(), 2u);
}

TEST(LeafIndexTest, MatchingFiltersByPrefix) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 1, "0001"));
  index.InsertOrRefresh(Entry(1, 2, "0010"));
  index.InsertOrRefresh(Entry(1, 3, "1000"));
  EXPECT_EQ(OverlappingItems(index, "00"), (std::vector<ItemId>{1, 2}));
  EXPECT_EQ(OverlappingItems(index, "1"), (std::vector<ItemId>{3}));
  EXPECT_EQ(OverlappingItems(index, ""), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_TRUE(OverlappingItems(index, "01").empty());
}

TEST(LeafIndexTest, LatestVersionOfIsTheNewestOverHolders) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 10, "01", 2));
  index.InsertOrRefresh(Entry(2, 10, "01", 5));
  index.InsertOrRefresh(Entry(3, 11, "01", 9));
  EXPECT_EQ(index.LatestVersionOf(10), 5u);
  EXPECT_EQ(index.LatestVersionOf(11), 9u);
  EXPECT_EQ(index.LatestVersionOf(404), 0u);
}

TEST(LeafIndexTest, ApplyVersionBumpsAllEntriesOfItem) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 10, "01", 1));
  index.InsertOrRefresh(Entry(2, 10, "01", 1));
  index.InsertOrRefresh(Entry(3, 11, "01", 1));
  EXPECT_EQ(index.ApplyVersion(10, 4), 2u);
  EXPECT_EQ(index.Find(1, 10)->version, 4u);
  EXPECT_EQ(index.Find(2, 10)->version, 4u);
  EXPECT_EQ(index.Find(3, 11)->version, 1u);
  EXPECT_EQ(index.ApplyVersion(10, 3), 0u);  // stale version bumps nothing
}

TEST(LeafIndexTest, OneItemUnderAThousandHoldersStaysCorrect) {
  // Item 7 under 1,000 holders, each inserted next to an entry of an item of
  // its own: one chain 1,000 entries long, grown through several rehashes,
  // then holed by erasures and a drain.
  constexpr PeerId kHolders = 1000;
  constexpr ItemId kItem = 7;
  // Holders 0-1 "0...", 2-3 "1...", 4-5 "0...", and so on.
  const auto key_of = [](PeerId h) { return (h / 2) % 2 == 0 ? "0011" : "1100"; };
  LeafIndex index;
  for (PeerId h = 0; h < kHolders; ++h) {
    ASSERT_TRUE(index.InsertOrRefresh(Entry(h, kItem, key_of(h), h + 1)));
    ASSERT_TRUE(index.InsertOrRefresh(Entry(h, 1000 + h, key_of(h), 1)));
  }
  ASSERT_EQ(index.size(), 2u * kHolders);
  for (PeerId h = 0; h < kHolders; ++h) {
    const IndexEntry* e = index.Find(h, kItem);
    ASSERT_NE(e, nullptr) << h;
    EXPECT_EQ(e->version, h + 1u);
  }
  EXPECT_EQ(index.Find(kHolders, kItem), nullptr);
  EXPECT_EQ(index.LatestVersionOf(kItem), 1000u);

  // Versions 1-499 are older than 500.
  EXPECT_EQ(index.ApplyVersion(kItem, 500), 499u);
  for (PeerId h = 0; h < kHolders; ++h) {
    EXPECT_EQ(index.Find(h, kItem)->version, std::max<uint64_t>(h + 1, 500)) << h;
    EXPECT_EQ(index.LatestVersionOf(1000 + h), 1u) << h;  // the other items stay
  }

  // Erase the odd holders: tombstones all along the chain.
  for (PeerId h = 1; h < kHolders; h += 2) ASSERT_TRUE(index.Erase(h, kItem));
  for (PeerId h = 0; h < kHolders; ++h) EXPECT_EQ(index.Find(h, kItem) != nullptr, h % 2 == 0);
  EXPECT_EQ(index.LatestVersionOf(kItem), 999u);  // holder 998's
  EXPECT_EQ(index.ApplyVersion(kItem, 2000), 500u);
  EXPECT_EQ(index.LatestVersionOf(kItem), 2000u);

  // Drain the "1..." keys: holders 2, 6, 10, ... of item 7 leave, with the
  // other items of every holder in 2-3, 6-7, ...
  std::vector<IndexEntry> moved = index.ExtractNotMatching(KeyPath::FromString("0").value());
  EXPECT_EQ(moved.size(), 250u + 500u);
  for (const IndexEntry& e : moved) EXPECT_EQ(e.key.ToString(), "1100");
  size_t left = 0;
  for (PeerId h = 0; h < kHolders; ++h) {
    const bool kept = h % 2 == 0 && (h / 2) % 2 == 0;
    EXPECT_EQ(index.Find(h, kItem) != nullptr, kept) << h;
    left += kept;
  }
  EXPECT_EQ(index.ApplyVersion(kItem, 3000), left);
  EXPECT_EQ(index.LatestVersionOf(kItem), 3000u);

  // Holders inserted again land on the same chain, in tombstones or past them.
  for (PeerId h = 1; h < kHolders; h += 2) {
    ASSERT_TRUE(index.InsertOrRefresh(Entry(h, kItem, "0011", 5)));
  }
  EXPECT_EQ(index.ApplyVersion(kItem, 4000), left + kHolders / 2);
  for (PeerId h = 0; h < kHolders; ++h) {
    const IndexEntry* e = index.Find(h, kItem);
    ASSERT_EQ(e != nullptr, h % 2 == 1 || (h / 2) % 2 == 0) << h;
    if (e != nullptr) {
      EXPECT_EQ(e->version, 4000u) << h;
    }
  }
}

TEST(LeafIndexTest, ExtractNotMatchingSplitsOnOverlap) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 1, "0001"));
  index.InsertOrRefresh(Entry(1, 2, "0110"));
  index.InsertOrRefresh(Entry(1, 3, "0"));  // key is a prefix of path "00": overlaps
  auto moved = index.ExtractNotMatching(KeyPath::FromString("00").value());
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].item_id, 2u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_NE(index.Find(1, 1), nullptr);
  EXPECT_NE(index.Find(1, 3), nullptr);
}

TEST(LeafIndexTest, MergeFromCombinesAndRefreshes) {
  LeafIndex a, b;
  a.InsertOrRefresh(Entry(1, 1, "00", 1));
  b.InsertOrRefresh(Entry(1, 1, "00", 3));
  b.InsertOrRefresh(Entry(2, 2, "01", 1));
  size_t changed = a.MergeFrom(b);
  EXPECT_EQ(changed, 2u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.Find(1, 1)->version, 3u);
  // Merging again changes nothing.
  EXPECT_EQ(a.MergeFrom(b), 0u);
}

TEST(LeafIndexTest, AllReturnsEverything) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 1, "0"));
  index.InsertOrRefresh(Entry(2, 2, "1"));
  auto all = index.All();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                          [](const IndexEntry& e) { return e.item_id == 1; }));
  EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                          [](const IndexEntry& e) { return e.item_id == 2; }));
}

TEST(LeafIndexTest, ForEachVisitsEveryLiveEntry) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 1, "00"));
  index.InsertOrRefresh(Entry(2, 2, "01"));
  index.InsertOrRefresh(Entry(3, 3, "10"));
  size_t visited = 0;
  uint64_t item_sum = 0;
  index.ForEach([&](const IndexEntry& e) {
    ++visited;
    item_sum += e.item_id;
  });
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(item_sum, 6u);
}

TEST(LeafIndexTest, ForEachOverlappingVisitsShorterAndLongerKeys) {
  // A stored key overlaps the query if either is a prefix of the other: the
  // query's proper prefixes, the query itself and its extensions all answer.
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 1, ""));
  index.InsertOrRefresh(Entry(1, 2, "0"));
  index.InsertOrRefresh(Entry(1, 3, "01"));
  index.InsertOrRefresh(Entry(1, 4, "011"));
  index.InsertOrRefresh(Entry(1, 5, "0110"));
  index.InsertOrRefresh(Entry(1, 6, "010"));
  index.InsertOrRefresh(Entry(1, 7, "00"));
  index.InsertOrRefresh(Entry(1, 8, "1"));
  EXPECT_EQ(OverlappingItems(index, "011"), (std::vector<ItemId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(OverlappingItems(index, "0110"), (std::vector<ItemId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(OverlappingItems(index, "0111"), (std::vector<ItemId>{1, 2, 3, 4}));
  // Visits come in slot order, the order ForEach uses.
  std::vector<ItemId> all;
  index.ForEach([&all](const IndexEntry& e) { all.push_back(e.item_id); });
  std::vector<ItemId> visited;
  index.ForEachOverlapping(
      KeyPath(), [&visited](const IndexEntry& e) { visited.push_back(e.item_id); });
  EXPECT_EQ(visited, all);
}

TEST(LeafIndexTest, GrowthAndTombstoneChurnKeepsLookupsCorrect) {
  // Hammer the open-addressed table through many insert/extract cycles so slots
  // accumulate tombstones, forcing probe chains and rehashes to stay correct.
  LeafIndex index;
  const KeyPath zero = KeyPath::FromString("0").value();
  const KeyPath one = KeyPath::FromString("1").value();
  for (int round = 0; round < 20; ++round) {
    for (PeerId h = 0; h < 50; ++h) {
      ASSERT_TRUE(index.InsertOrRefresh(
          Entry(h, static_cast<ItemId>(round * 100 + h), h % 2 ? "10" : "01",
                round + 1)));
    }
    // Evict the "1*" half; the "0*" half stays and must remain findable.
    auto moved = index.ExtractNotMatching(zero);
    EXPECT_EQ(moved.size(), 25u);
    for (PeerId h = 0; h < 50; h += 2) {
      ASSERT_NE(index.Find(h, static_cast<ItemId>(round * 100 + h)), nullptr);
    }
  }
  EXPECT_EQ(index.size(), 20u * 25u);
  size_t matching_one = 0;
  index.ForEachOverlapping(one, [&](const IndexEntry&) { ++matching_one; });
  EXPECT_EQ(matching_one, 0u);
}

TEST(LeafIndexTest, MergeFromSelfIsNoop) {
  LeafIndex index;
  index.InsertOrRefresh(Entry(1, 1, "00", 5));
  EXPECT_EQ(index.MergeFrom(index), 0u);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(1, 1)->version, 5u);
}

TEST(LeafIndexTest, ApproxMemoryBytesTracksTableAndSpilledKeys) {
  LeafIndex index;
  EXPECT_EQ(index.ApproxMemoryBytes(), 0u);
  index.InsertOrRefresh(Entry(1, 1, "01"));
  const size_t with_inline_key = index.ApproxMemoryBytes();
  EXPECT_GT(with_inline_key, 0u);
  // A 65+ bit key spills to the KeyPath heap and must be counted.
  IndexEntry big = Entry(2, 2, std::string(70, '0').c_str());
  index.InsertOrRefresh(big);
  EXPECT_GE(index.ApproxMemoryBytes(), with_inline_key + 16);
}

/// What a scan of every slot finds: the entries ForEach visits that `keep`
/// accepts, in slot order.
template <typename Pred>
std::vector<IndexEntry> Scan(const LeafIndex& index, Pred keep) {
  std::vector<IndexEntry> out;
  index.ForEach([&](const IndexEntry& e) {
    if (keep(e)) out.push_back(e);
  });
  return out;
}

std::vector<IndexEntry> Overlapping(const LeafIndex& index, const KeyPath& key) {
  std::vector<IndexEntry> out;
  index.ForEachOverlapping(key, [&out](const IndexEntry& e) { out.push_back(e); });
  return out;
}

TEST(LeafIndexTest, KeyOrderedAnswersMatchAScanOfEverySlot) {
  // Seeded random runs of inserts, refreshes (some to a new key), erases,
  // version updates, extractions and copies, in phases that grow the table
  // and phases that shrink it so both kinds of rehash happen. Keys run from 0
  // to 130 bits, inline and heap, and many are proper prefixes of others.
  // After each step every answer must be the scan's: the same entries in the
  // same slot order, and an extraction must leave the index the scan says
  // remains. Version updates and the newest version of an item must agree
  // with the model: up to 16 holders share each item's chain, through
  // tombstones and rehashes.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<KeyPath> keys;
    for (int i = 0; i < 24; ++i) {
      const KeyPath key = KeyPath::Random(&rng, rng.UniformIndex(131));
      keys.push_back(key);
      for (int j = 0; j < 3; ++j) keys.push_back(key.Prefix(rng.UniformIndex(key.length() + 1)));
    }
    const auto random_key = [&] {
      return rng.Bernoulli(0.8) ? keys[rng.UniformIndex(keys.size())]
                                : KeyPath::Random(&rng, rng.UniformIndex(131));
    };
    LeafIndex index;
    std::map<std::pair<PeerId, ItemId>, IndexEntry> model;
    uint64_t version = 0;
    // The model's newest version of `item` (0 if it holds none).
    const auto newest = [&model](ItemId item) {
      uint64_t latest = 0;
      for (const auto& [id, e] : model) {
        if (id.second == item) latest = std::max(latest, e.version);
      }
      return latest;
    };
    for (int step = 0; step < 1500; ++step) {
      const bool growing = (step / 250) % 2 == 0;
      const size_t op = rng.UniformIndex(100);
      if (op < (growing ? 55u : 25u)) {
        // Insert, or refresh when (holder, item) is taken.
        IndexEntry e{static_cast<PeerId>(rng.UniformIndex(16)),
                     static_cast<ItemId>(rng.UniformIndex(64)), random_key(), ++version};
        index.InsertOrRefresh(e);
        model[{e.holder, e.item_id}] = e;
      } else if (op < (growing ? 70u : 40u) && !model.empty()) {
        // Refresh a present entry: a stale version is a no-op, a newer one
        // may bring a new key.
        auto it = std::next(model.begin(), static_cast<long>(rng.UniformIndex(model.size())));
        IndexEntry e = it->second;
        const bool stale = rng.Bernoulli(0.2);
        e.version = stale ? e.version : ++version;
        if (rng.Bernoulli(0.5)) e.key = random_key();
        EXPECT_EQ(index.InsertOrRefresh(e), !stale);
        if (!stale) it->second = e;
      } else if (op < 90) {
        const PeerId holder = static_cast<PeerId>(rng.UniformIndex(16));
        const ItemId item = static_cast<ItemId>(rng.UniformIndex(64));
        EXPECT_EQ(index.Erase(holder, item), model.erase({holder, item}) == 1);
      } else if (op < 95) {
        // A version update: a new one bumps every holder of the item, an
        // older one only the holders behind it. Both stay below the next
        // insert's version.
        const ItemId item = static_cast<ItemId>(rng.UniformIndex(64));
        const uint64_t v =
            rng.Bernoulli(0.5) || version == 0 ? ++version : 1 + rng.UniformIndex(version);
        size_t bumped = 0;
        for (auto& [id, e] : model) {
          if (id.second == item && e.version < v) {
            e.version = v;
            ++bumped;
          }
        }
        EXPECT_EQ(index.ApplyVersion(item, v), bumped) << "step " << step;
        for (const auto& [id, e] : model) {
          if (id.second != item) continue;
          const IndexEntry* found = index.Find(id.first, id.second);
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(found->version, e.version) << "step " << step;
        }
      } else if (op < 99) {
        const KeyPath path = random_key();
        const std::vector<IndexEntry> leaving =
            Scan(index, [&](const IndexEntry& e) { return !PathsOverlap(path, e.key); });
        const std::vector<IndexEntry> staying =
            Scan(index, [&](const IndexEntry& e) { return PathsOverlap(path, e.key); });
        EXPECT_EQ(index.ExtractNotMatching(path), leaving);
        EXPECT_EQ(index.All(), staying);
        for (const IndexEntry& e : leaving) model.erase({e.holder, e.item_id});
      } else {
        const LeafIndex copy = index;
        index = copy;
      }
      ASSERT_EQ(index.size(), model.size());
      // Item 64 is never inserted.
      const ItemId item = static_cast<ItemId>(rng.UniformIndex(65));
      ASSERT_EQ(index.LatestVersionOf(item), newest(item)) << "step " << step << " item " << item;
      for (int q = 0; q < 3; ++q) {
        const KeyPath key = random_key();
        ASSERT_EQ(Overlapping(index, key),
                  Scan(index, [&](const IndexEntry& e) { return PathsOverlap(key, e.key); }))
            << "step " << step << " key '" << key << "'";
      }
    }
    for (const auto& [id, e] : model) {
      const IndexEntry* found = index.Find(id.first, id.second);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, e);
    }
  }
}

}  // namespace
}  // namespace pgrid
