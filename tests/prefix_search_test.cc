#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/search.h"
#include "core/stats.h"
#include "key/text_key.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

using testing_util::Key;

/// Installs an entry at every co-responsible peer (perfectly consistent seeding).
void InstallEverywhere(Grid* grid, const IndexEntry& entry) {
  for (PeerState& p : *grid) {
    if (PathsOverlap(p.path(), entry.key)) p.index().InsertOrRefresh(entry);
  }
}

IndexEntry Entry(ItemId id, const KeyPath& key) {
  IndexEntry e;
  e.holder = 1;
  e.item_id = id;
  e.key = key;
  e.version = 1;
  return e;
}

TEST(PrefixSearchTest, DistinctEntriesWithCollidingMixesAreBothReturned) {
  // (holder << 32) ^ (item * 0x9e3779b97f4a7c15) is equal for these two pairs;
  // deduplication must compare the pairs themselves.
  Grid grid(1);
  IndexEntry a = Entry(7, Key("01"));
  a.holder = 0;
  IndexEntry b = Entry(0x9937733d00000007ull, Key("01"));
  b.holder = 1;
  grid.peer(0).index().InsertOrRefresh(a);
  grid.peer(0).index().InsertOrRefresh(b);
  Rng rng(1);
  SearchEngine search(&grid, nullptr, &rng);
  EXPECT_EQ(search.PrefixSearch(0, Key("0"), 1).entries.size(), 2u);
  Result<PrefixSearchResult> range = search.RangeSearch(0, Key("00"), Key("01"), 1);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->entries.size(), 2u);
}

TEST(PrefixSearchTest, FindsAllItemsUnderPrefixFullyOnline) {
  auto built = testing_util::Build(256, 5, 3, 2, 1);
  Rng rng(2);
  // Items on both sides of the prefix boundary.
  std::set<ItemId> under_prefix;
  for (ItemId id = 1; id <= 40; ++id) {
    KeyPath key = KeyPath::Random(&rng, 10);
    InstallEverywhere(built.grid.get(), Entry(id, key));
    if (Key("01").IsPrefixOf(key)) under_prefix.insert(id);
  }
  SearchEngine search(built.grid.get(), nullptr, &rng);
  PrefixSearchResult r =
      search.PrefixSearch(/*start=*/0, Key("01"), /*fanout=*/8);
  std::set<ItemId> found;
  for (const IndexEntry& e : r.entries) {
    EXPECT_TRUE(Key("01").IsPrefixOf(e.key)) << "non-matching entry " << e.key;
    found.insert(e.item_id);
  }
  EXPECT_EQ(found, under_prefix);
  EXPECT_GT(r.messages, 0u);
}

TEST(PrefixSearchTest, RespondersAllOverlapPrefix) {
  auto built = testing_util::Build(256, 5, 3, 2, 3);
  Rng rng(4);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  for (const char* prefix : {"0", "10", "110", "0101"}) {
    PrefixSearchResult r = search.PrefixSearch(0, Key(prefix), 8);
    EXPECT_FALSE(r.responders.empty()) << prefix;
    std::set<PeerId> distinct(r.responders.begin(), r.responders.end());
    EXPECT_EQ(distinct.size(), r.responders.size()) << "duplicate responders";
    for (PeerId p : r.responders) {
      EXPECT_TRUE(PathsOverlap(built.grid->peer(p).path(), Key(prefix)));
    }
  }
}

TEST(PrefixSearchTest, EmptyPrefixReachesWholeGridRegion) {
  auto built = testing_util::Build(128, 4, 3, 2, 5);
  Rng rng(6);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  PrefixSearchResult r = search.PrefixSearch(0, KeyPath(), /*fanout=*/16);
  // The empty prefix covers everything; with full fan-out the walk should touch a
  // large portion of the key space (bounded by visited-set pruning).
  std::set<std::string> paths;
  for (PeerId p : r.responders) {
    paths.insert(built.grid->peer(p).path().ToString());
  }
  EXPECT_GT(paths.size(), 8u);
}

TEST(PrefixSearchTest, EntriesAreDeduplicatedAcrossReplicas) {
  auto built = testing_util::Build(256, 4, 4, 2, 7);
  Rng rng(8);
  IndexEntry e = Entry(99, Key("01011010"));
  InstallEverywhere(built.grid.get(), e);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  PrefixSearchResult r = search.PrefixSearch(3, Key("0101"), 8);
  size_t copies = 0;
  for (const IndexEntry& entry : r.entries) {
    if (entry.item_id == 99) ++copies;
  }
  EXPECT_EQ(copies, 1u);
}

TEST(PrefixSearchTest, LowFanoutCostsFewerMessages) {
  auto built = testing_util::Build(256, 5, 4, 2, 9);
  Rng rng(10);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  uint64_t low = 0, high = 0;
  for (int t = 0; t < 10; ++t) {
    low += search.PrefixSearch(0, Key("01"), 1).messages;
    high += search.PrefixSearch(0, Key("01"), 8).messages;
  }
  EXPECT_LT(low, high);
}

TEST(PrefixSearchTest, TextPrefixScenario) {
  // End-to-end trie use (Sec. 6): publish filenames as text keys, search "beat".
  auto built = testing_util::Build(512, 6, 4, 2, 11);
  Rng rng(12);
  const char* files[] = {"beatles-help",     "beatles-let_it_be", "beach-boys",
                         "beastie_boys",     "bob-dylan",         "beat-it",
                         "zappa",            "beatles-abbey_road"};
  ItemId id = 1;
  for (const char* name : files) {
    InstallEverywhere(built.grid.get(), Entry(id++, EncodeText(name).value()));
  }
  SearchEngine search(built.grid.get(), nullptr, &rng);
  PrefixSearchResult r =
      search.PrefixSearch(0, EncodeText("beat").value(), /*fanout=*/8);
  std::set<std::string> names;
  for (const IndexEntry& e : r.entries) {
    names.insert(DecodeText(e.key).value());
  }
  EXPECT_EQ(names, (std::set<std::string>{"beatles-help", "beatles-let_it_be",
                                          "beat-it", "beatles-abbey_road"}));
}

TEST(PrefixSearchTest, OfflinePeersReduceCoverageGracefully) {
  auto built = testing_util::Build(256, 5, 3, 2, 13);
  Rng rng(14);
  for (ItemId id = 1; id <= 30; ++id) {
    InstallEverywhere(built.grid.get(), Entry(id, KeyPath::Random(&rng, 10)));
  }
  OnlineModel online(OnlineMode::kSnapshot, 256, 0.3, &rng);
  SearchEngine search(built.grid.get(), &online, &rng);
  auto start = search.RandomOnlinePeer();
  ASSERT_TRUE(start.has_value());
  PrefixSearchResult r = search.PrefixSearch(*start, Key("0"), 4);
  // No crash, responders are a subset of the co-responsible peers.
  for (PeerId p : r.responders) {
    EXPECT_TRUE(PathsOverlap(built.grid->peer(p).path(), Key("0")));
  }
}

}  // namespace
}  // namespace pgrid
