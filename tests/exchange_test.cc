#include "core/exchange.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "check/invariants.h"
#include "storage/leaf_index.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

using testing_util::Key;

ExchangeConfig Config(size_t maxl, size_t refmax = 1, size_t recmax = 0) {
  ExchangeConfig cfg;
  cfg.maxl = maxl;
  cfg.refmax = refmax;
  cfg.recmax = recmax;
  return cfg;
}

IndexEntry Entry(PeerId holder, ItemId item, const char* key) {
  IndexEntry e;
  e.holder = holder;
  e.item_id = item;
  e.key = Key(key);
  e.version = 1;
  return e;
}

TEST(ExchangeTest, CaseOneSplitsIdenticalEmptyPaths) {
  Grid grid(2);
  Rng rng(1);
  ExchangeEngine engine(&grid, Config(4), &rng);
  engine.Exchange(0, 1);
  EXPECT_EQ(grid.peer(0).path().ToString(), "0");
  EXPECT_EQ(grid.peer(1).path().ToString(), "1");
  ASSERT_EQ(grid.peer(0).RefsAt(1).size(), 1u);
  EXPECT_EQ(grid.peer(0).RefsAt(1)[0], 1u);
  ASSERT_EQ(grid.peer(1).RefsAt(1).size(), 1u);
  EXPECT_EQ(grid.peer(1).RefsAt(1)[0], 0u);
  EXPECT_EQ(engine.num_exchanges(), 1u);
  EXPECT_DOUBLE_EQ(grid.AveragePathLength(), 1.0);
}

TEST(ExchangeTest, CaseOneSplitsIdenticalDeepPaths) {
  Grid grid(2);
  Rng rng(2);
  ExchangeEngine engine(&grid, Config(4), &rng);
  engine.Exchange(0, 1);  // -> "0" / "1"
  // Force both to the same deeper path by manual surgery is not possible through the
  // public API; instead meet peers repeatedly: 0 and 1 diverge at level 1, so use a
  // third peer. Simpler: verify via repeated meetings in a 2-peer grid that paths
  // never share a level-1 bit again (they reference each other and diverge).
  engine.Exchange(0, 1);
  EXPECT_EQ(grid.peer(0).path().length(), 1u);
  EXPECT_EQ(grid.peer(1).path().length(), 1u);
}

TEST(ExchangeTest, CaseTwoShorterPeerSpecializesOpposite) {
  Grid grid(3);
  Rng rng(3);
  ExchangeEngine engine(&grid, Config(4), &rng);
  engine.Exchange(0, 1);  // 0 -> "0", 1 -> "1"
  // Peer 2 still has the empty path; meeting peer 0 ("0") puts them in case 2 with
  // lc = 0: peer 2 must take the complement "1".
  engine.Exchange(2, 0);
  EXPECT_EQ(grid.peer(2).path().ToString(), "1");
  ASSERT_EQ(grid.peer(2).RefsAt(1).size(), 1u);
  EXPECT_EQ(grid.peer(2).RefsAt(1)[0], 0u);
  // Peer 0 keeps refmax = 1 references at level 1 (either peer 1 or peer 2).
  ASSERT_EQ(grid.peer(0).RefsAt(1).size(), 1u);
  PeerId ref = grid.peer(0).RefsAt(1)[0];
  EXPECT_TRUE(ref == 1u || ref == 2u);
}

TEST(ExchangeTest, CaseThreeIsSymmetricToCaseTwo) {
  Grid grid(3);
  Rng rng(4);
  ExchangeEngine engine(&grid, Config(4), &rng);
  engine.Exchange(0, 1);   // 0 -> "0", 1 -> "1"
  engine.Exchange(0, 2);   // now a1 is the longer one: case 3, peer 2 -> "1"
  EXPECT_EQ(grid.peer(2).path().ToString(), "1");
  ASSERT_EQ(grid.peer(2).RefsAt(1).size(), 1u);
  EXPECT_EQ(grid.peer(2).RefsAt(1)[0], 0u);
}

TEST(ExchangeTest, MaxlBoundsPathLength) {
  Grid grid(2);
  Rng rng(5);
  ExchangeEngine engine(&grid, Config(/*maxl=*/1), &rng);
  for (int i = 0; i < 10; ++i) engine.Exchange(0, 1);
  EXPECT_EQ(grid.peer(0).path().length(), 1u);
  EXPECT_EQ(grid.peer(1).path().length(), 1u);
}

TEST(ExchangeTest, ReplicasAtMaxlBecomeBuddiesAndMergeIndexes) {
  Grid grid(4);
  Rng rng(6);
  ExchangeConfig cfg = Config(/*maxl=*/1);
  cfg.manage_data = true;
  ExchangeEngine engine(&grid, cfg, &rng);
  engine.Exchange(0, 1);  // 0 -> "0", 1 -> "1"
  engine.Exchange(2, 3);  // 2 -> "0", 3 -> "1"
  grid.peer(0).index().InsertOrRefresh(Entry(0, 1, "00"));
  grid.peer(2).index().InsertOrRefresh(Entry(2, 2, "01"));
  engine.Exchange(0, 2);  // same path "0" at maxl: buddy merge
  EXPECT_EQ(grid.peer(0).buddies(), std::vector<PeerId>{2});
  EXPECT_EQ(grid.peer(2).buddies(), std::vector<PeerId>{0});
  EXPECT_NE(grid.peer(0).index().Find(2, 2), nullptr);
  EXPECT_NE(grid.peer(2).index().Find(0, 1), nullptr);
}

TEST(ExchangeTest, BuddyListsPropagateTransitively) {
  Grid grid(6);
  Rng rng(7);
  ExchangeConfig cfg = Config(/*maxl=*/1);
  ExchangeEngine engine(&grid, cfg, &rng);
  engine.Exchange(0, 1);
  engine.Exchange(2, 3);
  engine.Exchange(4, 5);  // 0, 2, 4 -> "0"
  engine.Exchange(0, 2);
  engine.Exchange(2, 4);
  // 2 knows both 0 and 4; 4 learned 0 transitively from 2.
  auto b4 = grid.peer(4).buddies();
  EXPECT_NE(std::find(b4.begin(), b4.end(), 0u), b4.end());
}

TEST(ExchangeTest, DataReconciliationFollowsTheSplit) {
  Grid grid(2);
  Rng rng(8);
  ExchangeConfig cfg = Config(4);
  cfg.manage_data = true;
  ExchangeEngine engine(&grid, cfg, &rng);
  grid.peer(0).index().InsertOrRefresh(Entry(0, 1, "0000"));
  grid.peer(0).index().InsertOrRefresh(Entry(0, 2, "1111"));
  grid.peer(1).index().InsertOrRefresh(Entry(1, 3, "0101"));
  engine.Exchange(0, 1);  // 0 -> "0", 1 -> "1"
  // Peer 0 keeps keys under "0", peer 1 keys under "1".
  EXPECT_NE(grid.peer(0).index().Find(0, 1), nullptr);
  EXPECT_EQ(grid.peer(0).index().Find(0, 2), nullptr);
  EXPECT_NE(grid.peer(1).index().Find(0, 2), nullptr);
  EXPECT_NE(grid.peer(0).index().Find(1, 3), nullptr);
  EXPECT_EQ(grid.peer(1).index().Find(1, 3), nullptr);
  EXPECT_GT(grid.stats().count(MessageType::kDataTransfer), 0u);
}

TEST(ExchangeTest, UnplaceableEntriesParkInForeignBufferNotDropped) {
  Grid grid(4);
  Rng rng(9);
  ExchangeConfig cfg = Config(4);
  ExchangeEngine engine(&grid, cfg, &rng);
  // Build paths: 0 -> "00", 1 -> "01" via two meetings; peer 1 then receives an
  // entry under "1...", which matches neither side of a (0,1) meeting.
  engine.Exchange(0, 1);  // "0"/"1"
  engine.Exchange(2, 3);  // "0"/"1"
  engine.Exchange(0, 2);  // both "0" -> "00"/"01"
  grid.peer(0).index().InsertOrRefresh(Entry(0, 9, "1111"));
  size_t before = grid.peer(0).index().size() + grid.peer(0).foreign_entries().size();
  engine.Exchange(0, 2);  // "00" vs "01": reconciliation runs, "1111" fits neither
  size_t after = grid.peer(0).index().size() + grid.peer(0).foreign_entries().size();
  grid.peer(2).index().ForEachOverlapping(Key("1111"),
                                          [&after](const IndexEntry&) { ++after; });
  EXPECT_GE(after, before);
  // The entry must exist somewhere: foreign buffer of 0, or migrated onward.
  bool in_foreign = false;
  for (const auto& e : grid.peer(0).foreign_entries()) {
    if (e.item_id == 9) in_foreign = true;
  }
  EXPECT_TRUE(in_foreign || grid.peer(0).index().Find(0, 9) != nullptr ||
              grid.peer(2).index().Find(0, 9) != nullptr);
}

TEST(ExchangeTest, RecursiveExchangeAcceleratesConstruction) {
  // Same seed and community size; recmax = 2 must need far fewer exchanges than
  // recmax = 0 (paper Sec. 5.1, ~3x at N = 500, maxl = 6).
  auto no_rec = testing_util::Build(200, 5, 1, 0, 42);
  auto with_rec = testing_util::Build(200, 5, 1, 2, 42);
  ASSERT_TRUE(no_rec.report.converged);
  ASSERT_TRUE(with_rec.report.converged);
  EXPECT_LT(with_rec.report.exchanges, no_rec.report.exchanges);
}

TEST(ExchangeTest, RefmaxIsNeverExceededDuringConstruction) {
  for (size_t refmax : {1u, 2u, 4u}) {
    auto built = testing_util::Build(128, 4, refmax, 2, 1000 + refmax);
    check::InvariantReport report =
        check::GridInvariants::Check(*built.grid, built.config);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST(ExchangeTest, SelfExchangeIsANoop) {
  Grid grid(2);
  Rng rng(10);
  ExchangeEngine engine(&grid, Config(4), &rng);
  engine.Exchange(0, 0);
  EXPECT_EQ(engine.num_exchanges(), 0u);
  EXPECT_EQ(grid.peer(0).depth(), 0u);
}

TEST(ExchangeTest, ExchangeCountsIncludeRecursiveCalls) {
  // With recursion enabled, some meetings trigger more than one exchange execution.
  auto built = testing_util::Build(200, 5, 2, 2, 77);
  EXPECT_GT(built.report.exchanges, built.report.meetings);
}

TEST(ExchangeTest, DeterministicForFixedSeed) {
  auto a = testing_util::Build(100, 4, 2, 2, 123);
  auto b = testing_util::Build(100, 4, 2, 2, 123);
  EXPECT_EQ(a.report.exchanges, b.report.exchanges);
  EXPECT_EQ(a.report.meetings, b.report.meetings);
  for (size_t i = 0; i < a.grid->size(); ++i) {
    EXPECT_EQ(a.grid->peer(i).path(), b.grid->peer(i).path());
  }
}

TEST(ExchangeTest, OfflinePeersAreSkippedInRecursion) {
  // With everyone offline, recursion (case 4) cannot contact referenced peers; the
  // construction still makes progress through direct meetings only.
  Grid grid(8);
  Rng rng(11);
  OnlineModel offline(OnlineMode::kSnapshot, 8, 0.0, &rng);
  ExchangeConfig cfg = Config(3, 2, 2);
  ExchangeEngine engine(&grid, cfg, &rng, &offline);
  MeetingScheduler sched(8);
  for (int i = 0; i < 2000; ++i) {
    Meeting m = sched.Next(&rng);
    engine.Exchange(m.a, m.b);
  }
  // Direct meetings always execute exactly one exchange: e == meetings.
  EXPECT_EQ(engine.num_exchanges(), 2000u);
  check::InvariantReport report = check::GridInvariants::Check(grid, cfg);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ExchangeTest, DataIsConservedThroughoutConstruction) {
  // Property: index entries are redistributed during construction but never lost --
  // every (holder, item) pair present initially is present somewhere afterwards
  // (in some index or foreign buffer).
  for (uint64_t seed : {1u, 2u, 3u}) {
    const size_t num_peers = 128;
    Grid grid(num_peers);
    Rng rng(seed);
    ExchangeConfig cfg = Config(5, 3, 2);
    cfg.recursion_fanout = 2;
    ExchangeEngine engine(&grid, cfg, &rng);
    // Seed entries at random peers before any structure exists.
    const size_t num_items = 200;
    for (ItemId item = 1; item <= num_items; ++item) {
      grid.peer(static_cast<PeerId>(rng.UniformIndex(num_peers)))
          .index()
          .InsertOrRefresh(Entry(static_cast<PeerId>(item % num_peers), item,
                                 KeyPath::Random(&rng, 10).ToString().c_str()));
    }
    MeetingScheduler sched(num_peers);
    for (int m = 0; m < 20000; ++m) {
      Meeting meeting = sched.Next(&rng);
      engine.Exchange(meeting.a, meeting.b);
    }
    std::set<ItemId> alive;
    for (const PeerState& p : grid) {
      for (const IndexEntry& e : p.index().All()) alive.insert(e.item_id);
      for (const IndexEntry& e : p.foreign_entries()) alive.insert(e.item_id);
    }
    EXPECT_EQ(alive.size(), num_items) << "seed " << seed;
    // And placement invariant: indexed entries overlap their peer's path.
    for (const PeerState& p : grid) {
      for (const IndexEntry& e : p.index().All()) {
        EXPECT_TRUE(PathsOverlap(p.path(), e.key))
            << "peer " << p.id() << " wrongly indexes " << e.key;
      }
    }
  }
}

// Construction across a parameter sweep keeps all structural invariants.
class ExchangeInvariantTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t, size_t>> {};

TEST_P(ExchangeInvariantTest, InvariantsHoldAfterConvergence) {
  auto [n, maxl, refmax, recmax] = GetParam();
  auto built = testing_util::Build(n, maxl, refmax, recmax,
                                   /*seed=*/n * 31 + maxl * 7 + refmax + recmax);
  EXPECT_TRUE(built.report.converged)
      << "n=" << n << " maxl=" << maxl << " refmax=" << refmax;
  check::InvariantReport report = check::GridInvariants::Check(*built.grid, built.config);
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Every peer reached a nonzero depth and none exceeded maxl.
  for (const PeerState& p : *built.grid) {
    EXPECT_GE(p.depth(), 1u);
    EXPECT_LE(p.depth(), maxl);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExchangeInvariantTest,
    ::testing::Values(std::make_tuple(64, 3, 1, 0), std::make_tuple(64, 3, 1, 2),
                      std::make_tuple(128, 4, 1, 2), std::make_tuple(128, 4, 2, 2),
                      std::make_tuple(128, 4, 4, 2), std::make_tuple(256, 5, 2, 1),
                      std::make_tuple(256, 5, 2, 3), std::make_tuple(200, 6, 1, 2),
                      std::make_tuple(300, 5, 3, 2)));

}  // namespace
}  // namespace pgrid
