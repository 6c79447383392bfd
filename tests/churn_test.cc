#include "core/churn.h"

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "core/search.h"
#include "core/stats.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

struct ChurnFixture {
  Grid grid{128};
  Rng rng{5};
  ExchangeConfig config;
  OnlineModel online{OnlineMode::kAlwaysOn, 128, 1.0, nullptr};
  std::unique_ptr<ExchangeEngine> exchange;
  MeetingScheduler scheduler{128};
  std::unique_ptr<ChurnDriver> driver;

  explicit ChurnFixture(bool prune = false) : online(OnlineModel::AlwaysOn(128)) {
    config.maxl = 4;
    config.refmax = 3;
    config.recmax = 2;
    config.recursion_fanout = 2;
    config.prune_unreachable_refs = prune;
    exchange = std::make_unique<ExchangeEngine>(&grid, config, &rng, &online);
    driver = std::make_unique<ChurnDriver>(&grid, exchange.get(), &scheduler,
                                           &online, &rng);
    // Converge before churning.
    GridBuilder builder(&grid, exchange.get(), &scheduler, &rng);
    builder.BuildToFractionOfMaxDepth(0.99, 1'000'000);
  }
};

TEST(ChurnTest, CrashesReduceLivePopulation) {
  ChurnFixture f;
  ChurnConfig cfg;
  cfg.crash_fraction = 0.1;
  cfg.join_fraction = 0.0;
  cfg.meetings_per_round = 0;
  ChurnRound round = f.driver->Round(cfg);
  EXPECT_EQ(round.crashed, 12u);
  EXPECT_EQ(round.live, 128u - 12u);
  EXPECT_EQ(f.driver->live_count(), 116u);
  // Crashed peers are unreachable.
  size_t dead_online = 0;
  for (PeerId p = 0; p < f.grid.size(); ++p) {
    if (f.driver->IsDead(p) && f.online.IsOnline(p, &f.rng)) ++dead_online;
  }
  EXPECT_EQ(dead_online, 0u);
}

TEST(ChurnTest, JoinsGrowGridAndIntegrate) {
  ChurnFixture f;
  ChurnConfig cfg;
  cfg.crash_fraction = 0.0;
  cfg.join_fraction = 0.25;
  cfg.meetings_per_round = 8000;
  ChurnRound round = f.driver->Round(cfg);
  EXPECT_EQ(round.joined, 32u);
  EXPECT_EQ(f.grid.size(), 160u);
  // Joiners acquired non-trivial paths through the round's meetings.
  double joiner_depth = 0;
  for (PeerId p = 128; p < 160; ++p) {
    joiner_depth += static_cast<double>(f.grid.peer(p).depth());
  }
  EXPECT_GT(joiner_depth / 32.0, 2.0);
  check::InvariantReport report = check::GridInvariants::Check(f.grid, f.config);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ChurnTest, GracefulLeaveHandsOverEntries) {
  ChurnFixture f;
  // Seed every peer's region with data.
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(300, f.grid.size(), gen, &f.rng, &holders);
  SeedGridPerfectly(&f.grid, corpus, holders);

  ChurnConfig cfg;
  cfg.crash_fraction = 0.0;
  cfg.leave_fraction = 0.2;
  cfg.join_fraction = 0.0;
  cfg.meetings_per_round = 0;
  ChurnRound round = f.driver->Round(cfg);
  EXPECT_GT(round.left_gracefully, 0u);
  EXPECT_GT(round.handover_entries, 0u);
  // Every item is still indexed by at least one live peer (perfect seeding plus
  // handover means graceful departures lose nothing).
  for (const DataItem& item : corpus) {
    bool alive = false;
    for (PeerId p = 0; p < f.grid.size() && !alive; ++p) {
      if (f.driver->IsDead(p)) continue;
      if (f.grid.peer(p).index().LatestVersionOf(item.id) > 0) alive = true;
      for (const IndexEntry& e : f.grid.peer(p).foreign_entries()) {
        if (e.item_id == item.id) alive = true;
      }
    }
    EXPECT_TRUE(alive) << "item " << item.id << " lost";
  }
}

TEST(ChurnTest, LivePeerHelpersAreConsistent) {
  ChurnFixture f;
  ChurnConfig cfg;
  cfg.crash_fraction = 0.3;
  cfg.meetings_per_round = 0;
  cfg.join_fraction = 0.0;
  f.driver->Round(cfg);
  auto live = f.driver->LivePeers();
  EXPECT_EQ(live.size(), f.driver->live_count());
  for (PeerId p : live) EXPECT_FALSE(f.driver->IsDead(p));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(f.driver->IsDead(f.driver->RandomLivePeer()));
  }
}

TEST(ChurnTest, SearchReliabilityRecoversWithRepair) {
  // After heavy crashes + joins, continued exchanges with reference pruning must
  // restore search success above the no-repair variant.
  auto run = [](bool prune) {
    ChurnFixture f(prune);
    ChurnConfig heavy;
    heavy.crash_fraction = 0.30;
    heavy.join_fraction = 0.30;
    heavy.meetings_per_round = prune ? 6000 : 6000;
    for (int round = 0; round < 4; ++round) f.driver->Round(heavy);

    SearchEngine search(&f.grid, &f.online, &f.rng);
    size_t ok = 0;
    const size_t trials = 400;
    for (size_t t = 0; t < trials; ++t) {
      PeerId start = f.driver->RandomLivePeer();
      if (search.Query(start, KeyPath::Random(&f.rng, 4)).found) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(trials);
  };
  const double with_repair = run(true);
  EXPECT_GT(with_repair, 0.9);
  // The no-repair variant may coincidentally do well on tiny grids; only assert
  // that repair achieves high reliability and does not hurt.
  EXPECT_GE(with_repair + 0.05, run(false));
}

TEST(ChurnConfigTest, ValidateBoundsAllFractions) {
  ChurnConfig cfg;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.join_fraction = 1.0;  // doubling per round is the allowed extreme
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.join_fraction = 1.01;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.join_fraction = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ChurnConfig{};
  cfg.crash_fraction = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = ChurnConfig{};
  cfg.leave_fraction = -1e-9;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ChurnTest, GracefulDepartHandsEntriesToLiveBuddyFirst) {
  ChurnFixture f;
  // Find a leaver with at least one buddy.
  PeerId leaver = kInvalidPeer;
  for (PeerId p = 0; p < f.grid.size(); ++p) {
    if (!f.grid.peer(p).buddies().empty()) {
      leaver = p;
      break;
    }
  }
  ASSERT_NE(leaver, kInvalidPeer) << "converged grid should have replicas";
  const PeerId buddy = f.grid.peer(leaver).buddies().front();

  // Plant a fresh entry only the leaver knows about.
  IndexEntry planted;
  planted.holder = leaver;
  planted.item_id = 987654;
  planted.key = f.grid.peer(leaver).path();
  planted.version = 3;
  ASSERT_TRUE(f.grid.peer(leaver).index().InsertOrRefresh(planted));

  const MessageStats before = f.grid.stats();
  const uint64_t handed = f.driver->Depart(leaver, /*graceful=*/true);
  EXPECT_GT(handed, 0u);
  EXPECT_TRUE(f.driver->IsDead(leaver));
  // The handover is one kControl session carrying `handed` entries.
  const MessageStats after = f.grid.stats();
  EXPECT_EQ(after.count(MessageType::kDataTransfer) -
                before.count(MessageType::kDataTransfer),
            handed);
  EXPECT_EQ(after.count(MessageType::kControl) - before.count(MessageType::kControl),
            1u);
  // The first live buddy inherited the entry at full version.
  const IndexEntry* got = f.grid.peer(buddy).index().Find(leaver, 987654);
  ASSERT_NE(got, nullptr) << "buddy must be preferred as heir";
  EXPECT_EQ(got->version, 3u);
}

TEST(ChurnTest, GracefulDepartFallsBackToCoResponsiblePeer) {
  ChurnFixture f;
  // Pick a leaver whose path has a replica that is NOT in its buddy list, then
  // kill every buddy so the fallback path must run.
  PeerId leaver = kInvalidPeer;
  PeerId outsider = kInvalidPeer;
  for (PeerId p = 0; p < f.grid.size() && leaver == kInvalidPeer; ++p) {
    const PeerState& ps = f.grid.peer(p);
    for (PeerId r : GridStats::ReplicasOf(f.grid, ps.path())) {
      if (r == p) continue;
      bool is_buddy = false;
      for (PeerId b : ps.buddies()) is_buddy |= (b == r);
      if (!is_buddy) {
        leaver = p;
        outsider = r;
        break;
      }
    }
  }
  if (leaver == kInvalidPeer) GTEST_SKIP() << "all replica groups are cliques";

  for (PeerId b : f.grid.peer(leaver).buddies()) {
    if (!f.driver->IsDead(b)) f.driver->Depart(b, /*graceful=*/false);
  }
  if (f.driver->IsDead(outsider)) GTEST_SKIP() << "outsider was a buddy's buddy";

  IndexEntry planted;
  planted.holder = leaver;
  planted.item_id = 424242;
  planted.key = f.grid.peer(leaver).path();
  planted.version = 1;
  ASSERT_TRUE(f.grid.peer(leaver).index().InsertOrRefresh(planted));

  const uint64_t handed = f.driver->Depart(leaver, /*graceful=*/true);
  EXPECT_GT(handed, 0u);
  // Some live same-path peer (not necessarily `outsider`: ReplicasOf order
  // decides) inherited the planted entry.
  bool inherited = false;
  for (PeerId r : GridStats::ReplicasOf(f.grid, f.grid.peer(leaver).path())) {
    if (r == leaver || f.driver->IsDead(r)) continue;
    if (f.grid.peer(r).index().Find(leaver, 424242) != nullptr) inherited = true;
  }
  EXPECT_TRUE(inherited) << "entry lost on graceful departure";
}

TEST(ChurnTest, CrashDepartHandsOverNothing) {
  ChurnFixture f;
  PeerId victim = 0;
  IndexEntry planted;
  planted.holder = victim;
  planted.item_id = 5555;
  planted.key = f.grid.peer(victim).path();
  planted.version = 9;
  f.grid.peer(victim).index().InsertOrRefresh(planted);
  const uint64_t messages_before = f.grid.stats().total();
  EXPECT_EQ(f.driver->Depart(victim, /*graceful=*/false), 0u);
  EXPECT_EQ(f.grid.stats().total(), messages_before);  // a crash sends nothing
  EXPECT_TRUE(f.driver->IsDead(victim));
  // No live peer inherited the crashed peer's private entry.
  for (PeerId p = 0; p < f.grid.size(); ++p) {
    if (p == victim || f.driver->IsDead(p)) continue;
    EXPECT_EQ(f.grid.peer(p).index().Find(victim, 5555), nullptr);
  }
}

}  // namespace
}  // namespace pgrid
