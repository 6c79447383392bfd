#include "repair/repair.h"

#include <gtest/gtest.h>

#include <memory>

#include "check/invariants.h"
#include "core/churn.h"
#include "core/search.h"
#include "repair/health.h"
#include "sim/digest.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

// ---- SuspicionTable (repair/health.h) ----

TEST(SuspicionTableTest, EvictsOnlyAtThreshold) {
  repair::SuspicionTable table(3);
  EXPECT_FALSE(table.NoteFailure(7));
  EXPECT_FALSE(table.NoteFailure(7));
  EXPECT_EQ(table.suspicion(7), 2u);
  EXPECT_TRUE(table.NoteFailure(7));
  // Crossing the threshold resets the counter: the next failure streak starts
  // from scratch.
  EXPECT_EQ(table.suspicion(7), 0u);
  EXPECT_FALSE(table.NoteFailure(7));
}

TEST(SuspicionTableTest, SuccessResetsTheStreak) {
  repair::SuspicionTable table(2);
  EXPECT_FALSE(table.NoteFailure(3));
  table.NoteSuccess(3);
  EXPECT_EQ(table.suspicion(3), 0u);
  // One dropped packet after a success never evicts.
  EXPECT_FALSE(table.NoteFailure(3));
  EXPECT_TRUE(table.NoteFailure(3));
}

TEST(SuspicionTableTest, ZeroThresholdDisablesDetection) {
  repair::SuspicionTable table(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(table.NoteFailure(1));
}

// ---- RepairEngine over a simulated grid ----

struct RepairFixture {
  ExchangeConfig config;
  Grid grid{128};
  Rng rng{11};
  OnlineModel online;
  std::unique_ptr<ExchangeEngine> exchange;
  MeetingScheduler scheduler{128};
  std::unique_ptr<ChurnDriver> driver;
  std::unique_ptr<SearchEngine> search;
  std::unique_ptr<repair::RepairEngine> repair;

  explicit RepairFixture(repair::RepairConfig rc = {}, uint64_t seed = 11)
      : rng(seed), online(OnlineModel::AlwaysOn(128)) {
    config.maxl = 4;
    config.refmax = 3;
    config.recmax = 2;
    config.recursion_fanout = 2;
    exchange = std::make_unique<ExchangeEngine>(&grid, config, &rng, &online);
    driver = std::make_unique<ChurnDriver>(&grid, exchange.get(), &scheduler,
                                           &online, &rng);
    GridBuilder builder(&grid, exchange.get(), &scheduler, &rng);
    builder.BuildToFractionOfMaxDepth(0.99, 1'000'000);
    search = std::make_unique<SearchEngine>(&grid, &online, &rng);
    repair = std::make_unique<repair::RepairEngine>(&grid, config, rc,
                                                    search.get(), &online, &rng);
    repair->set_liveness([this](PeerId p) { return !driver->IsDead(p); });
    repair->set_probe_fn(
        [this](PeerId, PeerId to) { return !driver->IsDead(to); });
  }

  void Crash(double fraction) {
    ChurnConfig cfg;
    cfg.crash_fraction = fraction;
    cfg.join_fraction = 0.0;
    cfg.meetings_per_round = 0;
    driver->Round(cfg);
  }

  check::InvariantReport ConvergenceReport(size_t min_live_refs) {
    check::InvariantOptions opt;
    opt.check_repair_convergence = true;
    opt.dead = &driver->dead_mask();
    opt.repair_min_live_refs = min_live_refs;
    opt.max_violations = 100000;
    return check::GridInvariants::Check(grid, config, opt);
  }

  uint64_t Counter(const char* name) {
    return grid.metrics().GetCounter(name)->value();
  }
};

TEST(RepairEngineTest, TicksHealAThirdCrashedGridToFullRefs) {
  RepairFixture f;
  f.Crash(0.30);

  // The crash wave leaves dangling references behind: the convergence check
  // must fail before repair runs.
  check::InvariantReport before = f.ConvergenceReport(f.config.refmax);
  EXPECT_GT(before.CountOf(check::Category::kDeadReference), 0u);

  repair::RepairTick total;
  for (int round = 0; round < 12; ++round) {
    repair::RepairTick t = f.repair->Tick();
    total.probes += t.probes;
    total.evictions += t.evictions;
    total.recruited += t.recruited;
  }
  EXPECT_GT(total.probes, 0u);
  EXPECT_GT(total.evictions, 0u);
  EXPECT_GT(total.recruited, 0u);

  // Fully healed: no live peer references a dead one, and every level is back
  // at refmax (or at the number of live candidates, whichever is smaller).
  check::InvariantReport after = f.ConvergenceReport(f.config.refmax);
  EXPECT_TRUE(after.ok()) << after.ToString();

  // The counters mirror the tick report.
  EXPECT_EQ(f.Counter("repair.evictions"), total.evictions);
  EXPECT_EQ(f.Counter("repair.recruitments"), total.recruited);
}

TEST(RepairEngineTest, PassiveArmDoesNotHeal) {
  repair::RepairConfig passive;
  passive.suspicion_threshold = 0;  // detection off
  passive.recruit = false;
  passive.anti_entropy = false;
  RepairFixture f(passive);
  f.Crash(0.30);
  for (int round = 0; round < 12; ++round) f.repair->Tick();
  check::InvariantReport after = f.ConvergenceReport(f.config.refmax);
  EXPECT_GT(after.CountOf(check::Category::kDeadReference), 0u);
}

TEST(RepairEngineTest, AntiEntropyReconcilesDivergedBuddies) {
  RepairFixture f;
  // Find a live buddy pair and desynchronize it by hand: one replica gets the
  // entry at version 5, the other never hears of it.
  PeerId a = kInvalidPeer, b = kInvalidPeer;
  for (PeerId p = 0; p < f.grid.size() && a == kInvalidPeer; ++p) {
    if (!f.grid.peer(p).buddies().empty()) {
      a = p;
      b = f.grid.peer(p).buddies().front();
    }
  }
  ASSERT_NE(a, kInvalidPeer) << "no buddy pair in the built grid";
  KeyPath key = f.grid.peer(a).path();  // overlaps both replicas by definition
  IndexEntry entry{/*holder=*/a, /*item_id=*/42, key, /*version=*/5};
  f.grid.peer(a).index().InsertOrRefresh(entry);
  ASSERT_NE(sim::IndexDigest(f.grid.peer(a).index()),
            sim::IndexDigest(f.grid.peer(b).index()));

  repair::RepairTick t = f.repair->Tick();
  EXPECT_GT(t.sync_sessions, 0u);
  EXPECT_GT(t.syncs_diverged, 0u);
  EXPECT_GT(t.entries_reconciled, 0u);
  EXPECT_EQ(f.grid.peer(b).index().LatestVersionOf(42), 5u);
  EXPECT_EQ(sim::IndexDigest(f.grid.peer(a).index()),
            sim::IndexDigest(f.grid.peer(b).index()));

  // A second round finds nothing left to reconcile for this pair.
  repair::RepairTick again = f.repair->Tick();
  EXPECT_EQ(again.entries_reconciled, 0u);
}

// Regression: with raw (unfinalized) per-entry FNV sums, this exact pair of
// entry sets -- same four identities, versions {1,1} on one side and {2,2} on
// the other -- produced EQUAL digests: FNV folds the trailing version word as
// (h ^ v) * p^8, and the two per-entry deltas cancelled across the commutative
// sum. Anti-entropy then judged the replicas "in sync" forever. The Mix64
// finalizer in sim::IndexDigest makes version skew visible again.
TEST(RepairEngineTest, IndexDigestSeesCancellingVersionSkew) {
  const KeyPath key = testing_util::Key("1101");
  LeafIndex stale, fresh;
  for (uint64_t version : {uint64_t{1}, uint64_t{2}}) {
    LeafIndex& index = version == 1 ? stale : fresh;
    index.InsertOrRefresh(IndexEntry{/*holder=*/212, /*item_id=*/33, key, version});
    index.InsertOrRefresh(IndexEntry{/*holder=*/235, /*item_id=*/97, key, version});
  }
  EXPECT_NE(sim::IndexDigest(stale), sim::IndexDigest(fresh));
}

TEST(RepairEngineTest, ReadRepairPatchesStaleMinority) {
  RepairFixture f;
  // Give every replica of one leaf the entry at version 7, except one straggler
  // stuck at version 1.
  PeerId holder = kInvalidPeer;
  std::vector<PeerId> replicas;
  for (PeerId p = 0; p < f.grid.size(); ++p) {
    replicas.clear();
    for (PeerId q = 0; q < f.grid.size(); ++q) {
      if (f.grid.peer(q).path() == f.grid.peer(p).path()) replicas.push_back(q);
    }
    if (replicas.size() >= 3) {
      holder = p;
      break;
    }
  }
  ASSERT_NE(holder, kInvalidPeer) << "no 3-fold replicated leaf in the grid";
  const KeyPath key = f.grid.peer(holder).path();
  const ItemId item = 99;
  for (size_t i = 0; i < replicas.size(); ++i) {
    const uint64_t version = (i == 0) ? 1 : 7;
    f.grid.peer(replicas[i]).index().InsertOrRefresh(
        IndexEntry{holder, item, key, version});
  }

  ReliableReadConfig read;
  read.quorum = 3;
  read.max_attempts = 64;
  repair::ReadRepairOutcome out = f.repair->ReadRepair(key, item, read);
  EXPECT_TRUE(out.decided);
  EXPECT_EQ(out.version, 7u);
  // Whether the straggler was patched depends on whether it answered a query;
  // what must never happen is a patch *away* from the majority.
  for (PeerId r : replicas) {
    const uint64_t v = f.grid.peer(r).index().LatestVersionOf(item);
    EXPECT_TRUE(v == 1u || v == 7u);
  }
  if (out.stale_replicas > 0) {
    EXPECT_GT(out.repaired_entries, 0u);
    EXPECT_EQ(f.grid.peer(replicas[0]).index().LatestVersionOf(item), 7u);
  }
}

TEST(RepairEngineTest, LedgerStaysExactThroughRepair) {
  // The grid's message counts move by exactly what each repair call reports
  // about itself: one kControl per delivered probe, sync session and
  // read-repair patch, one kDataTransfer per reconciled entry.
  RepairFixture f;
  f.Crash(0.25);
  const auto live = [&f](PeerId p) { return !f.driver->IsDead(p); };
  // Desynchronize one live buddy pair so anti-entropy has entries to move.
  PeerId a = kInvalidPeer;
  for (PeerId p = 0; p < f.grid.size() && a == kInvalidPeer; ++p) {
    for (PeerId b : f.grid.peer(p).buddies()) {
      if (live(p) && live(b)) a = p;
    }
  }
  ASSERT_NE(a, kInvalidPeer) << "no live buddy pair after the crash wave";
  f.grid.peer(a).index().InsertOrRefresh(
      IndexEntry{/*holder=*/a, /*item_id=*/42, f.grid.peer(a).path(), /*version=*/5});

  const MessageStats before = f.grid.stats();
  uint64_t control = 0;
  uint64_t transferred = 0;
  for (int round = 0; round < 6; ++round) {
    const repair::RepairTick tick = f.repair->Tick();
    control += tick.probes + tick.sync_sessions;
    transferred += tick.entries_reconciled;
  }
  EXPECT_GT(control, 0u);
  EXPECT_GT(transferred, 0u);

  // A stale minority for the read repair: every live peer responsible for one
  // key holds item 99 at version 7, except one straggler at version 1. Each
  // holds one entry of the item, so every patched entry is one patched replica.
  const KeyPath key = f.grid.peer(a).path();
  std::vector<PeerId> replicas;
  for (PeerId p = 0; p < f.grid.size(); ++p) {
    if (live(p) && PathsOverlap(f.grid.peer(p).path(), key)) replicas.push_back(p);
  }
  ASSERT_GE(replicas.size(), 3u);
  for (size_t i = 0; i < replicas.size(); ++i) {
    f.grid.peer(replicas[i]).index().InsertOrRefresh(
        IndexEntry{/*holder=*/a, /*item_id=*/99, key, i == 0 ? 1u : 7u});
  }
  ReliableReadConfig read;
  read.quorum = replicas.size();
  read.max_attempts = 256;
  const repair::ReadRepairOutcome out = f.repair->ReadRepair(key, 99, read);
  EXPECT_EQ(out.repaired_entries, 1u);  // the straggler answered and was patched
  control += out.repaired_entries;

  const MessageStats after = f.grid.stats();
  EXPECT_EQ(after.count(MessageType::kControl) - before.count(MessageType::kControl),
            control);
  EXPECT_EQ(after.count(MessageType::kDataTransfer) -
                before.count(MessageType::kDataTransfer),
            transferred);
}

TEST(RepairEngineTest, RepairScheduleIsDeterministic) {
  auto run = [] {
    RepairFixture f(repair::RepairConfig{}, 23);
    f.Crash(0.30);
    for (int round = 0; round < 8; ++round) f.repair->Tick();
    return sim::GridStateDigest(f.grid);
  };
  EXPECT_EQ(run(), run());
}

TEST(RepairEngineTest, SearchReliabilityRecoversAfterRepair) {
  RepairFixture f;
  f.Crash(0.30);

  auto success_rate = [&] {
    size_t ok = 0;
    const size_t trials = 300;
    for (size_t t = 0; t < trials; ++t) {
      PeerId start = f.driver->RandomLivePeer();
      if (f.search->Query(start, KeyPath::Random(&f.rng, 4)).found) ++ok;
    }
    return static_cast<double>(ok) / 300.0;
  };

  for (int round = 0; round < 12; ++round) f.repair->Tick();
  const double healed = success_rate();
  EXPECT_GT(healed, 0.95) << "healed grid must route reliably";
}

}  // namespace
}  // namespace pgrid
