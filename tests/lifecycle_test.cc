// Whole-system integration test: one grid lives through its entire lifecycle --
// construction, routed inserts, searches, updates with reliable reads, persistence,
// and sustained churn -- with structural invariants checked at every stage.

#include <gtest/gtest.h>

#include <cstdio>

#include "check/invariants.h"
#include "core/churn.h"
#include "core/insert.h"
#include "core/search.h"
#include "core/update.h"
#include "snapshot/snapshot.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

TEST(LifecycleTest, FullSystemJourney) {
  // --- Stage 1: self-organization ---------------------------------------------
  const size_t initial_peers = 300;
  Grid grid(initial_peers);
  Rng rng(2024);
  ExchangeConfig config;
  config.maxl = 5;
  config.refmax = 4;
  config.recmax = 2;
  config.recursion_fanout = 2;
  config.prune_unreachable_refs = true;
  OnlineModel online = OnlineModel::AlwaysOn(initial_peers);
  ExchangeEngine exchange(&grid, config, &rng, &online);
  MeetingScheduler scheduler(initial_peers);
  GridBuilder builder(&grid, &exchange, &scheduler, &rng);
  BuildReport report = builder.BuildToFractionOfMaxDepth(0.99, 50'000'000);
  ASSERT_TRUE(report.converged);
  ASSERT_TRUE(check::GridInvariants::Check(grid, config).ok());

  // --- Stage 2: routed inserts --------------------------------------------------
  InsertEngine insert(&grid, &online, &rng);
  UpdateConfig propagation;
  propagation.recbreadth = 4;
  propagation.repetition = 2;
  std::vector<DataItem> catalog;
  for (ItemId id = 1; id <= 50; ++id) {
    DataItem item;
    item.id = id;
    item.key = KeyPath::Random(&rng, 10);
    item.payload = "doc-" + std::to_string(id);
    item.version = 1;
    PeerId holder = static_cast<PeerId>(rng.UniformIndex(grid.size()));
    ASSERT_TRUE(insert.Insert(item, holder, propagation).ok()) << "item " << id;
    catalog.push_back(item);
  }

  // --- Stage 3: everyone can find everything ------------------------------------
  SearchEngine search(&grid, &online, &rng);
  for (const DataItem& item : catalog) {
    QueryResult q = search.Query(static_cast<PeerId>(rng.UniformIndex(grid.size())),
                                 item.key);
    ASSERT_TRUE(q.found) << "item " << item.id;
  }

  // --- Stage 4: update + reliable read -------------------------------------------
  UpdateEngine update(&grid, &online, &rng);
  const DataItem& hot = catalog[7];
  UpdateConfig ucfg;
  ucfg.recbreadth = 4;
  ucfg.repetition = 3;
  UpdateOutcome uo = update.Propagate(hot.key, hot.id, /*version=*/2,
                                      UpdateStrategy::kBreadthFirst, ucfg);
  ASSERT_FALSE(uo.reached.empty());
  ReliableReadConfig rcfg;
  rcfg.quorum = 3;
  ReliableReadResult rr = search.ReadVersion(hot.key, hot.id, rcfg);
  EXPECT_TRUE(rr.decided);
  EXPECT_EQ(rr.version, 2u);

  // --- Stage 5: persistence round trip -------------------------------------------
  const std::string file = std::string(::testing::TempDir()) + "/lifecycle.pgrid";
  ASSERT_TRUE(SaveGrid(grid, config, file).ok());
  auto reloaded = LoadGrid(file);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(check::GridInvariants::Check(*reloaded->grid, reloaded->config).ok());
  {
    Rng rng2(99);
    SearchEngine search2(reloaded->grid.get(), nullptr, &rng2);
    QueryResult q = search2.Query(0, hot.key);
    ASSERT_TRUE(q.found);
    EXPECT_EQ(reloaded->grid->peer(q.responder).index().LatestVersionOf(hot.id), 2u);
  }
  std::remove(file.c_str());

  // --- Stage 6: sustained churn with repair ---------------------------------------
  ChurnDriver driver(&grid, &exchange, &scheduler, &online, &rng);
  ChurnConfig churn;
  churn.crash_fraction = 0.10;
  churn.leave_fraction = 0.05;
  churn.join_fraction = 0.15;
  churn.meetings_per_round = 8000;
  for (int round = 0; round < 4; ++round) {
    driver.Round(churn);
    check::InvariantReport report = check::GridInvariants::Check(grid, config);
    ASSERT_TRUE(report.ok()) << "after churn round " << round << ": "
                             << report.ToString();
  }
  // The structure remains navigable for the survivors.
  size_t ok = 0;
  const size_t probes = 300;
  for (size_t t = 0; t < probes; ++t) {
    PeerId start = driver.RandomLivePeer();
    if (search.Query(start, KeyPath::Random(&rng, config.maxl)).found) ++ok;
  }
  EXPECT_GT(static_cast<double>(ok) / probes, 0.95);

  // Data inserted before the churn is still overwhelmingly reachable: graceful
  // leavers handed their entries over, and only crashed holders are lost.
  size_t items_found = 0;
  for (const DataItem& item : catalog) {
    QueryResult q = search.Query(driver.RandomLivePeer(), item.key);
    if (q.found &&
        grid.peer(q.responder).index().LatestVersionOf(item.id) > 0) {
      ++items_found;
    }
  }
  EXPECT_GT(items_found, catalog.size() / 2);
}

}  // namespace
}  // namespace pgrid
