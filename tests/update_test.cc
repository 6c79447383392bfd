#include "core/update.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/search.h"
#include "core/stats.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

using testing_util::Key;

UpdateConfig Params(size_t recbreadth, size_t repetition) {
  UpdateConfig cfg;
  cfg.recbreadth = recbreadth;
  cfg.repetition = repetition;
  return cfg;
}

bool Reached(const UpdateOutcome& o, PeerId p) {
  return std::find(o.reached.begin(), o.reached.end(), p) != o.reached.end();
}

TEST(UpdateTest, EveryReachedPeerIsAReplica) {
  auto built = testing_util::Build(256, 5, 3, 2, 1);
  Rng rng(2);
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  for (auto strategy : {UpdateStrategy::kRepeatedDfs, UpdateStrategy::kRepeatedDfsBuddies,
                        UpdateStrategy::kBreadthFirst}) {
    for (int t = 0; t < 30; ++t) {
      KeyPath key = KeyPath::Random(&rng, 4);
      UpdateOutcome o = update.Probe(key, strategy, Params(2, 3));
      auto replicas = GridStats::ReplicasOf(*built.grid, key);
      for (PeerId p : o.reached) {
        EXPECT_NE(std::find(replicas.begin(), replicas.end(), p), replicas.end())
            << UpdateStrategyName(strategy) << " reached non-replica " << p;
      }
    }
  }
}

TEST(UpdateTest, DfsReachesAtMostOneReplicaPerRepetition) {
  auto built = testing_util::Build(256, 5, 2, 2, 3);
  Rng rng(4);
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  for (size_t reps : {1u, 2u, 5u}) {
    UpdateOutcome o =
        update.Probe(KeyPath::Random(&rng, 5), UpdateStrategy::kRepeatedDfs,
                     Params(1, reps));
    EXPECT_LE(o.reached.size(), reps);
  }
}

TEST(UpdateTest, BuddiesExtendDfsCoverage) {
  // With data management on, replicas at maxl know their buddies; the buddy variant
  // must reach at least as many replicas as plain DFS for the same repetition count.
  auto built = testing_util::Build(512, 4, 3, 2, 5);
  Rng rng(6);
  size_t dfs_total = 0, buddy_total = 0;
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  for (int t = 0; t < 40; ++t) {
    KeyPath key = KeyPath::Random(&rng, 4);
    dfs_total +=
        update.Probe(key, UpdateStrategy::kRepeatedDfs, Params(1, 3)).reached.size();
    buddy_total +=
        update.Probe(key, UpdateStrategy::kRepeatedDfsBuddies, Params(1, 3))
            .reached.size();
  }
  EXPECT_GE(buddy_total, dfs_total);
}

TEST(UpdateTest, ReportedMessagesMatchTheGridCounts) {
  // What each propagation reports it spent is what the grid counted: kUpdate
  // for breadth-first hops and buddy notifications, kQuery for the searches a
  // depth-first pass routes through.
  auto built = testing_util::Build(512, 4, 3, 2, 5);
  Rng rng(6);
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  for (auto strategy : {UpdateStrategy::kRepeatedDfs, UpdateStrategy::kRepeatedDfsBuddies,
                        UpdateStrategy::kBreadthFirst}) {
    const MessageStats before = built.grid->stats();
    uint64_t reported = 0;
    for (ItemId item = 1; item <= 20; ++item) {
      reported += update
                      .Propagate(KeyPath::Random(&rng, 4), item, /*version=*/2,
                                 strategy, Params(2, 3))
                      .messages;
    }
    const MessageStats after = built.grid->stats();
    const uint64_t updates =
        after.count(MessageType::kUpdate) - before.count(MessageType::kUpdate);
    const uint64_t queries =
        after.count(MessageType::kQuery) - before.count(MessageType::kQuery);
    const char* name = UpdateStrategyName(strategy);
    EXPECT_EQ(updates + queries, reported) << name;
    if (strategy == UpdateStrategy::kBreadthFirst) {
      EXPECT_EQ(queries, 0u) << name;
    } else {
      EXPECT_GT(queries, 0u) << name;
    }
    if (strategy == UpdateStrategy::kRepeatedDfs) {
      EXPECT_EQ(updates, 0u) << name;
    } else {
      EXPECT_GT(updates, 0u) << name;
    }
  }
}

TEST(UpdateTest, BfsReachesMoreReplicasThanDfs) {
  // The paper's Fig. 5 headline: breadth-first search is by far superior.
  auto built = testing_util::Build(512, 4, 4, 2, 7);
  Rng rng(8);
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  size_t dfs_total = 0, bfs_total = 0;
  for (int t = 0; t < 40; ++t) {
    KeyPath key = KeyPath::Random(&rng, 4);
    dfs_total +=
        update.Probe(key, UpdateStrategy::kRepeatedDfs, Params(1, 3)).reached.size();
    bfs_total +=
        update.Probe(key, UpdateStrategy::kBreadthFirst, Params(3, 3)).reached.size();
  }
  EXPECT_GT(bfs_total, dfs_total);
}

TEST(UpdateTest, BfsWithFullFanoutFindsLargeReplicaFraction) {
  auto built = testing_util::Build(512, 4, 4, 2, 9);
  Rng rng(10);
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  double fraction_sum = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    KeyPath key = KeyPath::Random(&rng, 4);
    auto replicas = GridStats::ReplicasOf(*built.grid, key);
    ASSERT_FALSE(replicas.empty());
    UpdateOutcome o =
        update.Probe(key, UpdateStrategy::kBreadthFirst, Params(8, 4));
    fraction_sum +=
        static_cast<double>(o.reached.size()) / static_cast<double>(replicas.size());
  }
  EXPECT_GT(fraction_sum / trials, 0.5);
}

TEST(UpdateTest, PropagateBumpsVersionsAtReachedReplicas) {
  auto built = testing_util::Build(256, 4, 3, 2, 11);
  Rng rng(12);
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(1, 256, gen, &rng, &holders);
  SeedGridPerfectly(built.grid.get(), corpus, holders);
  const DataItem& item = corpus[0];
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  UpdateOutcome o = update.Propagate(item.key, item.id, /*version=*/2,
                                     UpdateStrategy::kBreadthFirst, Params(4, 2));
  ASSERT_FALSE(o.reached.empty());
  for (PeerId p : o.reached) {
    EXPECT_EQ(built.grid->peer(p).index().LatestVersionOf(item.id), 2u)
        << "replica " << p << " not bumped";
  }
}

TEST(UpdateTest, UnreachedReplicasStayStale) {
  auto built = testing_util::Build(256, 4, 3, 2, 13);
  Rng rng(14);
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  std::vector<PeerId> holders;
  auto corpus = MakeCorpus(1, 256, gen, &rng, &holders);
  SeedGridPerfectly(built.grid.get(), corpus, holders);
  const DataItem& item = corpus[0];
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  // Minimal effort: one DFS pass reaches exactly one replica.
  UpdateOutcome o = update.Propagate(item.key, item.id, 2,
                                     UpdateStrategy::kRepeatedDfs, Params(1, 1));
  auto replicas = GridStats::ReplicasOf(*built.grid, item.key);
  ASSERT_GT(replicas.size(), 1u);
  size_t stale = 0;
  for (PeerId p : replicas) {
    if (!Reached(o, p) &&
        built.grid->peer(p).index().LatestVersionOf(item.id) == 1u) {
      ++stale;
    }
  }
  EXPECT_GT(stale, 0u);
}

TEST(UpdateTest, MoreRepetitionsNeverReachFewerReplicas) {
  auto built = testing_util::Build(256, 4, 3, 2, 15);
  // Use the same seed per repetition level for a paired comparison in expectation;
  // strictly we only require a monotone *average*.
  double avg[3] = {0, 0, 0};
  const size_t reps[3] = {1, 3, 6};
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    for (int i = 0; i < 3; ++i) {
      Rng rng(1000 + t * 17 + i);
      UpdateEngine eng(built.grid.get(), nullptr, &rng);
      Rng keyrng(500 + t);
      KeyPath key = KeyPath::Random(&keyrng, 4);
      avg[i] += static_cast<double>(
          eng.Probe(key, UpdateStrategy::kBreadthFirst, Params(2, reps[i]))
              .reached.size());
    }
  }
  EXPECT_LE(avg[0], avg[1]);
  EXPECT_LE(avg[1], avg[2]);
}

TEST(UpdateTest, MessagesScaleWithRecbreadth) {
  auto built = testing_util::Build(512, 5, 4, 2, 17);
  Rng rng(18);
  UpdateEngine update(built.grid.get(), nullptr, &rng);
  uint64_t low = 0, high = 0;
  for (int t = 0; t < 20; ++t) {
    KeyPath key = KeyPath::Random(&rng, 5);
    low += update.Probe(key, UpdateStrategy::kBreadthFirst, Params(1, 1)).messages;
    high += update.Probe(key, UpdateStrategy::kBreadthFirst, Params(4, 1)).messages;
  }
  EXPECT_GT(high, low);
}

TEST(UpdateTest, OfflineReplicasAreMissed) {
  auto built = testing_util::Build(256, 4, 3, 2, 19);
  Rng rng(20);
  OnlineModel online(OnlineMode::kSnapshot, 256, 0.3, &rng);
  UpdateEngine update(built.grid.get(), &online, &rng);
  for (int t = 0; t < 20; ++t) {
    KeyPath key = KeyPath::Random(&rng, 4);
    UpdateOutcome o = update.Probe(key, UpdateStrategy::kBreadthFirst, Params(4, 2));
    for (PeerId p : o.reached) {
      EXPECT_TRUE(online.IsOnline(p, &rng)) << "offline replica " << p << " reached";
    }
  }
}

TEST(UpdateTest, StrategyNamesAreStable) {
  EXPECT_STREQ(UpdateStrategyName(UpdateStrategy::kRepeatedDfs), "dfs");
  EXPECT_STREQ(UpdateStrategyName(UpdateStrategy::kRepeatedDfsBuddies), "dfs+buddies");
  EXPECT_STREQ(UpdateStrategyName(UpdateStrategy::kBreadthFirst), "bfs");
}

}  // namespace
}  // namespace pgrid
