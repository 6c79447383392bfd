#include "core/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "check/invariants.h"
#include "core/search.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

using check::Category;
using check::GridInvariants;
using testing_util::Key;

TEST(StatsTest, HistogramsCoverAllPeers) {
  auto built = testing_util::Build(200, 5, 2, 2, 1);
  auto path_hist = GridStats::PathLengthHistogram(*built.grid);
  size_t total = 0;
  for (const auto& [len, count] : path_hist) {
    EXPECT_LE(len, 5u);
    total += count;
  }
  EXPECT_EQ(total, 200u);

  auto replica_hist = GridStats::ReplicaHistogram(*built.grid);
  total = 0;
  for (const auto& [factor, count] : replica_hist) {
    EXPECT_GE(factor, 1u);
    total += count;
  }
  EXPECT_EQ(total, 200u);
}

TEST(StatsTest, ReplicaCountsSumToCommunitySize) {
  auto built = testing_util::Build(128, 4, 2, 2, 2);
  auto counts = GridStats::ReplicaCounts(*built.grid);
  size_t total = 0;
  for (const auto& [path, count] : counts) total += count;
  EXPECT_EQ(total, 128u);
}

TEST(StatsTest, AverageReplicationFactorNearExpectation) {
  // 256 peers over 2^4 = 16 leaves: about 16 replicas per path on average.
  auto built = testing_util::Build(256, 4, 4, 2, 3);
  double avg = GridStats::AverageReplicationFactor(*built.grid);
  EXPECT_GT(avg, 8.0);
  EXPECT_LT(avg, 32.0);
}

TEST(StatsTest, ReplicasOfMatchesManualScan) {
  auto built = testing_util::Build(128, 4, 2, 2, 4);
  Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    KeyPath key = KeyPath::Random(&rng, 4);
    auto replicas = GridStats::ReplicasOf(*built.grid, key);
    size_t manual = 0;
    for (const PeerState& p : *built.grid) {
      if (PathsOverlap(p.path(), key)) ++manual;
    }
    EXPECT_EQ(replicas.size(), manual);
    for (PeerId r : replicas) {
      EXPECT_TRUE(PathsOverlap(built.grid->peer(r).path(), key));
    }
  }
}

TEST(StatsTest, EveryCompleteKeyHasAReplicaAfterConvergence) {
  auto built = testing_util::Build(256, 4, 2, 2, 6);
  ASSERT_TRUE(built.report.converged);
  for (uint64_t k = 0; k < 16; ++k) {
    EXPECT_FALSE(
        GridStats::ReplicasOf(*built.grid, KeyPath::FromUint64(k, 4)).empty())
        << "key " << KeyPath::FromUint64(k, 4) << " unserved";
  }
}

TEST(StatsTest, StorageMetricsAreLogarithmicInGridDepth) {
  auto built = testing_util::Build(256, 5, 2, 2, 7);
  // Each peer holds at most maxl * refmax routing references.
  EXPECT_LE(GridStats::MaxTotalRefs(*built.grid), 5u * 2u);
  EXPECT_GT(GridStats::AverageTotalRefs(*built.grid), 1.0);
}

TEST(StatsTest, QueryLoadProfileOnIdleGridIsZero) {
  Grid grid(10);
  GridStats::LoadProfile p = GridStats::QueryLoadProfile(grid);
  EXPECT_EQ(p.mean, 0.0);
  EXPECT_EQ(p.max, 0u);
  EXPECT_EQ(p.idle_peers, 10u);
}

TEST(StatsTest, QueryLoadProfileSummarizesServedCounts) {
  Grid grid(4);
  for (int i = 0; i < 10; ++i) grid.NoteServed(0);
  for (int i = 0; i < 2; ++i) grid.NoteServed(1);
  grid.NoteServed(2);
  GridStats::LoadProfile p = GridStats::QueryLoadProfile(grid);
  EXPECT_DOUBLE_EQ(p.mean, 13.0 / 4.0);
  EXPECT_EQ(p.max, 10u);
  EXPECT_EQ(p.idle_peers, 1u);
  EXPECT_NEAR(p.imbalance, 10.0 / (13.0 / 4.0), 1e-9);
  grid.ResetQueryLoad();
  EXPECT_EQ(GridStats::QueryLoadProfile(grid).max, 0u);
}

TEST(StatsTest, SearchLoadIsSpreadAcrossPeers) {
  // Route a workload and confirm no peer serves a disproportionate share.
  auto built = testing_util::Build(256, 4, 4, 2, 8);
  Rng rng(9);
  SearchEngine search(built.grid.get(), nullptr, &rng);
  built.grid->ResetQueryLoad();
  for (int q = 0; q < 5000; ++q) {
    (void)search.Query(static_cast<PeerId>(rng.UniformIndex(256)),
                       KeyPath::Random(&rng, 4));
  }
  GridStats::LoadProfile p = GridStats::QueryLoadProfile(*built.grid);
  EXPECT_GT(p.mean, 0.0);
  EXPECT_LT(p.imbalance, 8.0);  // no hot spot orders of magnitude above the mean
  EXPECT_LT(p.idle_peers, 256u / 4);
}

// The structure checker is GridInvariants; these pin it on the smallest
// grid that breaks each rule.

TEST(StatsTest, CheckInvariantsAcceptsFreshGrid) {
  Grid grid(10);
  ExchangeConfig cfg;
  EXPECT_TRUE(GridInvariants::Check(grid, cfg).ok());
}

TEST(StatsTest, CheckInvariantsDetectsSelfReference) {
  Grid grid(2);
  grid.peer(0).AppendPathBit(0);
  grid.peer(0).AddRefAt(1, 0);  // self-reference
  ExchangeConfig cfg;
  EXPECT_EQ(GridInvariants::Check(grid, cfg).CountOf(Category::kSelfReference), 1u);
}

TEST(StatsTest, CheckInvariantsDetectsWrongComplementBit) {
  Grid grid(2);
  grid.peer(0).AppendPathBit(0);
  grid.peer(1).AppendPathBit(0);  // same bit: not a valid level-1 reference
  grid.peer(0).AddRefAt(1, 1);
  ExchangeConfig cfg;
  EXPECT_EQ(GridInvariants::Check(grid, cfg).CountOf(Category::kReference), 1u);
}

TEST(StatsTest, CheckInvariantsDetectsTooShortReferencePath) {
  Grid grid(2);
  grid.peer(0).AppendPathBit(0);
  grid.peer(0).AppendPathBit(0);
  grid.peer(1).AppendPathBit(1);
  grid.peer(0).AddRefAt(2, 1);  // target has depth 1 < level 2
  ExchangeConfig cfg;
  EXPECT_EQ(GridInvariants::Check(grid, cfg).CountOf(Category::kReference), 1u);
}

TEST(StatsTest, CheckInvariantsDetectsRefmaxViolation) {
  Grid grid(4);
  grid.peer(0).AppendPathBit(0);
  for (PeerId p = 1; p < 4; ++p) {
    grid.peer(p).AppendPathBit(1);
    grid.peer(0).AddRefAt(1, p);
  }
  ExchangeConfig cfg;
  cfg.refmax = 2;
  EXPECT_EQ(GridInvariants::Check(grid, cfg).CountOf(Category::kRefmax), 1u);
}

TEST(StatsTest, CheckInvariantsDetectsMaxlViolation) {
  Grid grid(1);
  grid.peer(0).AppendPathBit(0);
  grid.peer(0).AppendPathBit(1);
  ExchangeConfig cfg;
  cfg.maxl = 1;
  EXPECT_EQ(GridInvariants::Check(grid, cfg).CountOf(Category::kMaxl), 1u);
}

TEST(StatsTest, CheckInvariantsDetectsBadBuddy) {
  Grid grid(2);
  grid.peer(0).AppendPathBit(0);
  grid.peer(1).AppendPathBit(1);
  grid.peer(0).AddBuddy(1);  // different path: invalid buddy
  ExchangeConfig cfg;
  EXPECT_EQ(GridInvariants::Check(grid, cfg).CountOf(Category::kBuddy), 1u);
}

}  // namespace
}  // namespace pgrid
