#include "core/grid_builder.h"

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "core/stats.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

TEST(GridBuilderTest, ConvergesOnSmallCommunity) {
  auto built = testing_util::Build(100, 4, 1, 2, 1);
  EXPECT_TRUE(built.report.converged);
  EXPECT_GE(built.report.avg_path_length, 0.99 * 4);
  EXPECT_GT(built.report.meetings, 0u);
  EXPECT_GE(built.report.exchanges, built.report.meetings);
}

TEST(GridBuilderTest, RespectsMeetingBudget) {
  Grid grid(100);
  Rng rng(2);
  ExchangeConfig cfg;
  cfg.maxl = 6;
  ExchangeEngine exchange(&grid, cfg, &rng);
  MeetingScheduler scheduler(100);
  GridBuilder builder(&grid, &exchange, &scheduler, &rng);
  BuildReport report = builder.BuildToAverageDepth(6.0, /*max_meetings=*/10);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.meetings, 10u);
}

TEST(GridBuilderTest, AveragePathLengthCounterMatchesDirectScan) {
  auto built = testing_util::Build(150, 4, 2, 2, 3);
  double direct = 0;
  for (const PeerState& p : *built.grid) direct += static_cast<double>(p.depth());
  direct /= static_cast<double>(built.grid->size());
  EXPECT_DOUBLE_EQ(built.grid->AveragePathLength(), direct);
  EXPECT_DOUBLE_EQ(built.report.avg_path_length, direct);
}

TEST(GridBuilderTest, ZeroThresholdConvergesImmediately) {
  Grid grid(10);
  Rng rng(4);
  ExchangeConfig cfg;
  ExchangeEngine exchange(&grid, cfg, &rng);
  MeetingScheduler scheduler(10);
  GridBuilder builder(&grid, &exchange, &scheduler, &rng);
  BuildReport report = builder.BuildToAverageDepth(0.0, 100);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.meetings, 0u);
}

TEST(GridBuilderTest, ExchangesPerPeerRoughlyConstantAcrossScale) {
  // The paper's T1 claim: e/N is flat in N. Allow a generous band; the point is the
  // absence of superlinear growth.
  double ratio_small, ratio_large;
  {
    auto built = testing_util::Build(100, 4, 1, 2, 5);
    ratio_small = static_cast<double>(built.report.exchanges) / 100.0;
  }
  {
    auto built = testing_util::Build(400, 4, 1, 2, 5);
    ratio_large = static_cast<double>(built.report.exchanges) / 400.0;
  }
  EXPECT_LT(ratio_large, ratio_small * 2.0);
  EXPECT_GT(ratio_large, ratio_small / 2.0);
}

TEST(GridBuilderTest, PathLengthDistributionIsTight) {
  // maxl bounds specialization; after convergence to 99% of maxl the distribution
  // must concentrate on {maxl-1, maxl}.
  auto built = testing_util::Build(300, 5, 1, 2, 6);
  ASSERT_TRUE(built.report.converged);
  auto hist = GridStats::PathLengthHistogram(*built.grid);
  size_t at_top = 0;
  for (const auto& [len, count] : hist) {
    if (len >= 4) at_top += count;
  }
  EXPECT_GT(static_cast<double>(at_top) / 300.0, 0.9);
}

// Convergence + invariants across seeds (randomized property check).
class GridBuilderSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridBuilderSeedTest, ConvergesAndKeepsInvariants) {
  auto built = testing_util::Build(150, 4, 2, 2, GetParam());
  EXPECT_TRUE(built.report.converged);
  check::InvariantReport report = check::GridInvariants::Check(*built.grid, built.config);
  EXPECT_TRUE(report.ok()) << "seed " << GetParam() << ": " << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridBuilderSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace pgrid
