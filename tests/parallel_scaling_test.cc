// Scaling regression guard for the parallel builder (ctest labels: parallel,
// heavy). PR 6's profiler attributed the old negative scaling to a ~68%
// claim-conflict rate in the greedy wave partitioner; the edge-colored schedule
// (core/wave_schedule.h) removed the claim loop entirely. This test pins the
// structural half of the fix at paper-adjacent scale (4k peers): the
// claim-conflict rate is < 5% (in fact identically 0), and t=1 and t=4 build
// the same grid from one seed -- equal digests and meeting counts, one more
// determinism check at a scale the unit tests do not reach.
//
// The speed half -- t=4 meetings/s >= 1.5x t=1 on hosts with >= 4 cores, and no
// collapse below 0.5x t=1 on smaller ones -- is a wall-clock ratio. One 200 ms
// build cannot decide it: on a 4-core host the t=1 rate alone swung from 90k
// to 147k meetings/s between runs, and the ratio from 0.86 to 1.51. So the test
// only prints the ratio, and the scaling leg of tools/check.sh asserts it on
// the median of 5 runs of this test.

#include <cstdio>
#include <memory>
#include <thread>

#include "core/exchange.h"
#include "core/grid.h"
#include "core/parallel_builder.h"
#include "gtest/gtest.h"
#include "sim/digest.h"
#include "sim/meeting_scheduler.h"
#include "util/rng.h"

namespace pgrid {
namespace {

struct ScalingRun {
  std::unique_ptr<Grid> grid;
  BuildReport report;
  double conflict_rate = 0.0;
  uint64_t digest = 0;
  double MeetingsPerSecond() const {
    return report.seconds > 0
               ? static_cast<double>(report.meetings) / report.seconds
               : 0.0;
  }
};

ScalingRun Build4k(size_t threads) {
  constexpr size_t kPeers = 4000;
  ScalingRun out;
  ExchangeConfig config;
  config.maxl = 6;
  config.refmax = 4;
  config.recmax = 2;
  config.recursion_fanout = 2;
  config.manage_data = false;  // pure construction cost, as in T1-T5
  out.grid = std::make_unique<Grid>(kPeers);
  Rng master(4242);
  ExchangeEngine exchange(out.grid.get(), config, &master);
  MeetingScheduler scheduler(kPeers);
  ParallelBuildOptions options;
  options.threads = threads;
  options.batch_size = 256;
  options.profile = true;
  ParallelGridBuilder builder(out.grid.get(), &exchange, &scheduler, &master,
                              options);
  out.report = builder.BuildToFractionOfMaxDepth(0.99, 4'000'000);
  out.conflict_rate = builder.profile()->ClaimConflictRate();
  out.digest = sim::GridStateDigest(*out.grid);
  return out;
}

TEST(ParallelScalingTest, FourThreadsDoNotLoseToOneAndConflictsStayNearZero) {
  const ScalingRun t1 = Build4k(1);
  const ScalingRun t4 = Build4k(4);

  ASSERT_TRUE(t1.report.converged);
  ASSERT_TRUE(t4.report.converged);
  EXPECT_EQ(t1.digest, t4.digest);
  EXPECT_EQ(t1.report.meetings, t4.report.meetings);

  // The structural half of the fix: the precomputed schedule has no claim
  // retries, at any thread count. The issue's guard is < 5%; the design gives 0.
  EXPECT_LT(t1.conflict_rate, 0.05);
  EXPECT_LT(t4.conflict_rate, 0.05);
  EXPECT_DOUBLE_EQ(t4.conflict_rate, 0.0);

  // The speed half is asserted by the scaling leg of tools/check.sh, which
  // reads this line.
  const double r1 = t1.MeetingsPerSecond();
  const double r4 = t4.MeetingsPerSecond();
  ASSERT_GT(r1, 0.0);
  ASSERT_GT(r4, 0.0);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("cores=%u  t1=%.0f meet/s  t4=%.0f meet/s  ratio=%.2f  "
              "conflicts t4=%.4f%%\n",
              cores, r1, r4, r4 / r1, 100.0 * t4.conflict_rate);
}

}  // namespace
}  // namespace pgrid
