// Determinism and exact counts of the parallel query workload runner.
//
// Searches are read-only, so the interesting property is the accounting
// (core/parallel_workload.h): found/message totals must be a pure function of
// (grid state, seed) -- never of the thread count -- and every counter the serial
// path keeps exact must stay exact: the grid's kQuery count and the per-peer
// query_load sums.

#include "core/parallel_workload.h"

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"
#include "sim/online_model.h"
#include "test_util.h"

namespace pgrid {
namespace {

using testing_util::Build;
using testing_util::BuiltGrid;

ParallelQueryOptions Options(size_t threads, uint64_t num_queries,
                             uint64_t seed = 31) {
  ParallelQueryOptions options;
  options.threads = threads;
  options.num_queries = num_queries;
  options.key_length = 8;
  options.seed = seed;
  return options;
}

TEST(ParallelWorkloadTest, RunsAllQueriesAndFindsMost) {
  BuiltGrid built = Build(400, /*maxl=*/5, /*refmax=*/4, /*recmax=*/2, /*seed=*/3);
  ParallelQueryReport report =
      RunParallelQueries(built.grid.get(), nullptr, Options(2, 2000));
  EXPECT_EQ(report.queries, 2000u);
  EXPECT_GT(report.found, 0u);
  EXPECT_GT(report.messages, 0u);
  // Fully online, converged grid: the overwhelming majority of lookups succeed.
  EXPECT_GT(report.found, report.queries * 9 / 10);
  // Chunk timing needs no option: one busy sum per lane, and a utilization.
  EXPECT_EQ(report.lane_busy_ns.size(), 2u);
  EXPECT_GT(report.utilization, 0.0);
}

TEST(ParallelWorkloadTest, ThreadCountDoesNotChangeTheOutcome) {
  // Three identically built grids, queried at 1, 2, and 8 threads with the same
  // seed: found/message totals must agree exactly.
  ParallelQueryReport reports[3];
  const size_t threads[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    BuiltGrid built = Build(400, 5, 4, 2, /*seed=*/17);
    reports[i] =
        RunParallelQueries(built.grid.get(), nullptr, Options(threads[i], 3000));
  }
  EXPECT_EQ(reports[0].queries, reports[1].queries);
  EXPECT_EQ(reports[0].found, reports[1].found);
  EXPECT_EQ(reports[0].found, reports[2].found);
  EXPECT_EQ(reports[0].messages, reports[1].messages);
  EXPECT_EQ(reports[0].messages, reports[2].messages);
}

TEST(ParallelWorkloadTest, GridLedgerAndMetricsStayExact) {
  BuiltGrid built = Build(400, 5, 4, 2, /*seed=*/23);
  const uint64_t queries_before =
      built.grid->stats().count(MessageType::kQuery);
  const std::vector<uint64_t> load_before = built.grid->query_load();
  const uint64_t load_sum_before =
      std::accumulate(load_before.begin(), load_before.end(), uint64_t{0});

  ParallelQueryReport report =
      RunParallelQueries(built.grid.get(), nullptr, Options(4, 2500));

  // The grid counted exactly the messages the queries report...
  EXPECT_EQ(built.grid->stats().count(MessageType::kQuery) - queries_before,
            report.messages);
  // ...and every served message incremented exactly one per-peer load counter.
  const std::vector<uint64_t> load_after = built.grid->query_load();
  const uint64_t load_sum_after =
      std::accumulate(load_after.begin(), load_after.end(), uint64_t{0});
  EXPECT_EQ(load_sum_after - load_sum_before, report.messages);
}

TEST(ParallelWorkloadTest, SeedChangesTheWorkload) {
  BuiltGrid built = Build(300, 5, 4, 2, /*seed=*/29);
  ParallelQueryReport a =
      RunParallelQueries(built.grid.get(), nullptr, Options(2, 2000, /*seed=*/1));
  ParallelQueryReport b =
      RunParallelQueries(built.grid.get(), nullptr, Options(2, 2000, /*seed=*/2));
  // Different seeds draw different keys and entry points; message totals over
  // thousands of routed queries collide with negligible probability.
  EXPECT_NE(a.messages, b.messages);
}

TEST(ParallelWorkloadTest, ThreadCountInvariantUnderAnOnlineModel) {
  // kSnapshot freezes per-peer availability at construction, so IsOnline is a
  // read-only table lookup -- safe and deterministic from any thread.
  ParallelQueryReport reports[2];
  const size_t threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    BuiltGrid built = Build(400, 5, 4, 2, /*seed=*/41);
    Rng model_rng(99);
    OnlineModel online(OnlineMode::kSnapshot, built.grid->size(), /*p=*/0.7,
                       &model_rng);
    reports[i] =
        RunParallelQueries(built.grid.get(), &online, Options(threads[i], 2000));
  }
  EXPECT_EQ(reports[0].found, reports[1].found);
  EXPECT_EQ(reports[0].messages, reports[1].messages);
  // With 30% of peers offline some lookups fail, but not all.
  EXPECT_GT(reports[0].found, 0u);
  EXPECT_LT(reports[0].found, reports[0].queries);
}

TEST(ParallelWorkloadTest, ZeroQueriesIsANoOp) {
  BuiltGrid built = Build(200, 4, 4, 2, /*seed=*/2);
  const uint64_t before = built.grid->stats().count(MessageType::kQuery);
  ParallelQueryReport report =
      RunParallelQueries(built.grid.get(), nullptr, Options(4, 0));
  EXPECT_EQ(report.queries, 0u);
  EXPECT_EQ(report.found, 0u);
  EXPECT_EQ(report.messages, 0u);
  EXPECT_EQ(built.grid->stats().count(MessageType::kQuery), before);
}

}  // namespace
}  // namespace pgrid
