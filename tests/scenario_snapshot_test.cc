// Snapshot round-trips of fuzzer-generated grids: persistence must preserve
// every invariant the live grid satisfied, and re-snapshotting the restored
// grid must reproduce the file byte for byte.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/invariants.h"
#include "sim/fuzzer.h"
#include "sim/scenario.h"
#include "snapshot/snapshot.h"

namespace pgrid {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ScenarioSnapshotTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScenarioSnapshotTest, RestoredFuzzedGridKeepsInvariants) {
  const uint64_t seed = GetParam();
  sim::Scenario scenario = sim::ScenarioFuzzer::Generate(seed);
  sim::ScenarioRunner runner(scenario);
  sim::ScenarioResult result = runner.Run();
  ASSERT_FALSE(result.failed) << result.report.ToString();

  const std::string path = ::testing::TempDir() + "/fuzzed_grid_" +
                           std::to_string(seed) + ".pgrid";
  ASSERT_TRUE(SaveGrid(runner.grid(), runner.exchange_config(), path).ok());

  Result<LoadedGrid> loaded = LoadGrid(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();

  // The restored grid satisfies everything the live one did. Its message
  // counts start fresh: snapshots persist state, not message history.
  check::InvariantOptions options;
  options.check_placement = scenario.config.manage_data;
  check::InvariantReport report = check::GridInvariants::Check(
      *loaded.value().grid, loaded.value().config, options);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Re-snapshotting the restored grid is byte-identical.
  const std::string path2 = path + ".resaved";
  ASSERT_TRUE(
      SaveGrid(*loaded.value().grid, loaded.value().config, path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2)) << "seed " << seed;

  std::remove(path.c_str());
  std::remove(path2.c_str());
}

INSTANTIATE_TEST_SUITE_P(FuzzedSeeds, ScenarioSnapshotTest,
                         ::testing::Values(1, 9, 17, 33));

}  // namespace
}  // namespace pgrid
