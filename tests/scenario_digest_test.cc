// Pins the final-state digests of generated simulator scenarios.
//
// For seeds 1-8 of each generator mode -- plain, heal-tail, crash-sweep,
// macro-sweep and thread-sweep -- the scenario ScenarioFuzzer::Generate derives
// is run once, must pass every invariant barrier, and must end in the digest
// recorded here. The digest folds every peer's path, references and leaf index,
// the five message counts, the virtual clock and the live population
// (sim/scenario.h), so a refactor of the engines, the message accounting or the
// parallel builder that changes any simulated outcome shows up as a mismatch.
//
// Like node_fingerprint_test, the values depend on the standard library's
// distributions (std::uniform_int_distribution and friends in util/rng.h), whose
// algorithms the C++ standard leaves to the implementation: they were recorded
// with libstdc++ and hold on any host that builds with it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/fuzzer.h"

namespace pgrid {
namespace sim {
namespace {

constexpr uint64_t kSeeds = 8;

/// Runs seeds 1..kSeeds of the generator configured by `options` and compares
/// each digest with `expected[seed - 1]`.
void ExpectDigests(const FuzzOptions& options, const char* const (&expected)[kSeeds]) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const ScenarioResult result = RunScenario(ScenarioFuzzer::Generate(seed, options));
    EXPECT_FALSE(result.failed) << "seed " << seed << " failed at step "
                                << result.failed_step << ":\n"
                                << result.report.ToString();
    EXPECT_EQ(result.digest, expected[seed - 1]) << "seed " << seed;
  }
}

TEST(ScenarioDigestTest, Plain) {
  const char* const kExpected[kSeeds] = {
      "9cd92c3fb78eae81", "81859bc6d4e8f601", "e3a24e601aaf0f19", "1f8d407f4ead5994",
      "4c3514f4bae860bb", "9e32ff072004653a", "2c91de3bef96c192", "2eb122953c72d421",
  };
  ExpectDigests(FuzzOptions{}, kExpected);
}

TEST(ScenarioDigestTest, HealTail) {
  const char* const kExpected[kSeeds] = {
      "f73e24e6407fdf15", "658b0da1c7d97c04", "fe6b454906b69d43", "d268068e5c0d6591",
      "37373f2fa53d1d9b", "75845e61d4cb0678", "1d9d945c88dff9ee", "da213add88331df6",
  };
  FuzzOptions options;
  options.corpus = FuzzCorpus::kHealTail;
  ExpectDigests(options, kExpected);
}

TEST(ScenarioDigestTest, CrashSweep) {
  const char* const kExpected[kSeeds] = {
      "16a8182b9239f4a3", "f99768eda77c004e", "95d077b21f61dd16", "614d6eb515138302",
      "feee28a39fd3d17e", "031d62998f0b0fb0", "10dccd53dba32be0", "fadf732c9f444e75",
  };
  FuzzOptions options;
  options.corpus = FuzzCorpus::kCrash;
  ExpectDigests(options, kExpected);
}

TEST(ScenarioDigestTest, MacroSweep) {
  const char* const kExpected[kSeeds] = {
      "a6377c38ac0db50e", "7fde724bb6db0383", "1eb34005f85fe69a", "5c69d88b82a45f0c",
      "8f83ded28eb6b003", "6ca07377c6635e4e", "09530c733f33b16b", "fe4a5f7bb6fe248d",
  };
  FuzzOptions options;
  options.corpus = FuzzCorpus::kMacro;
  ExpectDigests(options, kExpected);
}

TEST(ScenarioDigestTest, ThreadSweep) {
  // Each seed draws its own builder thread count (1, 2, 4 or 8); the digest of
  // a thread count >= 1 is the same at every other such count.
  const char* const kExpected[kSeeds] = {
      "f9715f1e3146bfa4", "2cbb9187b8ffb1a0", "c537044837995f24", "e7d064e8cbb5414d",
      "51ca292844532fce", "bdf8fc07abd31376", "26135eb7493d4d32", "89c388ebd09b20bf",
  };
  FuzzOptions options;
  options.vary_builder_threads = true;
  ExpectDigests(options, kExpected);
}

}  // namespace
}  // namespace sim
}  // namespace pgrid
