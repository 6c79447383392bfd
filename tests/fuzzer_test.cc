#include "sim/fuzzer.h"

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "sim/digest.h"

namespace pgrid {
namespace sim {
namespace {

TEST(ScenarioFuzzerTest, GenerationIsDeterministic) {
  Scenario a = ScenarioFuzzer::Generate(123);
  Scenario b = ScenarioFuzzer::Generate(123);
  EXPECT_EQ(a, b);
  // And the serialized trace is byte-identical -- the replay-file guarantee.
  EXPECT_EQ(SerializeScenario(a), SerializeScenario(b));
  EXPECT_NE(SerializeScenario(a), SerializeScenario(ScenarioFuzzer::Generate(124)));
}

TEST(ScenarioFuzzerTest, GeneratedScenariosRespectBounds) {
  FuzzOptions options;
  options.min_peers = 8;
  options.max_peers = 20;
  options.min_steps = 5;
  options.max_steps = 12;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario s = ScenarioFuzzer::Generate(seed, options);
    EXPECT_GE(s.config.num_peers, options.min_peers);
    EXPECT_LE(s.config.num_peers, options.max_peers);
    // +1 for the warm-up exchange step.
    EXPECT_GE(s.steps.size(), options.min_steps + 1);
    EXPECT_LE(s.steps.size(), options.max_steps + 1);
    EXPECT_EQ(s.config.seed, seed);
    for (const ScenarioStep& step : s.steps) {
      EXPECT_NE(step.kind, StepKind::kCorrupt);  // never generated, test-only
    }
  }
}

TEST(ScenarioFuzzerTest, SameSeedSameExecutionDigest) {
  Scenario s = ScenarioFuzzer::Generate(7);
  ScenarioResult a = RunScenario(s);
  ScenarioResult b = RunScenario(s);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.failed, b.failed);
}

// Pins the generator itself: for each corpus, with and without the thread
// sweep, the scenario text of seeds 1-500 folds into one digest recorded here.
// No scenario runs, so this costs milliseconds, and it catches a draw-order slip
// in a step kind that the few seeds scenario_digest_test runs rarely draw.
TEST(ScenarioFuzzerTest, GeneratedScenarioTextIsPinned) {
  struct Pin {
    FuzzCorpus corpus;
    bool vary_builder_threads;
    const char* digest;
  };
  const Pin kPins[] = {
      {FuzzCorpus::kPlain, false, "012a5142cb6a744a"},
      {FuzzCorpus::kHealTail, false, "00c33c152f357c96"},
      {FuzzCorpus::kCrash, false, "f00ac4785f02d21f"},
      {FuzzCorpus::kMacro, false, "d2093285fc25558f"},
      {FuzzCorpus::kPlain, true, "ab0d530650ec83fa"},
      {FuzzCorpus::kHealTail, true, "62f18a48bccfd632"},
      {FuzzCorpus::kCrash, true, "4a262c3f871aa508"},
      {FuzzCorpus::kMacro, true, "75a3cb412191f1ad"},
  };
  for (const Pin& pin : kPins) {
    FuzzOptions options;
    options.corpus = pin.corpus;
    options.vary_builder_threads = pin.vary_builder_threads;
    Digest d;
    for (uint64_t seed = 1; seed <= 500; ++seed) {
      d.Str(SerializeScenario(ScenarioFuzzer::Generate(seed, options)));
    }
    EXPECT_EQ(d.Hex(), pin.digest) << "corpus " << static_cast<int>(pin.corpus)
                                   << ", thread sweep " << pin.vary_builder_threads;
  }
}

// The acceptance bar of the harness: a seed sweep over generated interleavings
// of exchanges, inserts, updates, churn, and transport faults completes with
// zero invariant violations.
TEST(ScenarioFuzzerTest, FiftySeedsRunClean) {
  FuzzOptions options;
  options.base_seed = 1;
  options.num_seeds = 50;
  options.stop_on_failure = false;
  FuzzOutcome outcome = ScenarioFuzzer::Fuzz(options);
  EXPECT_EQ(outcome.seeds_run, 50u);
  EXPECT_EQ(outcome.failures, 0u)
      << "seed " << outcome.failing_seed << " shrank to:\n"
      << SerializeScenario(outcome.minimal) << "\nfailing with:\n"
      << outcome.failure.report.ToString();
}

TEST(ScenarioFuzzerTest, HealTailAppendsRepairAndStrictBarrier) {
  FuzzOptions options;
  options.corpus = FuzzCorpus::kHealTail;
  Scenario s = ScenarioFuzzer::Generate(9, options);
  ASSERT_GE(s.steps.size(), 4u);
  // The tail: transport heal, mixing window, repair ticks, strict barrier.
  const ScenarioStep& barrier = s.steps.back();
  EXPECT_EQ(barrier.kind, StepKind::kBarrier);
  EXPECT_NE(barrier.b, 0u) << "heal-tail barrier must be strict";
  EXPECT_EQ(s.steps[s.steps.size() - 2].kind, StepKind::kRepair);
  EXPECT_EQ(s.config.online_prob, 1.0);
  // Without the flag the generated scenario is unchanged from before.
  FuzzOptions plain = options;
  plain.corpus = FuzzCorpus::kPlain;
  Scenario base = ScenarioFuzzer::Generate(9, plain);
  ASSERT_LT(base.steps.size(), s.steps.size());
  for (size_t i = 0; i < base.steps.size(); ++i) {
    EXPECT_EQ(base.steps[i], s.steps[i]) << "step " << i;
  }
}

// The self-healing acceptance bar: whatever interleaving of churn, faults, and
// updates a seed produces, the appended repair window must restore convergence
// among the survivors (the strict barrier at the tail).
TEST(ScenarioFuzzerTest, HealTailSeedsConvergeClean) {
  FuzzOptions options;
  options.base_seed = 1;
  options.num_seeds = 25;
  options.corpus = FuzzCorpus::kHealTail;
  options.stop_on_failure = false;
  FuzzOutcome outcome = ScenarioFuzzer::Fuzz(options);
  EXPECT_EQ(outcome.seeds_run, 25u);
  EXPECT_EQ(outcome.failures, 0u)
      << "seed " << outcome.failing_seed << " shrank to:\n"
      << SerializeScenario(outcome.minimal) << "\nfailing with:\n"
      << outcome.failure.report.ToString();
}

TEST(ScenarioFuzzerTest, ThreadSweepDrawsThreadsWithoutPerturbingTheSteps) {
  FuzzOptions sweep;
  sweep.vary_builder_threads = true;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario with = ScenarioFuzzer::Generate(seed, sweep);
    Scenario without = ScenarioFuzzer::Generate(seed);
    // The thread count is drawn after everything else: same community, same
    // step list, only the execution engine differs.
    EXPECT_EQ(with.steps, without.steps) << "seed " << seed;
    EXPECT_TRUE(with.config.builder_threads == 1 ||
                with.config.builder_threads == 2 ||
                with.config.builder_threads == 4 ||
                with.config.builder_threads == 8)
        << "seed " << seed << " drew " << with.config.builder_threads;
    without.config.builder_threads = with.config.builder_threads;
    EXPECT_EQ(with, without) << "seed " << seed;
  }
}

// The thread-sweep acceptance bar: generated scenarios routed through the
// parallel builder run clean, and each multi-threaded run digests identically
// to its builder_threads = 1 re-execution (Fuzz performs that re-execution
// internally and counts mismatches as failures).
TEST(ScenarioFuzzerTest, ThreadSweepSeedsRunCleanAndMatchSerialDigests) {
  FuzzOptions options;
  options.base_seed = 1;
  options.num_seeds = 15;
  options.vary_builder_threads = true;
  options.stop_on_failure = false;
  FuzzOutcome outcome = ScenarioFuzzer::Fuzz(options);
  EXPECT_EQ(outcome.seeds_run, 15u);
  EXPECT_EQ(outcome.digest_mismatches, 0u)
      << "seed " << outcome.failing_seed
      << " digests differently at builder_threads "
      << outcome.minimal.config.builder_threads << " vs 1";
  EXPECT_EQ(outcome.failures, 0u)
      << "seed " << outcome.failing_seed << " shrank to:\n"
      << SerializeScenario(outcome.minimal) << "\nfailing with:\n"
      << outcome.failure.report.ToString();
}

// End-to-end shrink: plant a corruption in the middle of a generated scenario
// and check the shrinker reduces the failure to (essentially) just that step.
TEST(ScenarioShrinkTest, ShrinksInjectedCorruptionToMinimalRepro) {
  Scenario s = ScenarioFuzzer::Generate(21);
  // Replica-key desync: the one corruption that fails even on a flat grid, so
  // a perfect shrink needs no other step, not even the warm-up exchange. It
  // goes at the end: earlier placement would let later exchanges park the
  // desynced entries in foreign buffers, legitimately hiding them.
  ScenarioStep corrupt{StepKind::kCorrupt, 2, 4, 2, 0};
  s.steps.push_back(corrupt);
  ASSERT_TRUE(RunScenario(s).failed);

  Scenario minimal = ScenarioFuzzer::Shrink(s);
  ScenarioResult result = RunScenario(minimal);
  EXPECT_TRUE(result.failed);
  EXPECT_GE(result.report.CountOf(check::Category::kReplicaDesync), 1u)
      << result.report.ToString();
  // The corruption step alone suffices: everything else must be gone.
  ASSERT_EQ(minimal.steps.size(), 1u) << SerializeScenario(minimal);
  EXPECT_EQ(minimal.steps[0].kind, StepKind::kCorrupt);
  // The repro is a valid replay file.
  Result<Scenario> reparsed = ParseScenario(SerializeScenario(minimal));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), minimal);
}

TEST(ScenarioShrinkTest, ShrinkKeepsNonFailingScenarioIntact) {
  Scenario s = ScenarioFuzzer::Generate(3);
  ASSERT_FALSE(RunScenario(s).failed);
  EXPECT_EQ(ScenarioFuzzer::Shrink(s), s);
}

TEST(ScenarioFuzzerTest, FuzzReportsAndShrinksPlantedFailure) {
  // A corrupt scenario cannot come out of Generate, so synthesize the sweep:
  // run Fuzz on clean seeds, then verify the failure path via Shrink directly.
  Scenario bad = ScenarioFuzzer::Generate(5);
  bad.steps.push_back(ScenarioStep{StepKind::kCorrupt, 0, 0, 0, 0});
  Scenario minimal = ScenarioFuzzer::Shrink(bad);
  ScenarioResult result = RunScenario(minimal);
  EXPECT_TRUE(result.failed);
  EXPECT_LE(minimal.steps.size(), 2u) << SerializeScenario(minimal);
}

}  // namespace
}  // namespace sim
}  // namespace pgrid
