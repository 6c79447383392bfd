// Macro-fault scenario steps (docs/robustness.md): partitions, crash waves,
// flash crowds, gray failures, mass joins -- serialization, determinism,
// degradation semantics, and shrinkability.

#include <gtest/gtest.h>

#include <string>

#include "check/invariants.h"
#include "obs/timeline.h"
#include "sim/fuzzer.h"
#include "sim/scenario.h"

namespace pgrid {
namespace sim {
namespace {

/// A scenario exercising every macro step kind at least once.
Scenario MacroScenario() {
  Scenario s;
  s.config.seed = 77;
  s.config.num_peers = 24;
  s.config.maxl = 4;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 200, 0, 0, 0},
      {StepKind::kInsert, 3, 5, 2, 4},
      {StepKind::kInsert, 7, 12, 3, 1},
      {StepKind::kInsert, 11, 9, 1, 0},
      {StepKind::kSlowNode, 64, 20, 0, 0},
      {StepKind::kPartition, 3, 2, 1, 0},   // 2 groups, 2 avail ticks
      {StepKind::kUpdate, 5, 1, 0, 0},
      {StepKind::kCrashWave, 64, 0, 0, 0},  // 1/4 of everyone
      {StepKind::kPartition, 0, 2, 0, 0},   // heal + reconcile
      {StepKind::kFlashCrowd, 1, 1, 3, 2},
      {StepKind::kMassJoin, 4, 60, 0, 0},
      {StepKind::kSlowNode, 0, 0, 0, 0},    // clear gray marks
      {StepKind::kExchange, 150, 0, 0, 0},
      {StepKind::kRestart, 0, 1, 0, 0},
      {StepKind::kRepair, 3, 1, 0, 0},
  };
  return s;
}

// --- serialization ---------------------------------------------------------

TEST(MacroScenarioFormatTest, AllMacroKindsRoundTrip) {
  const Scenario s = MacroScenario();
  const std::string text = SerializeScenario(s);
  // Every macro step name appears in the text form.
  for (const char* name :
       {"partition", "crashwave", "flashcrowd", "slownode", "massjoin"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  Result<Scenario> parsed = ParseScenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), s);
  EXPECT_EQ(SerializeScenario(parsed.value()), text);
}

// --- determinism -----------------------------------------------------------

TEST(MacroScenarioTest, ReplayIsByteIdentical) {
  const Scenario s = MacroScenario();
  const ScenarioResult a = RunScenario(s);
  const ScenarioResult b = RunScenario(s);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.steps_executed, b.steps_executed);
}

TEST(MacroScenarioTest, TimelineSamplingDoesNotChangeTheDigest) {
  const Scenario s = MacroScenario();
  const ScenarioResult plain = RunScenario(s);
  obs::TimelineRecorder timeline;
  ScenarioRunner runner(s);
  runner.SetTimeline(&timeline);
  const ScenarioResult sampled = runner.Run();
  EXPECT_EQ(plain.digest, sampled.digest);
  // The availability series exist and carry one point per macro tick.
  const auto series = timeline.series();
  EXPECT_TRUE(series.count("avail.success_rate"));
  EXPECT_TRUE(series.count("avail.shed_rate"));
  EXPECT_TRUE(series.count("avail.live_peers"));
}

// --- partition + heal ------------------------------------------------------

TEST(MacroScenarioTest, PartitionDivergesHealsAndConverges) {
  Scenario s;
  s.config.seed = 9;
  s.config.num_peers = 24;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 220, 0, 0, 0},
      {StepKind::kInsert, 3, 5, 2, 4},
      {StepKind::kInsert, 7, 2, 1, 0},
      {StepKind::kInsert, 13, 6, 2, 2},
      {StepKind::kBarrier, 4, 0, 0, 0},
      {StepKind::kPartition, 3, 2, 1, 0},  // split into 2 groups
      {StepKind::kUpdate, 5, 0, 0, 0},     // diverge inside the islands
      {StepKind::kUpdate, 9, 1, 0, 0},
      {StepKind::kPartition, 0, 2, 0, 0},  // heal + anti-entropy
      {StepKind::kBarrier, 4, 1, 0, 0},    // strict: replica agreement
  };
  obs::TimelineRecorder timeline;
  ScenarioRunner runner(s);
  runner.SetTimeline(&timeline);
  const ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed)
      << "failed at step " << result.failed_step << ": "
      << result.report.ToString();
  // The heal actually drove reconciliation rounds.
  EXPECT_GE(
      runner.grid().metrics().GetCounter("repair.reconcile_rounds")->value(),
      1u);
}

TEST(MacroScenarioTest, CrashWaveRestartsAndConverges) {
  Scenario s;
  s.config.seed = 21;
  s.config.num_peers = 20;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 200, 0, 0, 0},
      {StepKind::kInsert, 3, 5, 2, 4},
      {StepKind::kInsert, 9, 1, 1, 3},
      {StepKind::kCrashWave, 128, 0, 0, 0},  // half of everyone, durably
      {StepKind::kRestart, 0, 1, 0, 0},      // restart-all + RejoinSync
      {StepKind::kExchange, 100, 0, 0, 0},
      {StepKind::kRepair, 4, 2, 0, 0},
      {StepKind::kBarrier, 4, 1, 0, 0},      // strict
  };
  ScenarioRunner runner(s);
  const ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed)
      << "failed at step " << result.failed_step << ": "
      << result.report.ToString();
  // The wave actually crashed peers (durable kills show up as rejoin syncs
  // when they restart).
  EXPECT_GE(runner.grid().metrics().GetCounter("repair.rejoin_syncs")->value(),
            1u);
}

TEST(MacroScenarioTest, CrashWavePrefixTargetsOnlyMatchingPeers) {
  // A 1-bit prefix wave must leave the complementary half untouched: with
  // fraction 256/256 of the "0..." side crashed, at least the "1..." side
  // survives, so the live count stays well above the floor.
  Scenario s;
  s.config.seed = 33;
  s.config.num_peers = 24;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 240, 0, 0, 0},
      {StepKind::kCrashWave, 255, 0, 1, 0},  // ~all of prefix "0"
  };
  ScenarioRunner runner(s);
  const ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed) << result.report.ToString();
}

// --- flash crowd -----------------------------------------------------------

TEST(MacroScenarioTest, FlashCrowdShedsUnderOverload) {
  Scenario s;
  s.config.seed = 5;
  s.config.num_peers = 24;
  s.config.maxl = 4;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 300, 0, 0, 0},
      {StepKind::kInsert, 3, 5, 3, 4},
      {StepKind::kInsert, 7, 4, 3, 1},
      // 8 ticks at 8x load on a 1-bit prefix: far beyond the per-peer serve
      // budget, so shedding must kick in.
      {StepKind::kFlashCrowd, 1, 0, 6, 7},
  };
  ScenarioRunner runner(s);
  const ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed) << result.report.ToString();
  EXPECT_GT(runner.grid().metrics().GetCounter("search.sheds")->value(), 0u);
}

// --- mass join -------------------------------------------------------------

TEST(MacroScenarioTest, MassJoinGrowsTheGridAndIntegrates) {
  Scenario s;
  s.config.seed = 13;
  s.config.num_peers = 16;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 160, 0, 0, 0},
      {StepKind::kMassJoin, 7, 120, 0, 0},  // 8 joiners, 120 meetings
  };
  ScenarioRunner runner(s);
  const ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed) << result.report.ToString();
  EXPECT_EQ(runner.grid().size(), 16u + 8u);
}

// --- shrinking -------------------------------------------------------------

TEST(MacroScenarioTest, ShrinkReducesMacroFailingScenario) {
  // A deliberate corruption buried between macro steps: ddmin must strip the
  // macro noise and keep a minimal failing core.
  Scenario s;
  s.config.seed = 3;
  s.config.num_peers = 16;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 160, 0, 0, 0},
      {StepKind::kInsert, 3, 5, 2, 4},
      {StepKind::kSlowNode, 64, 10, 0, 0},
      {StepKind::kMassJoin, 2, 30, 0, 0},
      {StepKind::kCorrupt, 0, 3, 0, 0},  // self-reference at peer 3
      {StepKind::kFlashCrowd, 1, 0, 2, 1},
      {StepKind::kSlowNode, 0, 0, 0, 0},
  };
  ASSERT_TRUE(RunScenario(s).failed);
  const Scenario minimal = ScenarioFuzzer::Shrink(s);
  EXPECT_TRUE(RunScenario(minimal).failed);
  EXPECT_LT(minimal.steps.size(), s.steps.size());
  EXPECT_LE(minimal.steps.size(), 2u);
}

// --- fuzzer integration ----------------------------------------------------

TEST(MacroScenarioTest, MacroSweepGeneratesMacroStepsAndHealTail) {
  FuzzOptions options;
  options.corpus = FuzzCorpus::kMacro;
  options.min_steps = 30;
  options.max_steps = 60;
  bool saw_macro = false;
  for (uint64_t seed = 1; seed <= 8 && !saw_macro; ++seed) {
    const Scenario s = ScenarioFuzzer::Generate(seed, options);
    for (const ScenarioStep& step : s.steps) {
      if (step.kind == StepKind::kPartition ||
          step.kind == StepKind::kCrashWave ||
          step.kind == StepKind::kFlashCrowd ||
          step.kind == StepKind::kSlowNode ||
          step.kind == StepKind::kMassJoin) {
        saw_macro = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_macro);

  // The macro heal tail: heal-partition, clear-slow, transport heal,
  // restart-all, mixing, repair, strict barrier.
  const Scenario s = ScenarioFuzzer::Generate(1, options);
  ASSERT_GE(s.steps.size(), 7u);
  const size_t n = s.steps.size();
  EXPECT_EQ(s.steps[n - 7], (ScenarioStep{StepKind::kPartition, 0, 0, 0, 0}));
  EXPECT_EQ(s.steps[n - 6], (ScenarioStep{StepKind::kSlowNode, 0, 0, 0, 0}));
  EXPECT_EQ(s.steps[n - 5], (ScenarioStep{StepKind::kFault, 6, 0, 0, 0}));
  EXPECT_EQ(s.steps[n - 4], (ScenarioStep{StepKind::kRestart, 0, 1, 0, 0}));
  EXPECT_EQ(s.steps[n - 1].kind, StepKind::kBarrier);
  EXPECT_NE(s.steps[n - 1].b, 0u);
  EXPECT_EQ(s.config.online_prob, 1.0);
}

TEST(MacroScenarioTest, MacroSweepSeedsRunClean) {
  FuzzOptions options;
  options.corpus = FuzzCorpus::kMacro;
  options.num_seeds = 5;
  options.min_steps = 8;
  options.max_steps = 16;
  options.max_peers = 24;
  const FuzzOutcome outcome = ScenarioFuzzer::Fuzz(options);
  EXPECT_EQ(outcome.seeds_run, 5u);
  EXPECT_EQ(outcome.failures, 0u)
      << "seed " << outcome.failing_seed << ": "
      << outcome.failure.report.ToString();
}

// --- partition-leak invariant (unit) ---------------------------------------

TEST(MacroScenarioTest, PartitionLeakInvariantFlagsCrossGroupEntries) {
  // Build a grid with data, then craft a PartitionView claiming every peer is
  // in group 1 while every quarantined item originated in group 0: each held
  // quarantined entry is then a cross-group leak by construction.
  Scenario s;
  s.config.seed = 41;
  s.config.num_peers = 16;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {StepKind::kExchange, 160, 0, 0, 0},
      {StepKind::kInsert, 3, 5, 2, 4},
      {StepKind::kInsert, 7, 2, 1, 0},
  };
  ScenarioRunner runner(s);
  ASSERT_FALSE(runner.Run().failed);

  check::PartitionView pv;
  pv.active = true;
  pv.group.assign(16, 1);
  // Mark every inserted item as quarantined with origin group 0. Holders are
  // unknown here; the leak check scans all live holders of the item id, so the
  // recorded holder only needs to be a valid peer.
  pv.items.push_back({1, 0, 0});
  pv.items.push_back({2, 0, 0});

  check::InvariantOptions opt;
  opt.partition = &pv;
  const check::InvariantReport report = check::GridInvariants::Check(
      runner.grid(), runner.exchange_config(), opt);
  EXPECT_GT(report.CountOf(check::Category::kPartitionLeak), 0u);
}

}  // namespace
}  // namespace sim
}  // namespace pgrid
