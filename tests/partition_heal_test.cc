// Partition-heal reconciliation (docs/robustness.md): replicas diverge while a
// partition is up, and after the merge RejoinSync / anti-entropy must restore
// replica agreement -- with the reconciliation work observable in the message
// counts (one kControl per sync session, kDataTransfer per reconciled entry).

#include <gtest/gtest.h>

#include <memory>

#include "check/invariants.h"
#include "core/churn.h"
#include "core/grid_builder.h"
#include "core/insert.h"
#include "core/search.h"
#include "core/update.h"
#include "repair/repair.h"
#include "sim/scenario.h"

namespace pgrid {
namespace {

struct HealFixture {
  ExchangeConfig config;
  Grid grid{64};
  Rng rng{29};
  OnlineModel online;
  std::unique_ptr<ExchangeEngine> exchange;
  MeetingScheduler scheduler{64};
  std::unique_ptr<ChurnDriver> driver;
  std::unique_ptr<SearchEngine> search;
  std::unique_ptr<repair::RepairEngine> repair;
  std::vector<DataItem> items;

  HealFixture() : online(OnlineModel::AlwaysOn(64)) {
    config.maxl = 4;
    config.refmax = 3;
    config.recmax = 2;
    config.recursion_fanout = 2;
    exchange = std::make_unique<ExchangeEngine>(&grid, config, &rng, &online);
    driver = std::make_unique<ChurnDriver>(&grid, exchange.get(), &scheduler,
                                           &online, &rng);
    GridBuilder builder(&grid, exchange.get(), &scheduler, &rng);
    builder.BuildToFractionOfMaxDepth(0.99, 1'000'000);
    search = std::make_unique<SearchEngine>(&grid, &online, &rng);
    repair = std::make_unique<repair::RepairEngine>(
        &grid, config, repair::RepairConfig{}, search.get(), &online, &rng);
    repair->set_liveness([this](PeerId p) { return !driver->IsDead(p); });
    repair->set_probe_fn(
        [this](PeerId, PeerId to) { return !driver->IsDead(to); });

    InsertEngine inserter(&grid, &online, &rng);
    UpdateConfig update_config;
    update_config.recbreadth = 2;
    update_config.repetition = 2;
    for (size_t i = 0; i < 40; ++i) {
      DataItem item;
      item.id = i + 1;
      item.key = KeyPath::Random(&rng, config.maxl);
      item.version = 1;
      (void)inserter.Insert(item, static_cast<PeerId>(rng.UniformIndex(64)),
                            update_config);
      items.push_back(item);
    }
  }
};

// The RejoinSync form of divergence: a replica is away while every item is
// updated, then pulls the whole missed delta through one targeted buddy
// anti-entropy pass.
TEST(PartitionHealTest, RejoinSyncPullsLongDivergence) {
  HealFixture f;
  // A victim that is a replica with buddies and a non-empty index, so the
  // rejoin pass has peers to sync against and entries to reconcile.
  PeerId victim = kInvalidPeer;
  for (PeerId p = 0; p < f.grid.size(); ++p) {
    if (!f.grid.peer(p).buddies().empty() && !f.grid.peer(p).index().empty()) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidPeer);

  // The victim goes dark; every item advances a version in the meantime --
  // a *long* divergence, not a single missed write.
  (void)f.driver->Depart(victim, /*graceful=*/false);
  UpdateEngine updater(&f.grid, &f.online, &f.rng);
  UpdateConfig update_config;
  update_config.recbreadth = 2;
  update_config.repetition = 2;
  for (const DataItem& item : f.items) {
    updater.Propagate(item.key, item.id, 2, UpdateStrategy::kRepeatedDfs,
                      update_config);
  }

  f.driver->Revive(victim);
  const uint64_t control_before = f.grid.stats().count(MessageType::kControl);
  const repair::RepairTick tick = f.repair->RejoinSync(victim);
  EXPECT_GT(tick.sync_sessions, 0u);
  EXPECT_GT(tick.entries_reconciled, 0u)
      << "the rejoined replica pulled no missed updates";
  // Reconciliation messages are counted: one kControl per session.
  EXPECT_GE(f.grid.stats().count(MessageType::kControl),
            control_before + tick.sync_sessions);

  // Anti-entropy finishes the job grid-wide and reports convergence.
  const repair::RepairEngine::ReconcileOutcome outcome =
      f.repair->ReconcileUntilConverged(8);
  EXPECT_TRUE(outcome.converged);
  EXPECT_GE(outcome.rounds, 1u);
}

TEST(PartitionHealTest, ReconcileUntilConvergedReportsItsWork) {
  HealFixture f;
  // First pass absorbs whatever divergence the build left behind.
  const repair::RepairEngine::ReconcileOutcome first =
      f.repair->ReconcileUntilConverged(4);
  ASSERT_TRUE(first.converged);
  const uint64_t rounds_after_first =
      f.grid.metrics().GetCounter("repair.reconcile_rounds")->value();
  EXPECT_EQ(rounds_after_first, first.rounds);
  // Now the grid is converged: a second pass is one clean round.
  const repair::RepairEngine::ReconcileOutcome outcome =
      f.repair->ReconcileUntilConverged(4);
  EXPECT_TRUE(outcome.converged);
  EXPECT_EQ(outcome.rounds, 1u);
  EXPECT_GT(outcome.sync_sessions, 0u);
  EXPECT_EQ(f.grid.metrics().GetCounter("repair.reconcile_rounds")->value(),
            rounds_after_first + 1);
}

// The scenario form: two groups diverge for a window of gated ticks, the heal
// step drives anti-entropy to convergence, and the strict barrier checks
// replica agreement among everything the partition touched.
TEST(PartitionHealTest, ScenarioDivergenceHealsToReplicaAgreement) {
  sim::Scenario s;
  s.config.seed = 47;
  s.config.num_peers = 32;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {sim::StepKind::kExchange, 320, 0, 0, 0},
      {sim::StepKind::kInsert, 3, 5, 2, 4},
      {sim::StepKind::kInsert, 7, 2, 1, 0},
      {sim::StepKind::kInsert, 11, 6, 2, 2},
      {sim::StepKind::kInsert, 13, 3, 2, 1},
      {sim::StepKind::kBarrier, 4, 0, 0, 0},
      // Two islands for a long window: every tick runs gated meetings and
      // availability probes, and the updates between them keep writing on
      // both sides of the split.
      {sim::StepKind::kPartition, 3, 4, 1, 0},
      {sim::StepKind::kUpdate, 5, 0, 0, 0},
      {sim::StepKind::kUpdate, 9, 1, 0, 0},
      {sim::StepKind::kUpdate, 17, 2, 0, 0},
      {sim::StepKind::kUpdate, 23, 0, 0, 0},
      // Heal: the step itself fails if anti-entropy cannot restore agreement.
      {sim::StepKind::kPartition, 0, 2, 0, 0},
      {sim::StepKind::kBarrier, 4, 1, 0, 0},
  };
  sim::ScenarioRunner runner(s);
  const sim::ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed)
      << "failed at step " << result.failed_step << ": "
      << result.report.ToString();
  auto& metrics = runner.grid().metrics();
  EXPECT_GE(metrics.GetCounter("repair.reconcile_rounds")->value(), 1u);
  EXPECT_GT(metrics.GetCounter("repair.sync_sessions")->value(), 0u);
}

// A crash wave *inside* the partition: durable kills on one island, heal,
// restart-all -- the recovered peers pull their missed delta via RejoinSync
// and the strict barrier still demands agreement.
TEST(PartitionHealTest, CrashWaveInsidePartitionRecoversAfterHeal) {
  sim::Scenario s;
  s.config.seed = 53;
  s.config.num_peers = 24;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {sim::StepKind::kExchange, 240, 0, 0, 0},
      {sim::StepKind::kInsert, 3, 5, 2, 4},
      {sim::StepKind::kInsert, 7, 2, 1, 0},
      {sim::StepKind::kPartition, 3, 2, 1, 0},
      {sim::StepKind::kUpdate, 5, 0, 0, 0},
      {sim::StepKind::kCrashWave, 96, 0, 0, 0},
      {sim::StepKind::kPartition, 0, 2, 0, 0},  // heal + reconcile
      {sim::StepKind::kRestart, 0, 1, 0, 0},    // recover the wave's victims
      {sim::StepKind::kExchange, 120, 0, 0, 0},
      {sim::StepKind::kRepair, 4, 2, 0, 0},
      {sim::StepKind::kBarrier, 4, 1, 0, 0},
  };
  sim::ScenarioRunner runner(s);
  const sim::ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed)
      << "failed at step " << result.failed_step << ": "
      << result.report.ToString();
  EXPECT_GE(runner.grid().metrics().GetCounter("repair.rejoin_syncs")->value(),
            1u);
}

}  // namespace
}  // namespace pgrid
