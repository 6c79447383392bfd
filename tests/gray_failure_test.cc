// Gray failures (docs/robustness.md): peers that answer, but slowly. The
// latency-aware suspicion layer must *demote* them from routing preference
// (SuspicionTable::NoteSlow, RepairEngine latency hook, scenario `slownode`
// step) without ever evicting them as dead -- a slow replica still holds its
// data.

#include <gtest/gtest.h>

#include <memory>

#include "check/invariants.h"
#include "core/churn.h"
#include "core/grid_builder.h"
#include "core/search.h"
#include "repair/health.h"
#include "repair/repair.h"
#include "sim/fuzzer.h"
#include "sim/scenario.h"

namespace pgrid {
namespace {

// ---- SuspicionTable slow-path and hysteresis (repair/health.h) ----

TEST(SuspicionTableSlowTest, DemotesOnlyAtTheSlowThreshold) {
  repair::SuspicionTable table(3, /*slow_threshold=*/2);
  EXPECT_FALSE(table.NoteSlow(7));
  EXPECT_EQ(table.slowness(7), 1u);
  EXPECT_TRUE(table.NoteSlow(7));  // the demotion edge
  EXPECT_TRUE(table.IsDemoted(7));
  // Already demoted: further slow probes report no new edge.
  EXPECT_FALSE(table.NoteSlow(7));
  // Slowness is orthogonal to failure suspicion: no eviction happened.
  EXPECT_EQ(table.suspicion(7), 0u);
}

TEST(SuspicionTableSlowTest, FastProbeRehabilitates) {
  repair::SuspicionTable table(3, 2);
  table.NoteSlow(4);
  EXPECT_TRUE(table.NoteSlow(4));
  ASSERT_TRUE(table.IsDemoted(4));
  table.NoteFast(4);
  EXPECT_FALSE(table.IsDemoted(4));
  EXPECT_EQ(table.slowness(4), 0u);
  // The streak restarts from scratch.
  EXPECT_FALSE(table.NoteSlow(4));
}

TEST(SuspicionTableSlowTest, ZeroSlowThresholdDisablesDemotion) {
  repair::SuspicionTable table(3, 0);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(table.NoteSlow(9));
  EXPECT_FALSE(table.IsDemoted(9));
}

TEST(SuspicionTableSlowTest, EvictionCooldownSuppressesCrossings) {
  repair::SuspicionTable table(2, 0, /*eviction_cooldown=*/1);
  // First crossing evicts and arms the cooldown.
  EXPECT_FALSE(table.NoteFailure(1));
  EXPECT_TRUE(table.NoteFailure(1));
  // Second crossing (any target) is suppressed: the count resets, the peer
  // stays referenced.
  EXPECT_FALSE(table.NoteFailure(2));
  EXPECT_FALSE(table.NoteFailure(2));
  EXPECT_EQ(table.suspicion(2), 0u);
  // Cooldown spent: the next crossing evicts again.
  EXPECT_FALSE(table.NoteFailure(2));
  EXPECT_TRUE(table.NoteFailure(2));
}

// ---- RepairEngine latency hook over a simulated grid ----

struct GrayFixture {
  ExchangeConfig config;
  Grid grid{64};
  Rng rng{17};
  OnlineModel online;
  std::unique_ptr<ExchangeEngine> exchange;
  MeetingScheduler scheduler{64};
  std::unique_ptr<ChurnDriver> driver;
  std::unique_ptr<SearchEngine> search;
  std::unique_ptr<repair::RepairEngine> repair;

  explicit GrayFixture(repair::RepairConfig rc = {})
      : online(OnlineModel::AlwaysOn(64)) {
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
    repair = std::make_unique<repair::RepairEngine>(&grid, config, rc,
                                                    search.get(), &online, &rng);
    repair->set_liveness([this](PeerId p) { return !driver->IsDead(p); });
    repair->set_probe_fn(
        [this](PeerId, PeerId to) { return !driver->IsDead(to); });
  }
};

TEST(GrayFailureTest, SlowPeersAreDemotedNotEvicted) {
  GrayFixture f;
  // Every probe observes latency 10 > the probe timeout of 4: the
  // whole grid is gray, yet nobody is dead.
  f.repair->set_latency_fn([](PeerId, PeerId) -> uint64_t { return 10; });

  uint64_t slow_probes = 0, demotions = 0, evictions = 0, failures = 0;
  for (int round = 0; round < 3; ++round) {
    const repair::RepairTick tick = f.repair->Tick();
    slow_probes += tick.slow_probes;
    demotions += tick.demotions;
    evictions += tick.evictions;
    failures += tick.probe_failures;
  }
  EXPECT_GT(slow_probes, 0u);
  EXPECT_GT(demotions, 0u) << "chronically slow peers must be demoted";
  EXPECT_EQ(evictions, 0u) << "slow is not dead: no reference may be evicted";
  EXPECT_EQ(failures, 0u);
  EXPECT_GT(f.grid.metrics().GetCounter("repair.slow_demotions")->value(), 0u);
  EXPECT_EQ(f.grid.metrics().GetCounter("repair.evictions")->value(), 0u);

  // The demotions are observable through the routing-preference hook.
  bool any_demoted = false;
  for (PeerId observer = 0; observer < f.grid.size() && !any_demoted;
       ++observer) {
    for (PeerId target = 0; target < f.grid.size(); ++target) {
      if (f.repair->IsDemoted(observer, target)) {
        any_demoted = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_demoted);
}

TEST(GrayFailureTest, FastProbesClearDemotions) {
  GrayFixture f;
  bool slow_phase = true;
  f.repair->set_latency_fn(
      [&slow_phase](PeerId, PeerId) -> uint64_t { return slow_phase ? 10 : 0; });
  (void)f.repair->Tick();
  (void)f.repair->Tick();
  // The network recovers: the next rounds must rehabilitate everyone.
  slow_phase = false;
  (void)f.repair->Tick();
  for (PeerId observer = 0; observer < f.grid.size(); ++observer) {
    for (PeerId target = 0; target < f.grid.size(); ++target) {
      EXPECT_FALSE(f.repair->IsDemoted(observer, target))
          << observer << " still demotes " << target;
    }
  }
}

TEST(GrayFailureTest, ConfigurableThresholdsChangeTheEdge) {
  repair::RepairConfig rc;
  rc.slow_threshold = 50;  // effectively never within 3 rounds
  GrayFixture f(rc);
  f.repair->set_latency_fn([](PeerId, PeerId) -> uint64_t { return 10; });
  uint64_t demotions = 0;
  for (int round = 0; round < 3; ++round) demotions += f.repair->Tick().demotions;
  EXPECT_EQ(demotions, 0u) << "a higher slow_threshold must delay demotion";

  // The probe timeout is 4 latency units: a probe that takes exactly that
  // long is still within budget.
  GrayFixture g;
  g.repair->set_latency_fn([](PeerId, PeerId) -> uint64_t { return 4; });
  uint64_t slow = 0;
  for (int round = 0; round < 3; ++round) slow += g.repair->Tick().slow_probes;
  EXPECT_EQ(slow, 0u) << "latency within the timeout is not slow";
}

// ---- scenario layer: the slownode macro step ----

TEST(GrayFailureTest, SlowNodeScenarioDemotesWithoutFalseEviction) {
  sim::Scenario s;
  s.config.seed = 19;
  s.config.num_peers = 24;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {sim::StepKind::kExchange, 240, 0, 0, 0},
      {sim::StepKind::kInsert, 3, 5, 2, 4},
      {sim::StepKind::kInsert, 7, 2, 1, 0},
      // Half the community turns gray with latency 5 + 35 = 40.
      {sim::StepKind::kSlowNode, 128, 35, 0, 0},
      {sim::StepKind::kRepair, 3, 0, 0, 0},
      // Strict barrier: the slow-but-alive peers must still be routable
      // references and replica-consistent -- demoted, not evicted.
      {sim::StepKind::kBarrier, 4, 1, 0, 0},
  };
  sim::ScenarioRunner runner(s);
  const sim::ScenarioResult result = runner.Run();
  EXPECT_FALSE(result.failed)
      << "failed at step " << result.failed_step << ": "
      << result.report.ToString();
  auto& metrics = runner.grid().metrics();
  EXPECT_GT(metrics.GetCounter("repair.slow_demotions")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("repair.evictions")->value(), 0u)
      << "slow peers were evicted as dead";
}

TEST(GrayFailureTest, SlowNodeClearRestoresFullSpeed) {
  sim::Scenario s;
  s.config.seed = 19;
  s.config.num_peers = 24;
  s.config.maxl = 3;
  s.config.refmax = 2;
  s.steps = {
      {sim::StepKind::kExchange, 240, 0, 0, 0},
      {sim::StepKind::kSlowNode, 128, 35, 0, 0},
      {sim::StepKind::kRepair, 3, 0, 0, 0},
      {sim::StepKind::kSlowNode, 0, 0, 0, 0},  // the marks are lifted
      {sim::StepKind::kRepair, 2, 0, 0, 0},    // fast probes rehabilitate
      {sim::StepKind::kBarrier, 4, 1, 0, 0},
  };
  const sim::ScenarioResult result = sim::RunScenario(s);
  EXPECT_FALSE(result.failed) << result.report.ToString();
}

}  // namespace
}  // namespace pgrid
