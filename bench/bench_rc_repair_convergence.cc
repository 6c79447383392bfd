// RC: repair convergence after crash waves (robustness extension, Sec. 6).
//
// A converged, data-bearing grid loses a fraction of its peers in one instant.
// Two arms then run the same number of maintenance rounds:
//  - passive: RepairEngine with every mechanism disabled (no failure detection,
//             no recruitment, no anti-entropy) -- the paper's baseline where
//             only chance meetings could ever repair anything, and none run,
//  - active:  the full self-healing stack of repair/repair.h.
// After every round the repair-convergence invariants (check/invariants.h) are
// evaluated over the survivors with repair_min_live_refs = refmax: the round in
// which dead references + underfull levels disappear and the round in which all
// live replica pairs agree are recorded per arm. The claim under test: the
// active arm converges within a bounded number of rounds at every crash
// fraction, and the passive arm never does.
//
// Besides the per-arm summary rows, every (arm, crash fraction) pair emits a
// per-round timeline of the three violation counts (dead references, underfull
// levels, stale replica pairs) into BENCH_rc_timeline.json, so the *shape* of
// convergence -- not just the round it completed in -- is machine-readable.
//
// Flags: --peers, --maxl, --refmax, --rounds, --items, --seed, --json,
//        --timeline-json (override the timeline output path).

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "check/invariants.h"
#include "core/churn.h"
#include "core/insert.h"
#include "core/search.h"
#include "core/update.h"
#include "obs/timeline.h"
#include "repair/repair.h"
#include "sim/scenario.h"

namespace pgrid {
namespace {

/// Mean of a timeline series over macro ticks [lo, hi). 0 if empty.
double AvgOver(const std::map<std::string, std::vector<obs::TimelineRecorder::Point>>& series,
               const std::string& name, uint64_t lo, uint64_t hi) {
  auto it = series.find(name);
  if (it == series.end()) return 0;
  double sum = 0;
  size_t count = 0;
  for (const obs::TimelineRecorder::Point& p : it->second) {
    if (p.t >= lo && p.t < hi) {
      sum += p.value;
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0;
}

// Partition-heal arm: a two-group partition diverges the replicas (updates
// keep flowing inside each island), then the heal step drives anti-entropy
// until replica agreement is restored. Reports the reconciliation work
// (rounds, sync sessions, entries moved) and the availability through the
// event -- before, during, and after the partition -- from the runner's
// avail.* timeline series.
void RunPartitionHeal(size_t peers, size_t maxl, uint64_t seed,
                      bench::JsonReport* report) {
  sim::Scenario scenario;
  scenario.config.seed = seed;
  scenario.config.fault_seed = seed + 1;
  scenario.config.num_peers = peers;
  scenario.config.maxl = maxl;
  scenario.config.refmax = 2;
  scenario.config.online_prob = 1.0;

  auto& steps = scenario.steps;
  steps.push_back({sim::StepKind::kExchange, 8 * peers, 0, 0, 0});
  for (uint64_t i = 0; i < 32; ++i) {
    steps.push_back({sim::StepKind::kInsert, 5 * i + 2, 3 * i + 1,
                     i % maxl, i % 16});
  }
  steps.push_back({sim::StepKind::kBarrier, 8, 0, 0, 0});
  // Baseline availability: macro ticks 0..2.
  steps.push_back({sim::StepKind::kPartition, 0, 3, 0, 0});
  // Split into 2 groups; 3 availability ticks (3..5) under the partition.
  steps.push_back({sim::StepKind::kPartition, 3, 3, 1, 0});
  // Divergence: updates keep flowing inside the islands.
  for (uint64_t i = 0; i < 16; ++i) {
    steps.push_back({sim::StepKind::kUpdate, 11 * i + 5, i % 3, 0, 0});
  }
  // Heal: anti-entropy to convergence, then post-heal ticks 6..8.
  steps.push_back({sim::StepKind::kPartition, 0, 3, 0, 0});

  obs::TimelineRecorder timeline;
  sim::ScenarioRunner runner(scenario);
  runner.SetTimeline(&timeline);
  const sim::ScenarioResult result = runner.Run();

  obs::MetricsRegistry& metrics = runner.grid().metrics();
  const uint64_t rounds = metrics.GetCounter("repair.reconcile_rounds")->value();
  const uint64_t sessions = metrics.GetCounter("repair.sync_sessions")->value();
  const uint64_t entries =
      metrics.GetCounter("repair.entries_reconciled")->value();

  const auto series = timeline.series();
  struct Phase {
    const char* name;
    uint64_t lo, hi;
  };
  const Phase phases[] = {
      {"before", 0, 3}, {"during", 3, 6}, {"after-heal", 6, 9}};
  std::printf("\npartition heal: 2 islands diverge under updates, then "
              "anti-entropy reconciles (%zu peers)\n", peers);
  std::printf("converged: %s  reconcile rounds: %llu  sync sessions: %llu  "
              "entries reconciled: %llu\n",
              result.failed ? "NO" : "yes",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(entries));
  std::printf("%-12s %10s\n", "phase", "success");
  for (const Phase& ph : phases) {
    const double success = AvgOver(series, "avail.success_rate", ph.lo, ph.hi);
    std::printf("%-12s %9.2f%%\n", ph.name, 100.0 * success);
    report->AddRow()
        .Str("arm", std::string("partition-heal-") + ph.name)
        .Int("peers", peers)
        .Num("success_rate", 100.0 * success)
        .Int("reconcile_rounds", rounds)
        .Int("sync_sessions", sessions)
        .Int("entries_reconciled", entries)
        .Int("converged", result.failed ? 0 : 1);
  }
}

struct Arm {
  const char* name;
  repair::RepairConfig config;
};

void Run(const bench::Args& args) {
  const size_t peers = static_cast<size_t>(args.GetInt("peers", 256));
  const size_t maxl = static_cast<size_t>(args.GetInt("maxl", 4));
  const size_t refmax = static_cast<size_t>(args.GetInt("refmax", 3));
  const size_t rounds = static_cast<size_t>(args.GetInt("rounds", 12));
  const size_t items = static_cast<size_t>(args.GetInt("items", 200));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  bench::Banner("RC: repair convergence after crash waves",
                "robustness extension (self-healing, docs/robustness.md)",
                "active repair converges within a bounded round count; the "
                "passive arm never does");

  repair::RepairConfig passive;
  passive.suspicion_threshold = 0;
  passive.recruit = false;
  passive.anti_entropy = false;
  const Arm arms[] = {{"passive", passive}, {"active", repair::RepairConfig{}}};
  const double crash_fractions[] = {0.1, 0.2, 0.3, 0.4};

  std::printf("%zu peers, maxl %zu, refmax %zu, %zu items, %zu-round heal "
              "window\n\n",
              peers, maxl, refmax, items, rounds);
  std::printf("%-8s %-6s | %-14s %-16s %s\n", "arm", "crash", "refs healed",
              "replicas agree", "converged");

  bench::JsonReport report("rc_repair_convergence");
  obs::TimelineRecorder timeline;
  for (const Arm& arm : arms) {
    for (const double crash : crash_fractions) {
      Grid grid(peers);
      Rng rng(seed);
      OnlineModel online = OnlineModel::AlwaysOn(peers);
      ExchangeConfig config;
      config.maxl = maxl;
      config.refmax = refmax;
      config.recmax = 2;
      config.recursion_fanout = 2;
      ExchangeEngine exchange(&grid, config, &rng, &online);
      MeetingScheduler scheduler(peers);
      GridBuilder builder(&grid, &exchange, &scheduler, &rng);
      builder.BuildToFractionOfMaxDepth(0.99, 100'000'000);

      // Populate the leaf indexes, then leave some replicas one version behind
      // (single-shot DFS updates reach exactly one replica each) so the
      // anti-entropy target is real, not vacuous.
      InsertEngine inserter(&grid, &online, &rng);
      UpdateEngine updater(&grid, &online, &rng);
      UpdateConfig update_config;
      update_config.recbreadth = 2;
      update_config.repetition = 2;
      for (size_t i = 0; i < items; ++i) {
        DataItem item;
        item.id = i + 1;
        item.key = KeyPath::Random(&rng, maxl);
        item.version = 1;
        (void)inserter.Insert(item, static_cast<PeerId>(rng.UniformIndex(peers)),
                              update_config);
        if (i % 4 == 0) {
          UpdateConfig narrow;
          narrow.recbreadth = 1;
          narrow.repetition = 1;
          updater.Propagate(item.key, item.id, 2, UpdateStrategy::kRepeatedDfs,
                            narrow);
        }
      }

      ChurnDriver driver(&grid, &exchange, &scheduler, &online, &rng);
      ChurnConfig wave;
      wave.crash_fraction = crash;
      wave.join_fraction = 0.0;
      wave.meetings_per_round = 0;
      driver.Round(wave);

      SearchEngine search(&grid, &online, &rng);
      repair::RepairEngine repairer(&grid, config, arm.config, &search, &online,
                                    &rng);
      repairer.set_liveness([&driver](PeerId p) { return !driver.IsDead(p); });
      repairer.set_probe_fn(
          [&driver](PeerId, PeerId to) { return !driver.IsDead(to); });

      const auto convergence = [&]() {
        check::InvariantOptions opt;
        opt.check_structure = false;
        opt.check_coverage = false;
        opt.check_placement = false;
        opt.check_replica_agreement = false;
        opt.check_repair_convergence = true;
        opt.dead = &driver.dead_mask();
        opt.repair_min_live_refs = refmax;
        opt.max_violations = 100000;
        return check::GridInvariants::Check(grid, config, opt);
      };

      int64_t refs_round = -1;      // first round with no dead/underfull refs
      int64_t replicas_round = -1;  // first round with no stale replica pair
      // Series prefix: one timeline namespace per (arm, crash) cell.
      const std::string prefix =
          std::string(arm.name) + "/crash" +
          std::to_string(static_cast<int>(100 * crash)) + "/";
      // Every round of the heal window runs (no early exit): the timeline is
      // the full convergence curve, and the summary rounds are still the first
      // clean round of each invariant family.
      for (size_t r = 1; r <= rounds; ++r) {
        repairer.Tick();
        const check::InvariantReport rep = convergence();
        const uint64_t dead = rep.CountOf(check::Category::kDeadReference);
        const uint64_t underfull = rep.CountOf(check::Category::kRefUnderfull);
        const uint64_t stale = rep.CountOf(check::Category::kReplicaStale);
        timeline.AddPoint(prefix + "refs_dead", r, static_cast<double>(dead));
        timeline.AddPoint(prefix + "refs_underfull", r,
                          static_cast<double>(underfull));
        timeline.AddPoint(prefix + "replicas_stale", r,
                          static_cast<double>(stale));
        const bool refs_clean = dead == 0 && underfull == 0;
        const bool replicas_clean = stale == 0;
        if (refs_clean && refs_round < 0) refs_round = static_cast<int64_t>(r);
        if (replicas_clean && replicas_round < 0) {
          replicas_round = static_cast<int64_t>(r);
        }
      }
      const bool converged = refs_round >= 0 && replicas_round >= 0;

      const auto round_str = [](int64_t r) {
        return r < 0 ? std::string("never") : "round " + std::to_string(r);
      };
      std::printf("%-8s %5.0f%% | %-14s %-16s %s\n", arm.name, 100 * crash,
                  round_str(refs_round).c_str(),
                  round_str(replicas_round).c_str(), converged ? "yes" : "NO");
      report.AddRow()
          .Str("arm", arm.name)
          .Num("crash_fraction", crash)
          .Int("rounds_window", rounds)
          .Int("rounds_to_full_refs", refs_round)
          .Int("rounds_to_replica_agreement", replicas_round)
          .Int("converged", converged ? 1 : 0)
          .Int("live_peers", driver.live_count());
    }
  }
  // Partition-heal arm (docs/robustness.md): divergence under a live
  // partition, then reconciliation work and availability through the event.
  RunPartitionHeal(static_cast<size_t>(args.GetInt("heal_peers", 48)), maxl,
                   seed, &report);

  report.WriteTo(args.GetString("json", "BENCH_repair_convergence.json"));
  bench::DumpToFile(args.GetString("timeline-json", "BENCH_rc_timeline.json"),
                    "timeline", timeline.ToJson());
  std::printf("\n(convergence = no live peer references a dead one, every "
              "level holds min(refmax, live supply) live refs, and all live "
              "buddy pairs agree on entries and versions)\n");
}

}  // namespace
}  // namespace pgrid

int main(int argc, char** argv) {
  pgrid::bench::Args args(argc, argv);
  pgrid::Run(args);
  return 0;
}
