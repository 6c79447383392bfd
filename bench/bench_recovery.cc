// Recovery: restarting crashed peers from durable storage vs healing around
// the loss (storage extension, docs/storage.md).
//
// A converged, data-bearing grid loses a handful of peers at one instant. Two
// arms then bring the community back to the repair-convergence target state
// (check/invariants.h):
//  - restart: every victim persisted its state through the storage backend
//             (storage/persist.h) before dying; recovery replays snapshot +
//             WAL tail from disk, revives the peer, and runs one targeted
//             RejoinSync anti-entropy pass per victim so it pulls whatever it
//             missed while down,
//  - recruit: the victims are gone for good; the survivors' RepairEngine must
//             detect the dead references, evict them, and recruit live
//             replacements tick by tick until the convergence invariants hold.
// Both arms run over byte-identical grids (same seeds) and report network
// messages and wall time. The claim under test: restart is strictly cheaper
// than recruitment in both, and the gap widens with index size -- disk replay
// is O(own state) while recruitment is O(probe + search traffic across the
// survivors).
//
// Flags: --peers, --maxl, --refmax, --victims, --rounds, --seed, --json,
//        --big (append a 100k-item sweep point toward the 1M-key regime).

#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "check/invariants.h"
#include "core/churn.h"
#include "core/search.h"
#include "repair/repair.h"
#include "sim/digest.h"
#include "storage/persist.h"
#include "util/stopwatch.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

struct Community {
  ExchangeConfig config;
  Grid grid;
  Rng rng;
  OnlineModel online;
  MeetingScheduler scheduler;
  std::unique_ptr<ExchangeEngine> exchange;
  std::unique_ptr<ChurnDriver> churn;
  std::unique_ptr<SearchEngine> search;
  std::unique_ptr<repair::RepairEngine> repair;

  Community(size_t peers, size_t maxl, size_t refmax, size_t items,
            uint64_t seed)
      : grid(peers), rng(seed), online(OnlineModel::AlwaysOn(peers)),
        scheduler(peers) {
    config.maxl = maxl;
    config.refmax = refmax;
    config.recmax = 2;
    config.recursion_fanout = 2;
    exchange = std::make_unique<ExchangeEngine>(&grid, config, &rng, &online);
    churn = std::make_unique<ChurnDriver>(&grid, exchange.get(), &scheduler,
                                          &online, &rng);
    GridBuilder builder(&grid, exchange.get(), &scheduler, &rng);
    builder.BuildToFractionOfMaxDepth(0.99, 100'000'000);

    Rng corpus_rng(seed + 1);
    std::vector<PeerId> holders;
    KeyGenerator gen(KeyGenerator::Mode::kUniform, 2 * maxl);
    auto corpus = MakeCorpus(items, peers, gen, &corpus_rng, &holders);
    SeedGridPerfectly(&grid, corpus, holders);

    search = std::make_unique<SearchEngine>(&grid, &online, &rng);
    repair = std::make_unique<repair::RepairEngine>(
        &grid, config, repair::RepairConfig{}, search.get(), &online, &rng);
    repair->set_liveness([this](PeerId p) { return !churn->IsDead(p); });
    repair->set_probe_fn(
        [this](PeerId, PeerId to) { return !churn->IsDead(to); });
  }

  uint64_t TotalEntries() const {
    uint64_t sum = 0;
    for (const PeerState& p : grid) sum += p.index().size();
    return sum;
  }

  bool Converged(size_t min_live_refs) {
    check::InvariantOptions opt;
    opt.check_structure = false;
    opt.check_coverage = false;
    opt.check_placement = false;
    opt.check_replica_agreement = false;
    opt.check_repair_convergence = true;
    opt.dead = &churn->dead_mask();
    opt.repair_min_live_refs = min_live_refs;
    return check::GridInvariants::Check(grid, config, opt).ok();
  }
};

struct ArmResult {
  uint64_t messages = 0;
  double wall_ms = 0;
  int64_t rounds = -1;  ///< recruit arm: ticks to convergence (-1 = never)
  bool converged = false;
};

void Run(const bench::Args& args) {
  const size_t peers = static_cast<size_t>(args.GetInt("peers", 256));
  const size_t maxl = static_cast<size_t>(args.GetInt("maxl", 4));
  const size_t refmax = static_cast<size_t>(args.GetInt("refmax", 3));
  const size_t victims_n = static_cast<size_t>(args.GetInt("victims", 8));
  const size_t rounds = static_cast<size_t>(args.GetInt("rounds", 16));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  bench::Banner("Recovery: restart from durable state vs recruitment",
                "storage extension (docs/storage.md)",
                "replaying snapshot + WAL and delta-syncing is strictly "
                "cheaper than healing around the loss");

  std::vector<size_t> item_sweep = {100, 1'000, 10'000};
  if (args.Has("big")) item_sweep.push_back(100'000);

  std::printf("%zu peers, maxl %zu, refmax %zu, %zu victims per wave\n\n",
              peers, maxl, refmax, victims_n);
  std::printf("%-8s %-9s %-9s | %-10s %-10s %s\n", "items", "entries",
              "arm", "messages", "wall ms", "converged");

  bench::JsonReport report("recovery");
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pgrid-bench-recovery")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const size_t items : item_sweep) {
    ArmResult restart, recruit;
    uint64_t entries = 0;

    {
      Community c(peers, maxl, refmax, items, seed);
      entries = c.TotalEntries();
      storage::StorageConfig storage_config;
      storage_config.dir = dir;
      storage_config.sync_mode = storage::SyncMode::kFlush;
      storage::PersistenceManager manager(storage_config, maxl);

      std::vector<PeerId> victims;
      for (size_t i = 0; i < victims_n; ++i) {
        victims.push_back(static_cast<PeerId>((i * 29 + 3) % peers));
      }
      // Per-victim identity yardstick: key path and index digest must come
      // back byte-identical (RejoinSync may pool references with buddies, so
      // whole-grid digest equality is deliberately not demanded).
      std::vector<std::pair<std::string, uint64_t>> before;
      for (PeerId v : victims) {
        before.emplace_back(c.grid.peer(v).path().ToString(),
                            sim::IndexDigest(c.grid.peer(v).index()));
      }
      for (PeerId v : victims) {
        if (!manager.Attach(c.grid.peer(v)).ok()) return;
        c.grid.peer(v) = PeerState(v);
        c.churn->Depart(v, /*graceful=*/false);
      }

      const uint64_t base = c.grid.stats().total();
      Stopwatch watch;
      for (PeerId v : victims) {
        Result<PeerState> recovered = manager.Recover(v);
        if (!recovered.ok()) {
          std::fprintf(stderr, "recover failed: %s\n",
                       recovered.status().ToString().c_str());
          return;
        }
        c.grid.peer(v) = std::move(*recovered);
        c.churn->Revive(v);
        c.repair->RejoinSync(v);
      }
      restart.wall_ms = watch.ElapsedMillis();
      restart.messages = c.grid.stats().total() - base;
      restart.converged = true;
      for (size_t i = 0; i < victims.size(); ++i) {
        const PeerState& v = c.grid.peer(victims[i]);
        if (v.path().ToString() != before[i].first ||
            sim::IndexDigest(v.index()) != before[i].second) {
          restart.converged = false;
        }
      }
    }

    {
      Community c(peers, maxl, refmax, items, seed);
      for (size_t i = 0; i < victims_n; ++i) {
        const PeerId v = static_cast<PeerId>((i * 29 + 3) % peers);
        c.grid.peer(v) = PeerState(v);
        c.churn->Depart(v, /*graceful=*/false);
      }
      const uint64_t base = c.grid.stats().total();
      Stopwatch watch;
      for (size_t r = 1; r <= rounds; ++r) {
        c.repair->Tick();
        if (c.Converged(refmax)) {
          recruit.rounds = static_cast<int64_t>(r);
          break;
        }
      }
      recruit.wall_ms = watch.ElapsedMillis();
      recruit.messages = c.grid.stats().total() - base;
      recruit.converged = recruit.rounds > 0;
    }

    std::printf("%-8zu %-9llu %-9s | %-10llu %-10.2f %s\n", items,
                static_cast<unsigned long long>(entries), "restart",
                static_cast<unsigned long long>(restart.messages),
                restart.wall_ms, restart.converged ? "yes" : "NO");
    std::printf("%-8s %-9s %-9s | %-10llu %-10.2f %s (%lld ticks)\n", "", "",
                "recruit", static_cast<unsigned long long>(recruit.messages),
                recruit.wall_ms, recruit.converged ? "yes" : "NO",
                static_cast<long long>(recruit.rounds));

    report.AddRow()
        .Str("arm", "restart")
        .Int("items", items)
        .Int("entries", entries)
        .Int("victims", victims_n)
        .Int("messages", restart.messages)
        .Num("wall_ms", restart.wall_ms)
        .Int("converged", restart.converged ? 1 : 0);
    report.AddRow()
        .Str("arm", "recruit")
        .Int("items", items)
        .Int("entries", entries)
        .Int("victims", victims_n)
        .Int("messages", recruit.messages)
        .Num("wall_ms", recruit.wall_ms)
        .Int("rounds", recruit.rounds)
        .Int("converged", recruit.converged ? 1 : 0);
  }
  std::filesystem::remove_all(dir);
  report.WriteTo(args.GetString("json", "BENCH_recovery.json"));
  std::printf("\n(restart = snapshot + WAL replay, revive, one RejoinSync "
              "pass per victim, converged = every victim's key path and index "
              "digest byte-identical to pre-crash; recruit = full repair "
              "ticks until the convergence "
              "invariants hold over the survivors)\n");
}

}  // namespace
}  // namespace pgrid

int main(int argc, char** argv) {
  pgrid::bench::Args args(argc, argv);
  pgrid::Run(args);
  return 0;
}
