// Crash-recovery property tests for the durable storage backend
// (storage/persist.h) and the kill/restart scenario steps
// (sim/scenario.h).
//
// The central property: for any reachable grid state, persist -> recover is
// the identity -- the recovered PeerState digests byte-identically to the live
// one, whichever route the bytes took (snapshot at attach, or the whole state
// streamed through WAL delta records). The 50-seed sweep below checks it over
// fuzzer-generated states rather than hand-picked ones. The remaining tests
// pin the operational story: torn tails are truncated during recovery,
// compaction folds the WAL into the snapshot, a commit after a failed or torn
// write re-snapshots instead of losing state, a killed-and-restarted peer
// rejoins byte-identically and converges via RejoinSync at a fraction of the
// recruitment cost, and the simulated-network node recovers through the same
// machinery.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/search.h"
#include "net/inproc_transport.h"
#include "net/node.h"
#include "repair/repair.h"
#include "sim/digest.h"
#include "sim/fuzzer.h"
#include "sim/scenario.h"
#include "storage/persist.h"
#include "storage/wal.h"
#include "tests/test_util.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"

namespace pgrid {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Order-independent digest of one peer's full state: path, per-level
// references, buddies, leaf index, parked foreign entries, data store. Two
// PeerStates hold the same logical state iff their digests match; this is the
// "byte-identical rejoin" yardstick of the recovery acceptance criteria.
uint64_t PeerDigest(const PeerState& peer) {
  sim::Digest d;
  d.U64(peer.id());
  d.Str(peer.path().ToString());
  for (size_t level = 1; level <= peer.depth(); ++level) {
    const auto refs = peer.RefsAt(level);
    d.U64(refs.size());
    for (PeerId r : refs) d.U64(r);
  }
  d.U64(peer.buddies().size());
  for (PeerId b : peer.buddies()) d.U64(b);
  d.U64(peer.index().size());
  d.U64(sim::IndexDigest(peer.index()));
  d.U64(peer.foreign_entries().size());
  for (const IndexEntry& e : peer.foreign_entries()) {
    d.U64(e.holder);
    d.U64(e.item_id);
    d.Str(e.key.ToString());
    d.U64(e.version);
  }
  // DataStore iteration order is unspecified: fold a commutative sum.
  uint64_t store_sum = peer.store().size() * 0x9e3779b97f4a7c15ull;
  for (const auto& [id, item] : peer.store()) {
    sim::Digest di;
    di.U64(id);
    di.Str(item.key.ToString());
    di.Str(item.payload);
    di.U64(item.version);
    store_sum += Mix64(di.value());
  }
  d.U64(store_sum);
  return d.value();
}

// ---- the persist -> recover identity, over fuzzer-generated states ----

TEST(RecoveryTest, FiftyFuzzSeedsRoundTripEveryPeerByteIdentically) {
  sim::FuzzOptions bounds;
  bounds.min_steps = 6;
  bounds.max_steps = 14;
  bounds.min_peers = 8;
  bounds.max_peers = 20;
  const std::string dir = FreshDir("recovery_fifty_seeds");
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Scenario scenario = sim::ScenarioFuzzer::Generate(seed, bounds);
    sim::ScenarioRunner runner(scenario);
    sim::ScenarioResult result = runner.Run();
    ASSERT_FALSE(result.failed) << result.report.ToString();

    storage::StorageConfig config;
    config.dir = dir;
    config.sync_mode = storage::SyncMode::kNone;
    storage::PersistenceManager manager(config, scenario.config.maxl);
    Grid& grid = runner.grid();
    for (PeerId id = 0; id < grid.size(); ++id) {
      const PeerState& live = grid.peer(id);
      // Alternate the persistence flavor per peer: even ids snapshot the
      // state at attach, odd ids attach empty and stream everything through
      // WAL delta records.
      if ((seed + id) % 2 == 0) {
        ASSERT_TRUE(manager.Attach(live).ok());
      } else {
        ASSERT_TRUE(manager.Attach(PeerState(id)).ok());
        ASSERT_TRUE(manager.Commit(live, storage::PeerDelta::All(live)).ok());
      }
      Result<PeerState> recovered = manager.Recover(id);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(PeerDigest(*recovered), PeerDigest(live)) << "peer " << id;
      manager.Detach(id);
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
}

// ---- canonical snapshots: save -> recover -> save is byte-identical ----

TEST(RecoveryTest, SaveRecoverSaveYieldsByteIdenticalSnapshots) {
  auto built = testing_util::Build(64, 4, 3, 2, 7);
  Rng rng(21);
  std::vector<PeerId> holders;
  KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
  auto corpus = MakeCorpus(40, 64, gen, &rng, &holders);
  SeedGridPerfectly(built.grid.get(), corpus, holders);

  storage::StorageConfig config;
  config.dir = FreshDir("recovery_canonical_a");
  storage::PersistenceManager first(config, built.config.maxl);
  storage::StorageConfig config2 = config;
  config2.dir = FreshDir("recovery_canonical_b");
  storage::PersistenceManager second(config2, built.config.maxl);

  for (PeerId id = 0; id < built.grid->size(); ++id) {
    ASSERT_TRUE(first.Attach(built.grid->peer(id)).ok());
    Result<PeerState> recovered = first.Recover(id);
    ASSERT_TRUE(recovered.ok());
    ASSERT_TRUE(second.Attach(*recovered).ok());
    // The snapshot codec writes entries in canonical sorted order, so saving
    // the recovered state reproduces the original file exactly -- no drift
    // across save/recover generations.
    EXPECT_EQ(ReadFileBytes(first.SnapshotPath(id)),
              ReadFileBytes(second.SnapshotPath(id)))
        << "peer " << id;
  }
}

// ---- operational properties of the snapshot + WAL pair ----

TEST(RecoveryTest, RecoverTruncatesATornWalTail) {
  auto built = testing_util::Build(64, 4, 3, 2, 3);
  storage::StorageConfig config;
  config.dir = FreshDir("recovery_torn_tail");
  config.sync_mode = storage::SyncMode::kFlush;
  storage::PersistenceManager manager(config, built.config.maxl);

  const PeerId victim = 5;
  const PeerState& live = built.grid->peer(victim);
  ASSERT_TRUE(manager.Attach(PeerState(victim)).ok());
  ASSERT_TRUE(manager.Commit(live, storage::PeerDelta::All(live)).ok());
  manager.Detach(victim);  // close the WAL handle before damaging the file

  const std::string wal_path = manager.WalPath(victim);
  const uint64_t clean_size = fs::file_size(wal_path);
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    out << "half-written record torn off by a crash";
  }
  ASSERT_GT(fs::file_size(wal_path), clean_size);

  Result<PeerState> recovered = manager.Recover(victim);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(PeerDigest(*recovered), PeerDigest(live));
  // Recovery truncated the torn tail: the file is back to the clean prefix
  // and a re-read reports no damage.
  EXPECT_EQ(fs::file_size(wal_path), clean_size);
  Result<storage::WalContents> reread = storage::ReadWal(wal_path);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread->torn_tail);
}

TEST(RecoveryTest, AutomaticCompactionFoldsTheWalIntoTheSnapshot) {
  auto built = testing_util::Build(64, 4, 3, 2, 4);
  storage::StorageConfig config;
  config.dir = FreshDir("recovery_compaction");
  config.compact_every = 2;
  storage::PersistenceManager manager(config, built.config.maxl);

  const PeerId id = 3;
  PeerState peer = built.grid->peer(id);
  ASSERT_TRUE(manager.Attach(peer).ok());

  peer.index().InsertOrRefresh(
      {id, 9001, testing_util::Key(peer.path().ToString().c_str()), 1});
  storage::PeerDelta d1;
  d1.MarkIndex(id, 9001);
  Result<storage::CommitInfo> c1 = manager.Commit(peer, d1);
  ASSERT_TRUE(c1.ok());
  EXPECT_GT(c1->records, 0u);
  EXPECT_FALSE(c1->compacted);
  ASSERT_GT(fs::file_size(manager.WalPath(id)), storage::kWalHeaderBytes);

  peer.index().InsertOrRefresh(
      {id, 9002, testing_util::Key(peer.path().ToString().c_str()), 1});
  storage::PeerDelta d2;
  d2.MarkIndex(id, 9002);
  Result<storage::CommitInfo> c2 = manager.Commit(peer, d2);
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2->compacted);
  // Compaction rewrote the snapshot and truncated the WAL back to its header.
  EXPECT_EQ(fs::file_size(manager.WalPath(id)), storage::kWalHeaderBytes);

  Result<PeerState> recovered = manager.Recover(id);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(PeerDigest(*recovered), PeerDigest(peer));
}

// ---- a failed write loses nothing: the next commit re-snapshots ----

TEST(RecoveryTest, AFailedWriteIsRepairedByTheNextCommit) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "needs /dev/full";
  auto built = testing_util::Build(64, 4, 3, 2, 6);
  storage::StorageConfig config;
  config.dir = FreshDir("recovery_failed_write");
  config.compact_every = 0;
  storage::PersistenceManager manager(config, built.config.maxl);
  const PeerId id = 2;
  PeerState peer = built.grid->peer(id);
  ASSERT_TRUE(manager.Attach(peer).ok());
  const KeyPath key = testing_util::Key(peer.path().ToString().c_str());

  // Point the log's path at a device on which every write fails. The next
  // re-open of the log -- a compaction's truncation -- picks it up.
  const std::string wal = manager.WalPath(id);
  fs::remove(wal);
  fs::create_symlink("/dev/full", wal);
  EXPECT_FALSE(manager.Compact(peer).ok());
  peer.index().InsertOrRefresh({id, 9001, key, 1});
  storage::PeerDelta first;
  first.MarkIndex(id, 9001);
  EXPECT_FALSE(manager.Commit(peer, first).ok());

  // With the path restored, the next commit rewrites the snapshot from the
  // live state -- the failed commit's entry included -- and starts a new log.
  fs::remove(wal);
  peer.index().InsertOrRefresh({id, 9002, key, 1});
  storage::PeerDelta second;
  second.MarkIndex(id, 9002);
  Result<storage::CommitInfo> repaired = manager.Commit(peer, second);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->compacted);
  EXPECT_EQ(repaired->records, 0u);
  Result<PeerState> recovered = manager.Recover(id);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(PeerDigest(*recovered), PeerDigest(peer));

  // Later commits append again.
  peer.index().Erase(id, 9001);
  Result<storage::CommitInfo> next = manager.Commit(peer, first);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->records, 1u);
  EXPECT_FALSE(next->compacted);
  recovered = manager.Recover(id);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(PeerDigest(*recovered), PeerDigest(peer));
}

TEST(RecoveryTest, ATornWriteIsRepairedByTheNextCommit) {
  auto built = testing_util::Build(64, 4, 3, 2, 6);
  storage::StorageConfig config;
  config.dir = FreshDir("recovery_torn_write");
  config.compact_every = 0;
  storage::PersistenceManager manager(config, built.config.maxl);
  const PeerId id = 2;
  PeerState peer = built.grid->peer(id);
  ASSERT_TRUE(manager.Attach(peer).ok());
  const KeyPath key = testing_util::Key(peer.path().ToString().c_str());
  const std::string wal = manager.WalPath(id);

  // Cap the process's file size a few bytes past the log's end: the next
  // commit's write stops inside its first frame, the way a crash or a full
  // disk cuts a write short, and leaves a torn frame behind.
  const uint64_t clean_size = fs::file_size(wal);
  struct rlimit limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &limit), 0);
  struct rlimit cap = limit;
  cap.rlim_cur = clean_size + 5;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &cap), 0);
  peer.index().InsertOrRefresh({id, 9001, key, 1});
  storage::PeerDelta first;
  first.MarkIndex(id, 9001);
  const bool torn_ok = manager.Commit(peer, first).ok();
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &limit), 0);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_FALSE(torn_ok);
  Result<storage::WalContents> torn = storage::ReadWal(wal);
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn->torn_tail);

  // Appending behind the torn frame would hide every later record from
  // recovery; the next commit re-snapshots instead.
  peer.index().InsertOrRefresh({id, 9002, key, 1});
  storage::PeerDelta second;
  second.MarkIndex(id, 9002);
  Result<storage::CommitInfo> repaired = manager.Commit(peer, second);
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_TRUE(repaired->compacted);
  EXPECT_EQ(fs::file_size(wal), storage::kWalHeaderBytes);
  Result<PeerState> recovered = manager.Recover(id);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(PeerDigest(*recovered), PeerDigest(peer));
}

TEST(RecoveryTest, CorruptSnapshotIsAHardError) {
  auto built = testing_util::Build(32, 3, 2, 2, 5);
  storage::StorageConfig config;
  config.dir = FreshDir("recovery_corrupt_snap");
  storage::PersistenceManager manager(config, built.config.maxl);
  ASSERT_TRUE(manager.Attach(built.grid->peer(1)).ok());
  manager.Detach(1);

  std::string bytes = ReadFileBytes(manager.SnapshotPath(1));
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(manager.SnapshotPath(1),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<PeerState> recovered = manager.Recover(1);
  EXPECT_FALSE(recovered.ok());
}

// ---- kill/restart scenario steps ----

TEST(RecoveryTest, KillRestartScenarioConvergesAndReplaysDeterministically) {
  sim::Scenario scenario;
  scenario.config.seed = 11;
  scenario.config.num_peers = 24;
  scenario.config.maxl = 4;
  scenario.config.refmax = 2;
  scenario.config.recmax = 2;
  using sim::StepKind;
  scenario.steps = {
      {StepKind::kExchange, 600, 0, 0, 0},
      {StepKind::kInsert, 2, 0b1010, 3, 4},
      {StepKind::kInsert, 7, 0b0110, 2, 4},
      {StepKind::kKill, 3, 0, 0, 0},   // snapshot-at-attach flavor
      {StepKind::kKill, 9, 0, 1, 0},   // WAL-delta flavor
      {StepKind::kExchange, 64, 0, 0, 0},
      {StepKind::kRestart, 0, 1, 0, 8},  // restart all killed peers
      {StepKind::kRepair, 4, 1, 0, 0},
      {StepKind::kBarrier, 4, 1, 0, 0},  // strict: demand repair convergence
  };
  sim::ScenarioResult first = sim::RunScenario(scenario);
  EXPECT_FALSE(first.failed) << first.report.ToString();
  EXPECT_EQ(first.steps_executed, scenario.steps.size());

  // Replaying the same scenario value reproduces the same final digest: the
  // kill/restart steps are as deterministic as every other step kind.
  sim::ScenarioResult second = sim::RunScenario(scenario);
  EXPECT_FALSE(second.failed);
  EXPECT_EQ(first.digest, second.digest);
}

TEST(RecoveryTest, KillRestartStepsRoundTripThroughTheTextFormat) {
  sim::Scenario scenario;
  scenario.config.num_peers = 12;
  scenario.steps = {
      {sim::StepKind::kKill, 4, 0, 1, 0},
      {sim::StepKind::kRestart, 2, 0, 0, 17},
      {sim::StepKind::kRestart, 0, 1, 0, 0},
  };
  Result<sim::Scenario> parsed =
      sim::ParseScenario(sim::SerializeScenario(scenario));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, scenario);
}

TEST(RecoveryTest, CrashSweepFuzzRunsClean) {
  sim::FuzzOptions options;
  options.base_seed = 1;
  options.num_seeds = 10;
  options.min_steps = 8;
  options.max_steps = 20;
  options.crash_sweep = true;
  sim::FuzzOutcome outcome = sim::ScenarioFuzzer::Fuzz(options);
  EXPECT_EQ(outcome.seeds_run, 10u);
  EXPECT_EQ(outcome.failures, 0u)
      << "seed " << outcome.failing_seed << ": "
      << outcome.failure.report.ToString();
}

// ---- restart vs recruitment ----

// Everything needed to crash and heal one simulated grid (mirrors the repair
// test fixture, sized down).
struct HealFixture {
  ExchangeConfig config;
  Grid grid{64};
  Rng rng{17};
  OnlineModel online;
  MeetingScheduler scheduler{64};
  std::unique_ptr<ExchangeEngine> exchange;
  std::unique_ptr<ChurnDriver> churn;
  std::unique_ptr<SearchEngine> search;
  std::unique_ptr<repair::RepairEngine> repair;

  HealFixture() : online(OnlineModel::AlwaysOn(64)) {
    config.maxl = 4;
    config.refmax = 3;
    config.recmax = 2;
    config.recursion_fanout = 2;
    exchange = std::make_unique<ExchangeEngine>(&grid, config, &rng, &online);
    churn = std::make_unique<ChurnDriver>(&grid, exchange.get(), &scheduler,
                                          &online, &rng);
    GridBuilder builder(&grid, exchange.get(), &scheduler, &rng);
    builder.BuildToFractionOfMaxDepth(0.99, 1'000'000);

    Rng corpus_rng(23);
    std::vector<PeerId> holders;
    KeyGenerator gen(KeyGenerator::Mode::kUniform, 8);
    auto corpus = MakeCorpus(60, 64, gen, &corpus_rng, &holders);
    SeedGridPerfectly(&grid, corpus, holders);

    search = std::make_unique<SearchEngine>(&grid, &online, &rng);
    repair = std::make_unique<repair::RepairEngine>(
        &grid, config, repair::RepairConfig{}, search.get(), &online, &rng);
    repair->set_liveness([this](PeerId p) { return !churn->IsDead(p); });
    repair->set_probe_fn(
        [this](PeerId, PeerId to) { return !churn->IsDead(to); });
  }
};

TEST(RecoveryTest, RestartedPeerRejoinsByteIdenticalAndCheaperThanHealing) {
  // Two identical fixtures (same seeds -> same grid): one restarts the
  // crashed peer from disk, the other heals around a permanent loss.
  HealFixture restart_arm;
  HealFixture recruit_arm;
  ASSERT_EQ(sim::GridStateDigest(restart_arm.grid),
            sim::GridStateDigest(recruit_arm.grid));

  const PeerId victim = 13;
  const std::string path_before =
      restart_arm.grid.peer(victim).path().ToString();
  const uint64_t index_before =
      sim::IndexDigest(restart_arm.grid.peer(victim).index());
  const uint64_t digest_before = PeerDigest(restart_arm.grid.peer(victim));
  ASSERT_FALSE(path_before.empty());

  // Restart arm: persist, crash (state wiped, as a real process death leaves
  // nothing in memory), recover from disk, revive, one RejoinSync pass.
  storage::StorageConfig config;
  config.dir = FreshDir("recovery_restart_arm");
  storage::PersistenceManager manager(config, restart_arm.config.maxl);
  ASSERT_TRUE(manager.Attach(restart_arm.grid.peer(victim)).ok());
  restart_arm.grid.peer(victim) = PeerState(victim);
  restart_arm.churn->Depart(victim, /*graceful=*/false);

  const uint64_t restart_base = restart_arm.grid.stats().total();
  Result<PeerState> recovered = manager.Recover(victim);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  restart_arm.grid.peer(victim) = std::move(*recovered);
  restart_arm.churn->Revive(victim);
  restart_arm.repair->RejoinSync(victim);
  const uint64_t restart_cost = restart_arm.grid.stats().total() - restart_base;

  // Byte-identical rejoin: key path and index digest exactly as before the
  // kill (RejoinSync may only have *added* missed updates; none exist here).
  EXPECT_EQ(restart_arm.grid.peer(victim).path().ToString(), path_before);
  EXPECT_EQ(sim::IndexDigest(restart_arm.grid.peer(victim).index()),
            index_before);
  EXPECT_EQ(PeerDigest(restart_arm.grid.peer(victim)), digest_before);

  // Recruit arm: the same peer dies with no durable state; the survivors must
  // detect the loss and recruit replacement references tick by tick.
  recruit_arm.grid.peer(victim) = PeerState(victim);
  recruit_arm.churn->Depart(victim, /*graceful=*/false);
  const uint64_t recruit_base = recruit_arm.grid.stats().total();
  check::InvariantOptions opt;
  opt.check_repair_convergence = true;
  opt.dead = &recruit_arm.churn->dead_mask();
  uint64_t ticks = 0;
  while (ticks < 12) {
    recruit_arm.repair->Tick();
    ++ticks;
    if (check::GridInvariants::Check(recruit_arm.grid, recruit_arm.config, opt)
            .ok()) {
      break;
    }
  }
  const uint64_t recruit_cost = recruit_arm.grid.stats().total() - recruit_base;

  EXPECT_LT(restart_cost, recruit_cost)
      << "restart " << restart_cost << " msgs vs recruit " << recruit_cost
      << " msgs (" << ticks << " ticks)";
}

// ---- simulated-network node recovery (net/node.h) ----

TEST(RecoveryTest, NodeRestartsFromDurableStorage) {
  net::InProcTransport transport;
  net::NodeConfig config;
  config.maxl = 3;
  config.refmax = 2;
  config.storage.dir = FreshDir("recovery_node_restart");
  config.storage.sync_mode = storage::SyncMode::kFlush;

  std::vector<std::unique_ptr<net::PGridNode>> nodes;
  for (size_t i = 0; i < 8; ++i) {
    nodes.push_back(std::make_unique<net::PGridNode>(
        "node:" + std::to_string(i), &transport, config, 1000 + i));
    ASSERT_TRUE(nodes.back()->Start().ok());
    EXPECT_FALSE(nodes.back()->recovered_from_disk());
  }
  Rng rng(5);
  for (size_t m = 0; m < 600; ++m) {
    size_t a = rng.UniformIndex(nodes.size());
    size_t b = rng.UniformIndex(nodes.size());
    if (a != b) (void)nodes[a]->MeetWith(nodes[b]->address());
  }
  DataItem item;
  item.id = 42;
  item.key = testing_util::Key("101");
  item.payload = "durable payload";
  item.version = 1;
  ASSERT_TRUE(nodes[0]->Publish(item).ok());

  const KeyPath path_before = nodes[2]->path();
  auto refs_before = nodes[2]->RefsAt(1);
  auto entries_before = nodes[2]->entries();
  ASSERT_FALSE(path_before.empty());

  // Kill node 2 (destroying the object loses all in-memory state) and bring
  // it back on the same address over the same storage directory.
  nodes[2]->Stop();
  nodes[2].reset();
  nodes[2] = std::make_unique<net::PGridNode>("node:2", &transport, config,
                                              7777);
  ASSERT_TRUE(nodes[2]->Start().ok());
  EXPECT_TRUE(nodes[2]->recovered_from_disk());
  EXPECT_EQ(nodes[2]->path().ToString(), path_before.ToString());
  EXPECT_EQ(nodes[2]->RefsAt(1), refs_before);
  EXPECT_EQ(nodes[2]->entries(), entries_before);

  // The restarted node keeps participating: it can still route and serve.
  Result<std::vector<net::WireEntry>> found =
      nodes[2]->Search(testing_util::Key("101"));
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_FALSE(found->empty());
}

}  // namespace
}  // namespace pgrid
