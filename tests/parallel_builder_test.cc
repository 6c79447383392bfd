// Determinism of the multi-threaded grid builder.
//
// The load-bearing guarantee (core/parallel_builder.h) is that the built grid is a
// pure function of (seed, batch_size) -- independent of the thread count. These
// tests verify it at full strength: grids built at 1, 2, and 8 threads are
// snapshotted (src/snapshot) and the snapshot files compared byte for byte, and
// every message count (MessageStats by type) and the path-length accounting must
// agree exactly.

#include "core/parallel_builder.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "gtest/gtest.h"
#include "snapshot/snapshot.h"
#include "sim/digest.h"
#include "sim/meeting_scheduler.h"
#include "util/rng.h"

namespace pgrid {
namespace {

struct ParallelBuilt {
  ExchangeConfig config;
  std::unique_ptr<Grid> grid;
  BuildReport report;
};

ParallelBuilt BuildParallel(size_t num_peers, size_t threads, uint64_t seed,
                            size_t maxl = 5, size_t recmax = 2,
                            bool manage_data = true, size_t batch_size = 128,
                            BuildProfile* profile = nullptr) {
  ParallelBuilt out;
  out.config.maxl = maxl;
  out.config.refmax = 4;
  out.config.recmax = recmax;
  out.config.recursion_fanout = 2;
  out.config.manage_data = manage_data;
  out.grid = std::make_unique<Grid>(num_peers);
  Rng master(seed);
  ExchangeEngine exchange(out.grid.get(), out.config, &master);
  MeetingScheduler scheduler(num_peers);
  ParallelBuildOptions options;
  options.threads = threads;
  options.batch_size = batch_size;
  options.profile = profile != nullptr;
  ParallelGridBuilder builder(out.grid.get(), &exchange, &scheduler, &master,
                              options);
  out.report = builder.BuildToFractionOfMaxDepth(0.99, 5'000'000);
  if (profile != nullptr) {
    EXPECT_NE(builder.profile(), nullptr);
    if (builder.profile() != nullptr) *profile = *builder.profile();
  } else {
    EXPECT_EQ(builder.profile(), nullptr);
  }
  return out;
}

std::string SnapshotBytes(const ParallelBuilt& built, const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  EXPECT_TRUE(SaveGrid(*built.grid, built.config, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  return buf.str();
}

TEST(ParallelBuilderTest, ConvergesAndReportsSanely) {
  ParallelBuilt built = BuildParallel(400, /*threads=*/2, /*seed=*/7);
  EXPECT_TRUE(built.report.converged);
  EXPECT_GT(built.report.meetings, 0u);
  EXPECT_GE(built.report.exchanges, built.report.meetings);
  EXPECT_GE(built.report.avg_path_length, 0.99 * 5.0);
  EXPECT_DOUBLE_EQ(built.report.avg_path_length,
                   built.grid->AveragePathLength());
}

TEST(ParallelBuilderTest, ThreadCountDoesNotChangeTheGrid) {
  ParallelBuilt t1 = BuildParallel(400, /*threads=*/1, /*seed=*/42);
  ParallelBuilt t2 = BuildParallel(400, /*threads=*/2, /*seed=*/42);
  ParallelBuilt t8 = BuildParallel(400, /*threads=*/8, /*seed=*/42);

  // The whole structure -- paths, reference tables, buddies, leaf indexes --
  // serialized and compared byte for byte.
  const std::string s1 = SnapshotBytes(t1, "par_t1.pgrid");
  const std::string s2 = SnapshotBytes(t2, "par_t2.pgrid");
  const std::string s8 = SnapshotBytes(t8, "par_t8.pgrid");
  ASSERT_FALSE(s1.empty());
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s8);

  // Message counts agree exactly, for every message type.
  for (int t = 0; t < kNumMessageTypes; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    EXPECT_EQ(t1.grid->stats().count(type), t2.grid->stats().count(type))
        << MessageTypeName(type);
    EXPECT_EQ(t1.grid->stats().count(type), t8.grid->stats().count(type))
        << MessageTypeName(type);
  }
  EXPECT_EQ(t1.report.meetings, t2.report.meetings);
  EXPECT_EQ(t1.report.meetings, t8.report.meetings);
  EXPECT_EQ(t1.report.exchanges, t8.report.exchanges);
  EXPECT_DOUBLE_EQ(t1.report.avg_path_length, t8.report.avg_path_length);
}

TEST(ParallelBuilderTest, ThreadCountInvariantWithoutRecursion) {
  // recmax = 0: no deferred work at all; the wave machinery alone must already be
  // deterministic.
  ParallelBuilt t1 =
      BuildParallel(300, 1, /*seed=*/9, /*maxl=*/4, /*recmax=*/0);
  ParallelBuilt t8 =
      BuildParallel(300, 8, /*seed=*/9, /*maxl=*/4, /*recmax=*/0);
  EXPECT_EQ(SnapshotBytes(t1, "norec_t1.pgrid"),
            SnapshotBytes(t8, "norec_t8.pgrid"));
  EXPECT_EQ(t1.grid->stats().count(MessageType::kExchange),
            t8.grid->stats().count(MessageType::kExchange));
}

TEST(ParallelBuilderTest, ThreadCountInvariantWithoutDataManagement) {
  // The pure-construction-cost configuration (T1-T5 experiments).
  ParallelBuilt t1 = BuildParallel(300, 1, /*seed=*/5, /*maxl=*/4, /*recmax=*/2,
                                   /*manage_data=*/false);
  ParallelBuilt t8 = BuildParallel(300, 8, /*seed=*/5, /*maxl=*/4, /*recmax=*/2,
                                   /*manage_data=*/false);
  EXPECT_EQ(SnapshotBytes(t1, "nodata_t1.pgrid"),
            SnapshotBytes(t8, "nodata_t8.pgrid"));
  EXPECT_EQ(t1.grid->stats().count(MessageType::kDataTransfer), 0u);
  EXPECT_EQ(t8.grid->stats().count(MessageType::kDataTransfer), 0u);
}

TEST(ParallelBuilderTest, BatchSizeIsPartOfTheSchedule) {
  // Documented contract: the result is f(seed, batch_size). Different batch sizes
  // may legitimately produce different grids; same batch size must not.
  ParallelBuilt a = BuildParallel(300, 2, /*seed=*/3, 5, 2, true,
                                  /*batch_size=*/64);
  ParallelBuilt b = BuildParallel(300, 4, /*seed=*/3, 5, 2, true,
                                  /*batch_size=*/64);
  EXPECT_EQ(SnapshotBytes(a, "batch_a.pgrid"), SnapshotBytes(b, "batch_b.pgrid"));
}

TEST(ParallelBuilderTest, BuiltGridSatisfiesAllInvariantsAtEveryThreadCount) {
  // Byte-identical snapshots (above) prove 2- and 8-thread grids equal the
  // 1-thread one; this checks the shared structure is actually *correct* --
  // references, coverage, placement and replicas -- via the full checker,
  // independently at each thread count.
  for (size_t threads : {1u, 2u, 8u}) {
    ParallelBuilt built = BuildParallel(400, threads, /*seed=*/42);
    check::InvariantReport report =
        check::GridInvariants::Check(*built.grid, built.config);
    EXPECT_TRUE(report.ok()) << "threads=" << threads << "\n"
                             << report.ToString();
    EXPECT_EQ(report.peers_checked, built.grid->size());
  }
}

TEST(ParallelBuilderTest, ProfilingDoesNotChangeTheGrid) {
  // Profiling only observes; turning it on must not perturb the schedule,
  // the exchanges, or the resulting structure in any way.
  ParallelBuilt plain = BuildParallel(300, /*threads=*/4, /*seed=*/13);
  BuildProfile profile;
  ParallelBuilt profiled = BuildParallel(300, 4, 13, 5, 2, true, 128, &profile);
  EXPECT_EQ(SnapshotBytes(plain, "prof_off.pgrid"),
            SnapshotBytes(profiled, "prof_on.pgrid"));
  EXPECT_EQ(plain.report.meetings, profiled.report.meetings);
  EXPECT_EQ(plain.report.exchanges, profiled.report.exchanges);
}

TEST(ParallelBuilderTest, ProfileWaveStructureIsThreadCountInvariant) {
  // The per-wave structure report (batch/wave/scheduled/width -- everything
  // except timings) is schedule-determined, so it must be byte identical at
  // every thread count. This is what lets profiles from different thread
  // counts be compared wave by wave (bench_parallel_profile).
  BuildProfile p1, p4;
  BuildParallel(300, /*threads=*/1, /*seed=*/42, 5, 2, true, 128, &p1);
  BuildParallel(300, /*threads=*/4, /*seed=*/42, 5, 2, true, 128, &p4);
  ASSERT_FALSE(p1.waves.empty());
  EXPECT_EQ(p1.StructureJson(), p4.StructureJson());
  // The timing side is populated and sane: a serial fraction in (0, 1], and
  // every wave carries one busy sum per lane.
  for (const BuildProfile* p : {&p1, &p4}) {
    EXPECT_GT(p->SerialFraction(), 0.0);
    EXPECT_LE(p->SerialFraction(), 1.0);
    for (const WaveProfile& w : p->waves) {
      EXPECT_EQ(w.lane_busy_ns.size(), p->threads) << "wave " << w.wave;
    }
    EXPECT_GT(p->BusyNs(), 0u) << "threads=" << p->threads;
  }
  EXPECT_EQ(p1.threads, 1u);
  EXPECT_EQ(p4.threads, 4u);
}

TEST(ParallelBuilderTest, DeterminismMatrixAcrossThreadsAndBatchSizes) {
  // The full contract in one sweep: for each batch size, every thread count in
  // {1, 2, 4, 8} must reproduce the t=1 build bit for bit -- byte-identical
  // snapshot, identical FNV structure digest (sim/digest.h) -- and the result
  // must actually be a well-formed grid per the full invariant checker. Batch
  // size, on the other hand, is *part* of the schedule: different batch sizes
  // legitimately produce different grids, which the digests confirm.
  const uint64_t seed = 1234;
  std::vector<uint64_t> digest_per_batch;
  for (const size_t batch_size : {64u, 128u, 256u}) {
    std::string baseline_snapshot;
    uint64_t baseline_digest = 0;
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      ParallelBuilt built = BuildParallel(300, threads, seed, /*maxl=*/5,
                                          /*recmax=*/2, /*manage_data=*/true,
                                          batch_size);
      const std::string snapshot = SnapshotBytes(built, "matrix.pgrid");
      const uint64_t digest = sim::GridStateDigest(*built.grid);
      ASSERT_FALSE(snapshot.empty());
      if (threads == 1) {
        baseline_snapshot = snapshot;
        baseline_digest = digest;
        digest_per_batch.push_back(digest);
      } else {
        EXPECT_EQ(snapshot, baseline_snapshot)
            << "batch=" << batch_size << " threads=" << threads;
        EXPECT_EQ(digest, baseline_digest)
            << "batch=" << batch_size << " threads=" << threads;
      }
      check::InvariantReport report =
          check::GridInvariants::Check(*built.grid, built.config);
      EXPECT_TRUE(report.ok()) << "batch=" << batch_size
                               << " threads=" << threads << "\n"
                               << report.ToString();
      EXPECT_EQ(report.peers_checked, built.grid->size());
    }
  }
  // Three batch sizes, three schedules, three distinct grids.
  ASSERT_EQ(digest_per_batch.size(), 3u);
  EXPECT_NE(digest_per_batch[0], digest_per_batch[1]);
  EXPECT_NE(digest_per_batch[1], digest_per_batch[2]);
}

TEST(ParallelBuilderTest, RunMeetingsIsThreadCountInvariant) {
  // The external-batch entry point (used by the scenario runner) goes through
  // the same wave machinery, so the same determinism contract applies.
  auto run = [](size_t threads) {
    ParallelBuilt out;
    out.config.maxl = 4;
    out.config.refmax = 4;
    out.config.recmax = 2;
    out.config.recursion_fanout = 2;
    out.config.manage_data = true;
    out.grid = std::make_unique<Grid>(200);
    Rng master(11);
    ExchangeEngine exchange(out.grid.get(), out.config, &master);
    MeetingScheduler scheduler(200);
    ParallelBuildOptions options;
    options.threads = threads;
    ParallelGridBuilder builder(out.grid.get(), &exchange, &scheduler, &master,
                                options);
    Rng pairs(77);
    for (int step = 0; step < 20; ++step) {
      std::vector<Meeting> meetings;
      for (int i = 0; i < 100; ++i) {
        const PeerId a = static_cast<PeerId>(pairs.UniformIndex(200));
        const PeerId b = static_cast<PeerId>(pairs.UniformIndex(200));
        if (a != b) meetings.push_back({a, b});
      }
      builder.RunMeetings(meetings);
    }
    return out;
  };
  ParallelBuilt t1 = run(1);
  ParallelBuilt t4 = run(4);
  EXPECT_GT(t1.grid->AveragePathLength(), 0.0);
  EXPECT_EQ(sim::GridStateDigest(*t1.grid), sim::GridStateDigest(*t4.grid));
  EXPECT_EQ(SnapshotBytes(t1, "rm_t1.pgrid"), SnapshotBytes(t4, "rm_t4.pgrid"));
  EXPECT_EQ(t1.grid->stats().count(MessageType::kExchange),
            t4.grid->stats().count(MessageType::kExchange));
}

TEST(ParallelBuilderTest, MatchesABarrierFreeShardedReplay) {
  // Independent cross-check without snapshots: two runs that share (seed,
  // batch_size) but differ in everything thread-related (1 vs 3) must agree on
  // the per-peer path depths.
  ParallelBuilt a = BuildParallel(256, 1, /*seed=*/77, /*maxl=*/4);
  ParallelBuilt b = BuildParallel(256, 3, /*seed=*/77, /*maxl=*/4);
  for (size_t i = 0; i < a.grid->size(); ++i) {
    ASSERT_EQ(a.grid->peer(i).path(), b.grid->peer(i).path()) << "peer " << i;
  }
}

}  // namespace
}  // namespace pgrid
