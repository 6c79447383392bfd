// sim_build: the simulator at the paper's largest community. Construction runs
// in set-up; the measured loop runs rounds of random-key queries, breadth-first
// updates of corpus items, and post-construction meetings, all on one thread.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "check/invariants.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "core/parallel_builder.h"
#include "core/search.h"
#include "core/update.h"
#include "obs/export.h"
#include "sim/meeting_scheduler.h"
#include "workload/corpus.h"
#include "workload/key_generator.h"
#include "workloads.h"

namespace perfbench {

using namespace pgrid;  // NOLINT: the benchmark calls across the whole library

namespace {

constexpr size_t kPeers = 20000;
constexpr size_t kItems = 20000;
constexpr size_t kKeyBits = 16;
constexpr size_t kQueriesPerRound = 256;
constexpr size_t kUpdatesPerRound = 16;
/// Few per round: every meeting still deepens the last shallow paths and moves
/// data, and the state the loop measures should not drift with its length.
constexpr size_t kMeetingsPerRound = 2;
constexpr double kBuildFraction = 0.99;
/// Construction runs in laps of this many meetings, with the probe between
/// laps. A multiple of ParallelGridBuilder's batch size, so the schedule is
/// the one a single call makes.
constexpr uint64_t kBuildLapMeetings = 40 * 256;
constexpr uint64_t kMaxBuildMeetings = 200'000'000;
/// Rounds per window of the measured loop; the probe runs between windows.
constexpr uint64_t kRoundsPerWindow = 32;

/// bench_t1's scaling arm, with data management on.
ExchangeConfig Config() {
  ExchangeConfig c;
  c.maxl = 8;
  c.refmax = 4;
  c.recmax = 2;
  c.recursion_fanout = 2;
  c.buddymax = 32;
  c.manage_data = true;
  return c;
}

UpdateConfig Updates() {
  UpdateConfig u;
  u.recbreadth = 2;
  u.repetition = 1;
  return u;
}

/// A built grid and everything needed to keep operating on it.
struct SimCommunity {
  std::unique_ptr<Grid> grid;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<ExchangeEngine> exchange;
  std::unique_ptr<MeetingScheduler> scheduler;
  std::unique_ptr<ParallelGridBuilder> builder;
  std::vector<DataItem> corpus;
  BuildReport build;
  /// The construction profile (profiled set-ups only), copied before the
  /// measured meetings add to it.
  BuildProfile build_profile;
  uint64_t build_data_moved = 0;  ///< kDataTransfer ledger over construction
  double setup_s = 0.0;           ///< scaled CPU time of the whole set-up
  double build_s = 0.0;           ///< scaled CPU time of construction alone
};

std::unique_ptr<SimCommunity> SetUp(uint64_t seed, bool profile,
                                    obs::TraceRecorder* recorder, SpeedProbe* probe) {
  ScaledClock clock(probe);
  auto c = std::make_unique<SimCommunity>();
  c->grid = std::make_unique<Grid>(kPeers);
  c->rng = std::make_unique<Rng>(seed);
  const KeyGenerator keys(KeyGenerator::Mode::kUniform, kKeyBits);
  std::vector<PeerId> holders;
  c->corpus = MakeCorpus(kItems, kPeers, keys, c->rng.get(), &holders);
  SeedGridAtHolders(c->grid.get(), c->corpus, holders);
  c->exchange = std::make_unique<ExchangeEngine>(c->grid.get(), Config(), c->rng.get());
  c->scheduler = std::make_unique<MeetingScheduler>(kPeers);
  ParallelBuildOptions opts;
  opts.threads = 1;
  opts.profile = profile;
  c->builder = std::make_unique<ParallelGridBuilder>(
      c->grid.get(), c->exchange.get(), c->scheduler.get(), c->rng.get(), opts);
  const uint64_t moved_before = c->grid->stats().count(MessageType::kDataTransfer);
  clock.Lap();
  {
    obs::TraceSpan span(recorder, "BuildToFractionOfMaxDepth");
    BuildReport lap;
    do {
      lap = c->builder->BuildToFractionOfMaxDepth(kBuildFraction, kBuildLapMeetings);
      c->build.meetings += lap.meetings;
      c->build.exchanges += lap.exchanges;
      c->build_s += clock.Lap();
    } while (!lap.converged && lap.meetings > 0 && c->build.meetings < kMaxBuildMeetings);
    c->build.avg_path_length = lap.avg_path_length;
    c->build.converged = lap.converged;
  }
  c->build_data_moved = c->grid->stats().count(MessageType::kDataTransfer) - moved_before;
  if (profile) c->build_profile = *c->builder->profile();
  c->setup_s = clock.total_s();
  return c;
}

/// Query, update and meeting samples, then one per round: CPU time per op.
enum SimKind : size_t { kQueryKind = 0, kUpdateKind, kMeetKind, kRoundKind, kNumSimKinds };

/// What the measured loop did. Every time is CPU time of the loop's thread,
/// scaled by the probe.
struct SimPhase {
  explicit SimPhase(SpeedProbe* probe) : samples(probe, kNumSimKinds) {}

  uint64_t rounds = 0;
  uint64_t queries = 0;
  uint64_t found = 0;
  uint64_t query_messages = 0;
  uint64_t updates = 0;
  uint64_t updates_unreached = 0;
  uint64_t update_messages = 0;
  uint64_t update_replicas = 0;
  uint64_t meetings = 0;
  double cpu_s = 0.0;  ///< scaled
  ScaledSamples samples;
};

/// Runs rounds until `seconds` of wall time pass or `max_rounds` are done
/// (0 = no cap). A round is a run of individually timed queries, a run of
/// updates and a few single meetings; the op stream is a function of `seed`.
SimPhase Measure(SimCommunity* c, uint64_t seed, double seconds, uint64_t max_rounds,
                 obs::TraceRecorder* recorder, SpeedProbe* probe) {
  SimPhase p(probe);
  Rng ops(DeriveStreamSeed(seed, 1));
  Rng update_rng(DeriveStreamSeed(seed, 2));
  Rng search_rng(DeriveStreamSeed(seed, 3));
  SearchEngine searcher(c->grid.get(), nullptr, &search_rng);
  UpdateEngine updater(c->grid.get(), nullptr, &update_rng);
  std::vector<uint64_t> versions(c->corpus.size(), 1);
  std::vector<Meeting> batch;
  std::vector<Meeting> one(1);
  const uint64_t start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  auto done = [&] {
    return max_rounds == 0 ? NowNs() - start >= budget_ns : p.rounds >= max_rounds;
  };
  uint64_t window_cpu = ThreadCpuNs();
  while (!done()) {
    const uint64_t round_cpu = ThreadCpuNs();
    const uint64_t ops_before = p.queries + p.updates + p.meetings;
    for (size_t i = 0; i < kQueriesPerRound; ++i) {
      const KeyPath key = KeyPath::Random(&search_rng, kKeyBits);
      const std::optional<PeerId> from = searcher.RandomOnlinePeer();
      ++p.queries;
      if (!from.has_value()) continue;  // counts as not found
      const uint64_t t = ThreadCpuNs();
      QueryResult result;
      {
        obs::TraceSpan span(recorder, "Query");
        result = searcher.Query(*from, key);
      }
      p.samples.Add(kQueryKind, static_cast<double>(ThreadCpuNs() - t) / 1e3);
      p.found += result.found ? 1 : 0;
      p.query_messages += result.messages;
    }

    for (size_t u = 0; u < kUpdatesPerRound; ++u) {
      const size_t i = ops.UniformIndex(c->corpus.size());
      const DataItem& item = c->corpus[i];
      const uint64_t t = ThreadCpuNs();
      UpdateOutcome out;
      {
        obs::TraceSpan span(recorder, "Propagate");
        out = updater.Propagate(item.key, item.id, ++versions[i],
                                UpdateStrategy::kBreadthFirst, Updates());
      }
      p.samples.Add(kUpdateKind, static_cast<double>(ThreadCpuNs() - t) / 1e3);
      ++p.updates;
      p.update_messages += out.messages;
      p.update_replicas += out.reached.size();
      if (out.reached.empty()) ++p.updates_unreached;
    }

    batch.clear();
    c->scheduler->NextBatch(&ops, kMeetingsPerRound, &batch);
    for (const Meeting& m : batch) {
      if (m.a == m.b) continue;  // RunMeetings skips self-pairs
      one[0] = m;
      const uint64_t t = ThreadCpuNs();
      {
        obs::TraceSpan span(recorder, "RunMeetings");
        c->builder->RunMeetings(one);
      }
      p.samples.Add(kMeetKind, static_cast<double>(ThreadCpuNs() - t) / 1e3);
      ++p.meetings;
    }
    p.samples.Add(kRoundKind,
                  static_cast<double>(ThreadCpuNs() - round_cpu) / 1e3 /
                      static_cast<double>(p.queries + p.updates + p.meetings - ops_before));
    ++p.rounds;
    if (p.rounds % kRoundsPerWindow == 0 || done()) {
      const uint64_t window_ns = ThreadCpuNs() - window_cpu;
      p.cpu_s += static_cast<double>(window_ns) / 1e9 * p.samples.CloseWindow();
      window_cpu = ThreadCpuNs();
    }
  }
  return p;
}

/// The correctness gates; each failed check counts as one failed operation.
void Check(const SimCommunity& c, const SimPhase& p, RunResult* r) {
  const double target = kBuildFraction * static_cast<double>(Config().maxl);
  if (!c.build.converged || c.build.avg_path_length < target) {
    r->Fail("construction stopped at average depth " +
            std::to_string(c.build.avg_path_length));
  }
  const check::InvariantReport inv = check::GridInvariants::Check(*c.grid, Config());
  if (!inv.ok()) r->Fail("grid invariants: " + inv.ToString());
  const uint64_t search_messages =
      c.grid->metrics().GetCounter("search.messages")->value();
  if (search_messages != c.grid->stats().count(MessageType::kQuery)) {
    r->Fail("search.messages disagrees with the kQuery ledger");
  }
  r->attempted += p.queries + p.updates + p.meetings;
  const uint64_t failed = (p.queries - p.found) + p.updates_unreached;
  r->failed += failed;
  if (failed > 0) {
    r->Fail(std::to_string(p.queries - p.found) + " queries not found, " +
            std::to_string(p.updates_unreached) + " updates reached no replica");
  }
}

/// Untraced: kSetups set-ups (setup_s and the construction rate are their
/// medians), then the measured loop on the last grid.
RunResult RunPlain(const RunOptions& o) {
  RunResult r;
  SpeedProbe probe;
  std::vector<double> setup_s, build_rate;
  std::unique_ptr<SimCommunity> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    c = SetUp(o.seed, /*profile=*/false, nullptr, &probe);
    setup_s.push_back(c->setup_s);
    build_rate.push_back(static_cast<double>(c->build.meetings) / c->build_s);
  }
  const double peak_rss_mb = PeakRssMb();  // before the loop's sample buffers
  const SimPhase p = Measure(c.get(), o.seed, o.seconds, 0, nullptr, &probe);
  Check(*c, p, &r);
  r.env.push_back("rounds=" + std::to_string(p.rounds));
  r.env.push_back("loop_scaled_cpu_s=" + std::to_string(p.cpu_s));
  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.peak_rss_mb = peak_rss_mb;
  e.build_meetings_per_s = Median(build_rate);
  e.ops_per_s = 1e6 / p.samples.samples(kRoundKind).Percentile(50);
  e.search_us = &p.samples.samples(kQueryKind);
  e.publish_us = &p.samples.samples(kUpdateKind);
  e.meet_us = &p.samples.samples(kMeetKind);
  AddEndToEnd(e, &r);
  r.env.push_back("probe_scale=" + ProbeSummary(probe));
  return r;
}

/// Traced: an untraced pass, the same seeded stream for the same number of
/// rounds with the builder profile and spans around every call, and an
/// untraced repeat, so drift over the process's lifetime cancels out of the
/// overhead. Each pass is a third of the run.
RunResult RunTraced(const RunOptions& o) {
  RunResult r;
  SpeedProbe probe;
  std::unique_ptr<SimCommunity> c = SetUp(o.seed, /*profile=*/false, nullptr, &probe);
  const SimPhase plain = Measure(c.get(), o.seed, o.seconds / 3, 0, nullptr, &probe);
  Check(*c, plain, &r);
  c.reset();

  obs::TraceRecorder recorder;
  c = SetUp(o.seed, /*profile=*/true, &recorder, &probe);
  const SimPhase p = Measure(c.get(), o.seed, 0, plain.rounds, &recorder, &probe);
  Check(*c, p, &r);

  const BuildProfile& prof = c->build_profile;
  uint64_t batches = 0, color_ns = 0, gather_ns = 0, waves = 0;
  for (const WaveProfile& w : prof.waves) {
    batches = std::max(batches, w.batch + 1);
    color_ns += w.color_ns;
    gather_ns += w.merge_ns;
    ++waves;
  }
  const double meetings = static_cast<double>(c->build.meetings);
  const double nb = static_cast<double>(std::max<uint64_t>(batches, 1));
  r.Add("sim.schedule_us_per_batch", static_cast<double>(prof.schedule_ns) / 1e3 / nb, "us");
  r.Add("core.color_us_per_batch", static_cast<double>(color_ns) / 1e3 / nb, "us");
  r.Add("core.exchange_us_per_meeting",
        static_cast<double>(prof.BusyNs()) / 1e3 / meetings, "us");
  r.Add("core.gather_us_per_batch",
        static_cast<double>(gather_ns + prof.merge_ns) / 1e3 / nb, "us");
  r.Add("core.waves_per_batch", static_cast<double>(waves) / nb, "count");
  r.Add("core.exchanges_per_meeting", static_cast<double>(c->build.exchanges) / meetings,
        "count");
  r.Add("storage.entries_moved_per_meeting",
        static_cast<double>(c->build_data_moved) / meetings, "count");
  r.Add("core.search_msgs_per_query",
        static_cast<double>(p.query_messages) / static_cast<double>(p.queries), "count");
  r.Add("core.update_msgs_per_update",
        static_cast<double>(p.update_messages) / static_cast<double>(p.updates), "count");
  r.Add("core.update_replicas_per_update",
        static_cast<double>(p.update_replicas) / static_cast<double>(p.updates), "count");
  size_t entries = 0;
  for (const PeerState& peer : *c->grid) entries += peer.index().size();
  r.Add("storage.index_entries_per_peer", static_cast<double>(entries) / kPeers, "count");
  r.Add("core.grid_bytes_per_peer",
        static_cast<double>(c->grid->ApproxMemoryBytes()) / kPeers, "B");
  c.reset();

  c = SetUp(o.seed, /*profile=*/false, nullptr, &probe);
  const SimPhase after = Measure(c.get(), o.seed, 0, plain.rounds, nullptr, &probe);
  r.Add("obs.trace_overhead_pct", OverheadPct(p.cpu_s, plain.cpu_s, after.cpu_s), "%");
  const std::string trace = WriteTrace(o.work_dir, "sim_build",
                                       obs::TraceToChromeJson(recorder.events()));
  r.env.push_back("rounds=" + std::to_string(plain.rounds));
  r.env.push_back("trace=" + trace);
  r.env.push_back("trace_spans_dropped=" + std::to_string(recorder.dropped()));
  CompletePerLayer(&r);
  return r;
}

}  // namespace

RunResult RunSimBuild(const RunOptions& o) { return o.trace ? RunTraced(o) : RunPlain(o); }

}  // namespace perfbench
