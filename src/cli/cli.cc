#include "cli/cli.h"

#include <fstream>
#include <iomanip>
#include <map>
#include <utility>

#include "check/invariants.h"
#include "core/exchange.h"
#include "core/grid_builder.h"
#include "core/parallel_builder.h"
#include "core/search.h"
#include "core/stats.h"
#include "key/text_key.h"
#include "net/inproc_transport.h"
#include "net/node.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_view.h"
#include "sim/fuzzer.h"
#include "sim/meeting_scheduler.h"
#include "sim/scenario.h"
#include "snapshot/snapshot.h"
#include "storage/data_item.h"
#include "util/flags.h"

namespace pgrid {
namespace cli {

namespace {

std::string UsageFor(const std::string& command) {
  if (command == "build") {
    return "pgrid build --peers=N --out=FILE [--maxl=8] [--refmax=4] [--recmax=2]"
           " [--fanout=2] [--threshold=0.99] [--seed=42] [--threads=1]"
           " [--metrics-json=FILE]";
  }
  if (command == "info") return "pgrid info --in=FILE";
  if (command == "verify") return "pgrid verify --in=FILE";
  if (command == "search") {
    return "pgrid search --in=FILE (--key=BITS | --text=STR) [--start=ID]"
           " [--online=P] [--seed=1] [--metrics-json=FILE]";
  }
  if (command == "prefix") {
    return "pgrid prefix --in=FILE (--key=BITS | --text=STR) [--fanout=8] [--seed=1]"
           " [--metrics-json=FILE]";
  }
  if (command == "range") {
    return "pgrid range --in=FILE --lo=BITS --hi=BITS [--fanout=8] [--seed=1]"
           " [--metrics-json=FILE]";
  }
  if (command == "bench-search") {
    return "pgrid bench-search --in=FILE [--queries=1000] [--online=0.3]"
           " [--keylen=maxl] [--seed=1] [--metrics-json=FILE]";
  }
  if (command == "fuzz") {
    return "pgrid fuzz [--seeds=50] [--base-seed=1] [--min-steps=10]"
           " [--max-steps=40] [--max-peers=48]"
           " [--heal-tail | --crash-sweep | --macro-sweep] [--thread-sweep]"
           " [--out=REPRO.pgs]"
           " [--keep-going] [--timeline-json=FILE]";
  }
  if (command == "replay") {
    return "pgrid replay FILE  (or --in=FILE) [--timeline-json=FILE]"
           " [--metrics-json=FILE]";
  }
  if (command == "trace") {
    return "pgrid trace [--peers=8] [--meetings=N] [--maxl=4] [--seed=7]"
           " [--key=BITS] [--trace-json=FILE]";
  }
  return UsageText();
}

Status RequireFlag(const FlagSet& flags, const std::string& name) {
  if (!flags.Has(name)) {
    return Status::InvalidArgument("missing required flag --" + name);
  }
  return Status::OK();
}

/// Honors --metrics-json=FILE: dumps the grid's metrics registry as JSON after
/// the command ran. Every command that exercises the engines supports it.
/// Honors --<flag>-json=FILE: writes `content` to FILE. Shared by the metrics,
/// trace, and timeline dump flags so every binary spells them the same way.
Status MaybeDumpJson(const FlagSet& flags, const std::string& flag,
                     const std::string& what, const std::string& content,
                     std::ostream& out) {
  if (!flags.Has(flag)) return Status::OK();
  const std::string file = flags.GetString(flag, "");
  if (file.empty()) {
    return Status::InvalidArgument("--" + flag + " needs a file path");
  }
  std::ofstream f(file, std::ios::trunc);
  if (!f) return Status::Internal("cannot open " + file + " for writing");
  f << content;
  if (!f.good()) return Status::Internal("write to " + file + " failed");
  out << what << " written to " << file << "\n";
  return Status::OK();
}

Status MaybeDumpMetrics(const FlagSet& flags, const Grid& grid, std::ostream& out) {
  if (!flags.Has("metrics-json")) return Status::OK();
  return MaybeDumpJson(flags, "metrics-json", "metrics",
                       obs::ToJson(grid.metrics().Snapshot()), out);
}

Status CmdBuild(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "peers"));
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "out"));
  PGRID_ASSIGN_OR_RETURN(int64_t peers, flags.GetInt("peers", 0));
  if (peers < 2) return Status::InvalidArgument("--peers must be >= 2");
  ExchangeConfig config;
  PGRID_ASSIGN_OR_RETURN(int64_t maxl, flags.GetInt("maxl", 8));
  PGRID_ASSIGN_OR_RETURN(int64_t refmax, flags.GetInt("refmax", 4));
  PGRID_ASSIGN_OR_RETURN(int64_t recmax, flags.GetInt("recmax", 2));
  PGRID_ASSIGN_OR_RETURN(int64_t fanout, flags.GetInt("fanout", 2));
  PGRID_ASSIGN_OR_RETURN(double threshold, flags.GetDouble("threshold", 0.99));
  PGRID_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  PGRID_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 1));
  config.maxl = static_cast<size_t>(maxl);
  config.refmax = static_cast<size_t>(refmax);
  config.recmax = static_cast<size_t>(recmax);
  config.recursion_fanout = static_cast<size_t>(fanout);
  PGRID_RETURN_IF_ERROR(config.Validate());
  if (threshold <= 0 || threshold > 1) {
    return Status::InvalidArgument("--threshold must be in (0, 1]");
  }
  if (threads < 1) return Status::InvalidArgument("--threads must be >= 1");

  Grid grid(static_cast<size_t>(peers));
  Rng rng(static_cast<uint64_t>(seed));
  ExchangeEngine exchange(&grid, config, &rng);
  MeetingScheduler scheduler(grid.size());
  BuildReport report;
  if (threads <= 1) {
    // Sequential legacy path: bit-identical to every previous release.
    GridBuilder builder(&grid, &exchange, &scheduler, &rng);
    report = builder.BuildToFractionOfMaxDepth(threshold, 500'000'000);
  } else {
    // Deterministic parallel path: the same (seed, threads>=2) always yields the
    // same snapshot, regardless of the actual thread count.
    ParallelBuildOptions opts;
    opts.threads = static_cast<size_t>(threads);
    ParallelGridBuilder builder(&grid, &exchange, &scheduler, &rng, opts);
    report = builder.BuildToFractionOfMaxDepth(threshold, 500'000'000);
  }
  out << "built " << peers << " peers to avg depth " << std::fixed
      << std::setprecision(2) << report.avg_path_length << " ("
      << report.exchanges << " exchanges, " << std::setprecision(0)
      << report.seconds * 1e3 << " ms)\n";
  if (!report.converged) {
    return Status::DeadlineExceeded("construction did not reach the threshold");
  }
  const std::string file = flags.GetString("out", "");
  PGRID_RETURN_IF_ERROR(SaveGrid(grid, config, file));
  out << "snapshot written to " << file << "\n";
  return MaybeDumpMetrics(flags, grid, out);
}

Status CmdInfo(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "in"));
  PGRID_ASSIGN_OR_RETURN(LoadedGrid loaded, LoadGrid(flags.GetString("in", "")));
  const Grid& grid = *loaded.grid;
  out << "peers: " << grid.size() << "\n";
  out << "config: maxl=" << loaded.config.maxl << " refmax=" << loaded.config.refmax
      << " recmax=" << loaded.config.recmax
      << " fanout=" << loaded.config.recursion_fanout << "\n";
  out << "avg path length: " << std::fixed << std::setprecision(3)
      << grid.AveragePathLength() << "\n";
  out << "avg refs/peer: " << std::setprecision(1)
      << GridStats::AverageTotalRefs(grid)
      << "  (max " << GridStats::MaxTotalRefs(grid) << ")\n";
  out << "avg replication factor: " << std::setprecision(2)
      << GridStats::AverageReplicationFactor(grid) << "\n";
  out << "path length histogram:\n";
  for (const auto& [len, count] : GridStats::PathLengthHistogram(grid)) {
    out << "  depth " << std::setw(2) << len << ": " << count << "\n";
  }
  size_t entries = 0, foreign = 0, buddies = 0;
  for (const PeerState& p : grid) {
    entries += p.index().size();
    foreign += p.foreign_entries().size();
    buddies += p.buddies().size();
  }
  out << "index entries: " << entries << " (+" << foreign
      << " parked), buddy links: " << buddies << "\n";
  return Status::OK();
}

Status CmdVerify(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "in"));
  PGRID_ASSIGN_OR_RETURN(LoadedGrid loaded, LoadGrid(flags.GetString("in", "")));
  const check::InvariantReport report =
      check::GridInvariants::Check(*loaded.grid, loaded.config);
  if (!report.ok()) {
    out << report.ToString();
    return Status::FailedPrecondition(
        std::to_string(report.violations.size()) +
        std::string(report.truncated ? "+" : "") + " invariant violation(s)");
  }
  out << "OK: all invariants hold (" << report.peers_checked << " peers)\n";
  return Status::OK();
}

Result<KeyPath> KeyFromFlags(const FlagSet& flags) {
  if (flags.Has("text")) return EncodeText(flags.GetString("text", ""));
  if (flags.Has("key")) return KeyPath::FromString(flags.GetString("key", ""));
  return Status::InvalidArgument("pass --key=BITS or --text=STR");
}

Status CmdSearch(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "in"));
  PGRID_ASSIGN_OR_RETURN(LoadedGrid loaded, LoadGrid(flags.GetString("in", "")));
  PGRID_ASSIGN_OR_RETURN(KeyPath key, KeyFromFlags(flags));
  PGRID_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 1));
  PGRID_ASSIGN_OR_RETURN(double online_prob, flags.GetDouble("online", 1.0));
  Rng rng(static_cast<uint64_t>(seed));
  OnlineModel online(online_prob < 1.0 ? OnlineMode::kSnapshot
                                       : OnlineMode::kAlwaysOn,
                     loaded.grid->size(), online_prob, &rng);
  SearchEngine search(loaded.grid.get(), &online, &rng);
  PGRID_ASSIGN_OR_RETURN(int64_t start_flag, flags.GetInt("start", -1));
  PeerId start;
  if (start_flag >= 0) {
    if (static_cast<uint64_t>(start_flag) >= loaded.grid->size()) {
      return Status::InvalidArgument("--start out of range");
    }
    start = static_cast<PeerId>(start_flag);
  } else {
    auto s = search.RandomOnlinePeer();
    if (!s.has_value()) return Status::Unavailable("no online peer to start from");
    start = *s;
  }
  QueryResult r = search.Query(start, key);
  if (!r.found) {
    out << "NOT FOUND (from peer " << start << ", " << r.messages << " messages)\n";
    PGRID_RETURN_IF_ERROR(MaybeDumpMetrics(flags, *loaded.grid, out));
    return Status::NotFound("no responsible peer reachable");
  }
  const PeerState& responder = loaded.grid->peer(r.responder);
  out << "found: peer " << r.responder << " (path " << responder.path()
      << ") after " << r.messages << " messages, " << r.hops << " hops\n";
  std::vector<IndexEntry> matches;
  responder.index().ForEachOverlapping(
      key, [&matches](const IndexEntry& e) { matches.push_back(e); });
  out << matches.size() << " matching index entries\n";
  for (const IndexEntry& e : matches) {
    out << "  item " << e.item_id << " v" << e.version << " key " << e.key
        << " held by peer " << e.holder << "\n";
  }
  return MaybeDumpMetrics(flags, *loaded.grid, out);
}

Status CmdPrefix(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "in"));
  PGRID_ASSIGN_OR_RETURN(LoadedGrid loaded, LoadGrid(flags.GetString("in", "")));
  PGRID_ASSIGN_OR_RETURN(KeyPath prefix, KeyFromFlags(flags));
  PGRID_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 1));
  PGRID_ASSIGN_OR_RETURN(int64_t fanout, flags.GetInt("fanout", 8));
  if (fanout < 1) return Status::InvalidArgument("--fanout must be >= 1");
  Rng rng(static_cast<uint64_t>(seed));
  SearchEngine search(loaded.grid.get(), nullptr, &rng);
  PrefixSearchResult r = search.PrefixSearch(
      static_cast<PeerId>(rng.UniformIndex(loaded.grid->size())), prefix,
      static_cast<size_t>(fanout));
  out << r.entries.size() << " entries from " << r.responders.size()
      << " responders in " << r.messages << " messages\n";
  for (const IndexEntry& e : r.entries) {
    out << "  item " << e.item_id << " key " << e.key;
    auto text = DecodeText(e.key);
    if (text.ok()) out << " (\"" << *text << "\")";
    out << " held by peer " << e.holder << "\n";
  }
  return MaybeDumpMetrics(flags, *loaded.grid, out);
}

Status CmdRange(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "in"));
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "lo"));
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "hi"));
  PGRID_ASSIGN_OR_RETURN(LoadedGrid loaded, LoadGrid(flags.GetString("in", "")));
  PGRID_ASSIGN_OR_RETURN(KeyPath lo, KeyPath::FromString(flags.GetString("lo", "")));
  PGRID_ASSIGN_OR_RETURN(KeyPath hi, KeyPath::FromString(flags.GetString("hi", "")));
  PGRID_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 1));
  PGRID_ASSIGN_OR_RETURN(int64_t fanout, flags.GetInt("fanout", 8));
  if (fanout < 1) return Status::InvalidArgument("--fanout must be >= 1");
  Rng rng(static_cast<uint64_t>(seed));
  SearchEngine search(loaded.grid.get(), nullptr, &rng);
  PGRID_ASSIGN_OR_RETURN(
      PrefixSearchResult r,
      search.RangeSearch(static_cast<PeerId>(rng.UniformIndex(loaded.grid->size())),
                         lo, hi, static_cast<size_t>(fanout)));
  out << r.entries.size() << " entries from " << r.responders.size()
      << " responders in " << r.messages << " messages\n";
  for (const IndexEntry& e : r.entries) {
    out << "  item " << e.item_id << " key " << e.key << " held by peer "
        << e.holder << "\n";
  }
  return MaybeDumpMetrics(flags, *loaded.grid, out);
}

Status CmdBenchSearch(const FlagSet& flags, std::ostream& out) {
  PGRID_RETURN_IF_ERROR(RequireFlag(flags, "in"));
  PGRID_ASSIGN_OR_RETURN(LoadedGrid loaded, LoadGrid(flags.GetString("in", "")));
  PGRID_ASSIGN_OR_RETURN(int64_t queries, flags.GetInt("queries", 1000));
  PGRID_ASSIGN_OR_RETURN(double online_prob, flags.GetDouble("online", 0.3));
  PGRID_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 1));
  PGRID_ASSIGN_OR_RETURN(
      int64_t keylen, flags.GetInt("keylen", static_cast<int64_t>(loaded.config.maxl)));
  if (queries < 1 || keylen < 1) {
    return Status::InvalidArgument("--queries and --keylen must be >= 1");
  }
  Rng rng(static_cast<uint64_t>(seed));
  OnlineModel online(OnlineMode::kSnapshot, loaded.grid->size(), online_prob, &rng);
  SearchEngine search(loaded.grid.get(), &online, &rng);
  size_t ok = 0;
  uint64_t messages = 0;
  for (int64_t q = 0; q < queries; ++q) {
    if (q % 100 == 0) online.Resample(&rng);
    auto start = search.RandomOnlinePeer();
    if (!start.has_value()) continue;
    QueryResult r =
        search.Query(*start, KeyPath::Random(&rng, static_cast<size_t>(keylen)));
    messages += r.messages;
    if (r.found) ++ok;
  }
  out << std::fixed << std::setprecision(2) << "success rate: "
      << 100.0 * static_cast<double>(ok) / static_cast<double>(queries)
      << "%  avg messages: " << std::setprecision(3)
      << static_cast<double>(messages) / static_cast<double>(queries)
      << "  (online " << online_prob << ", " << queries << " queries)\n";
  return MaybeDumpMetrics(flags, *loaded.grid, out);
}

Status CmdFuzz(const FlagSet& flags, std::ostream& out) {
  sim::FuzzOptions options;
  PGRID_ASSIGN_OR_RETURN(int64_t seeds,
                         flags.GetInt("seeds", static_cast<int64_t>(options.num_seeds)));
  PGRID_ASSIGN_OR_RETURN(int64_t base_seed,
                         flags.GetInt("base-seed", static_cast<int64_t>(options.base_seed)));
  PGRID_ASSIGN_OR_RETURN(int64_t min_steps,
                         flags.GetInt("min-steps", static_cast<int64_t>(options.min_steps)));
  PGRID_ASSIGN_OR_RETURN(int64_t max_steps,
                         flags.GetInt("max-steps", static_cast<int64_t>(options.max_steps)));
  PGRID_ASSIGN_OR_RETURN(int64_t max_peers,
                         flags.GetInt("max-peers", static_cast<int64_t>(options.max_peers)));
  if (seeds < 1) return Status::InvalidArgument("--seeds must be >= 1");
  if (min_steps < 1 || max_steps < min_steps) {
    return Status::InvalidArgument("need 1 <= --min-steps <= --max-steps");
  }
  if (static_cast<size_t>(max_peers) < options.min_peers) {
    return Status::InvalidArgument("--max-peers must be >= " +
                                   std::to_string(options.min_peers));
  }
  options.num_seeds = static_cast<size_t>(seeds);
  options.base_seed = static_cast<uint64_t>(base_seed);
  options.min_steps = static_cast<size_t>(min_steps);
  options.max_steps = static_cast<size_t>(max_steps);
  options.max_peers = static_cast<size_t>(max_peers);
  // Each corpus flag names one corpus, so two of them contradict each other.
  const std::pair<const char*, sim::FuzzCorpus> kCorpusFlags[] = {
      {"heal-tail", sim::FuzzCorpus::kHealTail},
      {"crash-sweep", sim::FuzzCorpus::kCrash},
      {"macro-sweep", sim::FuzzCorpus::kMacro}};
  std::string corpus_flag;
  for (const auto& [flag, corpus] : kCorpusFlags) {
    if (!flags.Has(flag)) continue;
    if (!corpus_flag.empty()) {
      return Status::InvalidArgument(corpus_flag + " and --" + flag +
                                     " select different corpora; pass one");
    }
    corpus_flag = "--" + std::string(flag);
    options.corpus = corpus;
  }
  options.vary_builder_threads = flags.Has("thread-sweep");
  options.stop_on_failure = !flags.Has("keep-going");

  const sim::FuzzOutcome outcome = sim::ScenarioFuzzer::Fuzz(options);
  out << outcome.seeds_run << " seed(s) run, " << outcome.failures
      << " failure(s)";
  if (options.vary_builder_threads) {
    out << " (" << outcome.digest_mismatches << " thread-sweep digest"
        << " mismatch(es))";
  }
  out << "\n";
  if (outcome.failures == 0) return Status::OK();

  out << "first failing seed: " << outcome.failing_seed << "\n"
      << outcome.failure.report.ToString();
  if (flags.Has("out")) {
    const std::string file = flags.GetString("out", "");
    if (file.empty()) return Status::InvalidArgument("--out needs a file path");
    PGRID_RETURN_IF_ERROR(sim::SaveScenario(outcome.minimal, file));
    out << "minimal repro (" << outcome.minimal.steps.size()
        << " step(s)) written to " << file << " -- replay with `pgrid replay "
        << file << "`\n";
  } else {
    out << "minimal repro (" << outcome.minimal.steps.size()
        << " step(s)), pass --out=FILE to save it:\n"
        << sim::SerializeScenario(outcome.minimal);
  }
  if (flags.Has("timeline-json")) {
    // Replay the minimal repro with a per-step metric timeline attached: the
    // series show how the counters evolved on the way into the violation.
    sim::ScenarioRunner runner(outcome.minimal);
    obs::TimelineRecorder timeline;
    runner.SetTimeline(&timeline);
    (void)runner.Run();
    PGRID_RETURN_IF_ERROR(MaybeDumpJson(flags, "timeline-json", "repro timeline",
                                        timeline.ToJson(), out));
  }
  return Status::FailedPrecondition("fuzzing found invariant violations");
}

Status CmdReplay(const FlagSet& flags, std::ostream& out) {
  std::string file = flags.GetString("in", "");
  if (file.empty() && !flags.positional().empty()) file = flags.positional()[0];
  if (file.empty()) {
    return Status::InvalidArgument("pass a scenario file (positional or --in=FILE)");
  }
  PGRID_ASSIGN_OR_RETURN(sim::Scenario scenario, sim::LoadScenario(file));
  sim::ScenarioRunner runner(scenario);
  obs::TimelineRecorder timeline;
  if (flags.Has("timeline-json")) runner.SetTimeline(&timeline);
  const sim::ScenarioResult result = runner.Run();
  out << "replayed " << result.steps_executed << "/" << scenario.steps.size()
      << " step(s), seed " << scenario.config.seed << ", digest "
      << result.digest << "\n";
  if (result.probes > 0) {
    out << "probes: " << result.probes_found << "/" << result.probes
        << " found\n";
  }
  if (result.failed) {
    out << "FAILED at step " << result.failed_step << ":\n"
        << result.report.ToString();
    return Status::FailedPrecondition("invariant violations during replay");
  }
  out << "OK: all barriers passed\n";
  PGRID_RETURN_IF_ERROR(MaybeDumpJson(flags, "timeline-json", "timeline",
                                      timeline.ToJson(), out));
  return MaybeDumpMetrics(flags, runner.grid(), out);
}

Status CmdTrace(const FlagSet& flags, std::ostream& out) {
  PGRID_ASSIGN_OR_RETURN(int64_t peers, flags.GetInt("peers", 8));
  PGRID_ASSIGN_OR_RETURN(int64_t maxl, flags.GetInt("maxl", 4));
  PGRID_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 7));
  PGRID_ASSIGN_OR_RETURN(int64_t meetings, flags.GetInt("meetings", peers * 120));
  if (peers < 2) return Status::InvalidArgument("--peers must be >= 2");
  if (maxl < 1) return Status::InvalidArgument("--maxl must be >= 1");

  // An in-process cluster of networked nodes sharing one trace recorder (one
  // process = one clock epoch = directly mergeable span ids).
  net::NodeConfig config;
  config.maxl = static_cast<size_t>(maxl);
  net::InProcTransport transport;
  std::vector<std::unique_ptr<net::PGridNode>> nodes;
  for (int64_t i = 0; i < peers; ++i) {
    nodes.push_back(std::make_unique<net::PGridNode>(
        "node:" + std::to_string(i), &transport, config,
        static_cast<uint64_t>(seed) * 1000 + static_cast<uint64_t>(i)));
    PGRID_RETURN_IF_ERROR(nodes.back()->Start());
  }
  // Bootstrap untraced so the trace holds only the operations under study.
  Rng rng(static_cast<uint64_t>(seed));
  for (int64_t m = 0; m < meetings; ++m) {
    const size_t a = rng.UniformIndex(nodes.size());
    const size_t b = rng.UniformIndex(nodes.size());
    if (a == b) continue;
    (void)nodes[a]->MeetWith(nodes[b]->address());
  }
  double avg_depth = 0.0;
  for (const auto& n : nodes) {
    avg_depth += static_cast<double>(n->path().length());
  }
  avg_depth /= static_cast<double>(nodes.size());
  out << "cluster: " << peers << " peers, avg depth " << std::fixed
      << std::setprecision(2) << avg_depth << " after " << meetings
      << " bootstrap meetings\n";

  obs::TraceRecorder recorder;
  for (auto& n : nodes) n->SetTraceRecorder(&recorder);

  KeyPath key = [&]() -> KeyPath {
    if (flags.Has("key")) {
      auto k = KeyPath::FromString(flags.GetString("key", ""));
      if (k.ok()) return *k;
    }
    return KeyPath::Random(&rng, 2 * static_cast<size_t>(maxl));
  }();
  DataItem item;
  item.id = 1;
  item.key = key;
  item.payload = "traced-item";
  item.version = 1;
  const Status publish = nodes.front()->Publish(item);
  if (!publish.ok()) out << "publish: " << publish.ToString() << "\n";
  const Result<std::vector<net::WireEntry>> search = nodes.back()->Search(key);
  if (!search.ok()) {
    out << "search: " << search.status().ToString() << "\n";
  } else {
    out << "search for " << key << " from " << nodes.back()->address()
        << ": " << search->size() << " matching entr"
        << (search->size() == 1 ? "y" : "ies") << "\n";
  }

  const std::vector<obs::TraceEvent> events = recorder.events();
  const std::vector<uint64_t> ids = obs::TraceIds(events);
  for (uint64_t id : ids) {
    const std::vector<obs::SpanNode> roots = obs::BuildSpanTree(events, id);
    out << "\ntrace " << id << ":\n" << obs::RenderSpanTree(roots);
  }
  if (!ids.empty()) {
    // The last trace is the search: its longest hop chain is the query's
    // critical path across the cluster.
    const std::vector<obs::SpanNode> roots = obs::BuildSpanTree(events, ids.back());
    out << "\ncritical path:\n"
        << obs::RenderCriticalPath(obs::CriticalPath(roots));
  }
  if (recorder.dropped() > 0) {
    out << "(" << recorder.dropped() << " events dropped at capacity)\n";
  }
  return MaybeDumpJson(flags, "trace-json", "trace",
                       obs::TraceToChromeJson(events), out);
}

}  // namespace

std::string UsageText() {
  return "pgrid -- P-Grid command line tool\n"
         "\n"
         "commands:\n"
         "  build         construct a grid and save a snapshot\n"
         "  info          print structure statistics of a snapshot\n"
         "  verify        check all structural invariants of a snapshot\n"
         "  search        route one query through a snapshot\n"
         "  prefix        interval/prefix search (supports --text via text keys)\n"
         "  range         range search between two equal-length keys\n"
         "  bench-search  measure search reliability under churn\n"
         "  fuzz          run the seeded scenario fuzzer; shrink any failure\n"
         "  replay        re-execute a saved scenario file and check invariants\n"
         "  trace         run a traced publish+search on an in-process cluster\n"
         "                and print the distributed span tree + critical path\n"
         "\n"
         "every command that exercises the engines accepts --metrics-json=FILE to\n"
         "dump the run's metrics registry as JSON; `trace` accepts\n"
         "--trace-json=FILE (chrome://tracing format) and `replay`\n"
         "--timeline-json=FILE (per-step metric series, docs/observability.md).\n"
         "\n"
         "run `pgrid <command>` with no flags to see its usage.\n";
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << UsageText();
    return args.empty() ? 1 : 0;
  }
  using Command = Status (*)(const FlagSet&, std::ostream&);
  static const std::map<std::string, Command> kCommands = {
      {"build", CmdBuild},   {"info", CmdInfo},     {"verify", CmdVerify},
      {"search", CmdSearch}, {"prefix", CmdPrefix}, {"range", CmdRange},
      {"fuzz", CmdFuzz},     {"replay", CmdReplay}, {"trace", CmdTrace},
      {"bench-search", CmdBenchSearch}};
  const std::string command = args[0];
  const auto it = kCommands.find(command);
  if (it == kCommands.end()) {
    err << "unknown command '" << command << "'\n\n" << UsageText();
    return 1;
  }
  FlagSet flags(std::vector<std::string>(args.begin() + 1, args.end()));
  // A misspelled flag fails before any work instead of falling back to its
  // default: every flag a command reads is named in its usage line.
  Status status = flags.CheckKnown(UsageFor(command));
  if (status.ok()) status = it->second(flags, out);
  if (!status.ok()) {
    err << "error: " << status.ToString() << "\n";
    if (status.IsInvalidArgument()) err << "usage: " << UsageFor(command) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace cli
}  // namespace pgrid
