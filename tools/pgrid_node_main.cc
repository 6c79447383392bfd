// pgrid_node: a standalone P-Grid peer daemon.
//
// Runs one networked peer on a TCP address, optionally joining an existing grid
// through a seed peer, and gossips autonomously: at a fixed interval it meets a
// random known peer (references + buddies), which is all the construction
// algorithm needs to self-organize. Every interaction is the binary protocol of
// docs/PROTOCOL.md, so daemons interoperate across machines.
//
//   # first node
//   pgrid_node --listen=127.0.0.1:7000
//   # the rest join through any existing peer
//   pgrid_node --listen=127.0.0.1:7001 --join=127.0.0.1:7000
//
// Flags: --listen=HOST:PORT (required), --join=HOST:PORT, --maxl, --refmax,
//        --recmax, --fanout, --gossip_ms (default 500), --seed,
//        --rounds (exit after N gossip rounds; 0 = run until SIGINT/SIGTERM),
//        --publish=BITS:PAYLOAD (publish one item after joining; repeatable),
//        --maintain_every (default 10: run a self-healing maintenance round --
//        probe known peers, evict confirmed-dead references, recruit verified
//        replacements, docs/robustness.md -- every N gossip rounds; 0 = off),
//        --suspicion_threshold (default 3 consecutive failed calls to evict a
//        reference; 0 disables the failure detector),
//        --metrics-json=FILE (dump the metrics registry as JSON on shutdown;
//        while running, any peer can scrape the same registry with a kStats
//        request -- see docs/observability.md),
//        --trace-json=FILE (attach a trace recorder and dump the daemon's spans
//        in chrome://tracing format on shutdown; the daemon salts its span ids
//        with the seed so dumps from several daemons can be merged into one
//        distributed trace),
//        --storage-dir=DIR (durable persistence, docs/storage.md: key path,
//        references, buddies, index entries, and stored items survive a crash;
//        on restart the daemon recovers from snapshot + WAL and rejoins with
//        its state intact instead of starting blank),
//        --storage-sync=none|flush|fsync (WAL sync mode, default flush),
//        --compact-every=N (commits between WAL compactions, default 64).
//
// Retry flags (docs/robustness.md; a real network deserves retries, so the
// daemon defaults differ from the library's single-shot default):
//        --retry_attempts (default 3; 1 disables retries),
//        --retry_backoff_ms (default 50), --retry_multiplier (default 2),
//        --retry_max_backoff_ms (default 2000), --retry_jitter (default 0.2),
//        --retry_deadline_ms (default 0 = none).
//
// Status lines go to stdout once per ~10 gossip rounds.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "net/node.h"
#include "net/tcp_transport.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

// Names every flag the daemon reads; any other flag is rejected at start-up.
constexpr char kUsage[] =
    "pgrid_node --listen=HOST:PORT [--join=HOST:PORT] [--maxl=8] [--refmax=4]"
    " [--recmax=2] [--fanout=2] [--gossip_ms=500] [--rounds=0] [--seed=N]"
    " [--publish=BITS:PAYLOAD] [--maintain_every=10] [--suspicion_threshold=3]"
    " [--metrics-json=FILE] [--trace-json=FILE] [--storage-dir=DIR]"
    " [--storage-sync=none|flush|fsync] [--compact-every=64]"
    " [--retry_attempts=3] [--retry_backoff_ms=50] [--retry_multiplier=2]"
    " [--retry_max_backoff_ms=2000] [--retry_jitter=0.2] [--retry_deadline_ms=0]";

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw_args;
  for (int i = 1; i < argc; ++i) raw_args.emplace_back(argv[i]);
  pgrid::FlagSet flags(raw_args);

  const std::string listen = flags.GetString("listen", "");
  if (pgrid::Status s = flags.CheckKnown(kUsage); !s.ok() || listen.empty()) {
    if (!s.ok()) std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 1;
  }

  pgrid::net::NodeConfig config;
  auto maxl = flags.GetInt("maxl", 8);
  auto refmax = flags.GetInt("refmax", 4);
  auto recmax = flags.GetInt("recmax", 2);
  auto fanout = flags.GetInt("fanout", 2);
  auto gossip_ms = flags.GetInt("gossip_ms", 500);
  auto rounds_flag = flags.GetInt("rounds", 0);
  auto maintain_every = flags.GetInt("maintain_every", 10);
  auto suspicion_threshold = flags.GetInt("suspicion_threshold", 3);
  auto seed = flags.GetInt("seed", static_cast<int64_t>(
                                       std::hash<std::string>{}(listen)));
  auto retry_attempts = flags.GetInt("retry_attempts", 3);
  auto retry_backoff_ms = flags.GetInt("retry_backoff_ms", 50);
  auto retry_multiplier = flags.GetDouble("retry_multiplier", 2.0);
  auto retry_max_backoff_ms = flags.GetInt("retry_max_backoff_ms", 2000);
  auto retry_jitter = flags.GetDouble("retry_jitter", 0.2);
  auto retry_deadline_ms = flags.GetInt("retry_deadline_ms", 0);
  for (const auto* r : {&maxl, &refmax, &recmax, &fanout, &gossip_ms, &rounds_flag,
                        &maintain_every, &suspicion_threshold, &seed,
                        &retry_attempts, &retry_backoff_ms,
                        &retry_max_backoff_ms, &retry_deadline_ms}) {
    if (!r->ok()) {
      std::fprintf(stderr, "error: %s\n", r->status().ToString().c_str());
      return 1;
    }
  }
  for (const auto* r : {&retry_multiplier, &retry_jitter}) {
    if (!r->ok()) {
      std::fprintf(stderr, "error: %s\n", r->status().ToString().c_str());
      return 1;
    }
  }
  config.maxl = static_cast<size_t>(maxl.value());
  config.refmax = static_cast<size_t>(refmax.value());
  config.recmax = static_cast<size_t>(recmax.value());
  config.recursion_fanout = static_cast<size_t>(fanout.value());
  config.retry.max_attempts = static_cast<size_t>(retry_attempts.value());
  config.retry.initial_backoff_ms =
      static_cast<uint64_t>(retry_backoff_ms.value());
  config.retry.backoff_multiplier = retry_multiplier.value();
  config.retry.max_backoff_ms =
      static_cast<uint64_t>(retry_max_backoff_ms.value());
  config.retry.jitter = retry_jitter.value();
  config.retry.deadline_ms = static_cast<uint64_t>(retry_deadline_ms.value());
  config.suspicion_threshold =
      static_cast<size_t>(suspicion_threshold.value());
  config.storage.dir = flags.GetString("storage-dir", "");
  {
    auto compact_every = flags.GetInt("compact-every", 64);
    if (!compact_every.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   compact_every.status().ToString().c_str());
      return 1;
    }
    config.storage.compact_every =
        static_cast<uint64_t>(compact_every.value());
    const std::string sync = flags.GetString("storage-sync", "flush");
    if (sync == "none") {
      config.storage.sync_mode = pgrid::storage::SyncMode::kNone;
    } else if (sync == "flush") {
      config.storage.sync_mode = pgrid::storage::SyncMode::kFlush;
    } else if (sync == "fsync") {
      config.storage.sync_mode = pgrid::storage::SyncMode::kFsync;
    } else {
      std::fprintf(stderr, "error: bad --storage-sync '%s' (none|flush|fsync)\n",
                   sync.c_str());
      return 1;
    }
  }
  if (pgrid::Status s = config.Validate(); !s.ok()) {
    std::fprintf(stderr, "error: bad retry flags: %s\n", s.ToString().c_str());
    return 1;
  }

  // One registry shared by the transport and the node: a single kStats scrape
  // (or the shutdown dump below) covers both the protocol and the RPC layer.
  pgrid::obs::MetricsRegistry registry;
  pgrid::net::TcpTransport transport(&registry);
  pgrid::net::PGridNode node(listen, &transport, config,
                             static_cast<uint64_t>(seed.value()), &registry);
  // One recorder per process; the salt keeps span ids from colliding when
  // several daemons' dumps are merged into one span tree offline.
  pgrid::obs::TraceRecorder trace;
  if (flags.Has("trace-json")) {
    trace.set_id_salt(static_cast<uint64_t>(seed.value()) | 1);
    node.SetTraceRecorder(&trace);
  }
  if (pgrid::Status s = node.Start(); !s.ok()) {
    std::fprintf(stderr, "error: cannot serve %s: %s\n", listen.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::printf("pgrid_node serving on %s (maxl=%zu refmax=%zu)\n", listen.c_str(),
              config.maxl, config.refmax);
  if (node.recovered_from_disk()) {
    std::printf("recovered durable state from %s (path %s, %zu entries)\n",
                config.storage.dir.c_str(), node.path().ToString().c_str(),
                node.entries().size());
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  pgrid::Rng rng(static_cast<uint64_t>(seed.value()) + 1);
  std::vector<std::string> contacts;
  const std::string join = flags.GetString("join", "");
  if (!join.empty()) {
    contacts.push_back(join);
    if (pgrid::Status s = node.MeetWith(join); s.ok()) {
      std::printf("joined via %s\n", join.c_str());
    } else {
      std::fprintf(stderr, "warning: initial join with %s failed: %s\n",
                   join.c_str(), s.ToString().c_str());
    }
  }

  if (flags.Has("publish")) {
    const std::string spec = flags.GetString("publish", "");
    const size_t colon = spec.find(':');
    auto key = pgrid::KeyPath::FromString(
        colon == std::string::npos ? spec : spec.substr(0, colon));
    if (!key.ok()) {
      std::fprintf(stderr, "error: bad --publish key: %s\n",
                   key.status().ToString().c_str());
      return 1;
    }
    pgrid::DataItem item;
    item.id = rng.UniformInt(1, UINT64_MAX / 2);
    item.key = *key;
    item.payload = colon == std::string::npos ? "" : spec.substr(colon + 1);
    item.version = 1;
    if (pgrid::Status s = node.Publish(item); !s.ok()) {
      std::fprintf(stderr, "warning: publish failed (will rely on gossip): %s\n",
                   s.ToString().c_str());
    } else {
      std::printf("published item %llu under %s\n",
                  static_cast<unsigned long long>(item.id),
                  item.key.ToString().c_str());
    }
  }

  const int64_t max_rounds = rounds_flag.value();
  int64_t round = 0;
  while (!g_stop.load() && (max_rounds == 0 || round < max_rounds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(gossip_ms.value()));
    ++round;
    // Refresh the gossip pool from the routing state and meet someone.
    for (const std::string& peer : node.KnownPeers()) {
      if (std::find(contacts.begin(), contacts.end(), peer) == contacts.end()) {
        contacts.push_back(peer);
      }
    }
    if (!contacts.empty()) {
      const std::string& target = contacts[rng.UniformIndex(contacts.size())];
      PGRID_DLOG << "round " << round << ": gossip meet with " << target;
      (void)node.MeetWith(target);
    }
    if (maintain_every.value() > 0 && round % maintain_every.value() == 0) {
      const size_t recruited = node.MaintainReferences();
      PGRID_DLOG << "round " << round << ": maintenance recruited " << recruited
                 << " reference(s)";
    }
    if (round % 10 == 0) {
      pgrid::net::NodeStats stats = node.stats();
      std::printf("[round %lld] path=%s known_peers=%zu entries=%zu "
                  "exchanges=%llu/%llu queries_served=%llu\n",
                  static_cast<long long>(round), node.path().ToString().c_str(),
                  contacts.size(), node.entries().size(),
                  static_cast<unsigned long long>(stats.exchanges_initiated),
                  static_cast<unsigned long long>(stats.exchanges_served),
                  static_cast<unsigned long long>(stats.queries_served));
      std::fflush(stdout);
    }
  }

  std::printf("shutting down %s (final path %s)\n", listen.c_str(),
              node.path().ToString().c_str());
  node.Stop();
  const auto dump = [](const std::string& file, const char* what,
                       const std::string& content) {
    if (FILE* f = std::fopen(file.c_str(), "w")) {
      std::fwrite(content.data(), 1, content.size(), f);
      std::fclose(f);
      std::printf("%s written to %s\n", what, file.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", file.c_str());
    }
  };
  if (flags.Has("metrics-json")) {
    dump(flags.GetString("metrics-json", ""), "metrics",
         pgrid::obs::ToJson(registry.Snapshot()));
  }
  if (flags.Has("trace-json")) {
    dump(flags.GetString("trace-json", ""), "trace",
         pgrid::obs::TraceToChromeJson(trace.events()));
  }
  return 0;
}
