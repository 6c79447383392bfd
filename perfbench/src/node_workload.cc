// node_read and node_durable: a 32-node PGridNode community on one in-process
// bus, driven by one closed-loop client that searches published keys,
// republishes published items with a new version and triggers meetings.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/inproc_transport.h"
#include "net/node.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "timing_transport.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace pgrid;  // NOLINT: the benchmark calls across the whole library

namespace {

namespace fs = std::filesystem;

constexpr size_t kNodes = 32;
constexpr size_t kKeyBits = 16;
constexpr size_t kBootstrapMeetingsPerNode = 60;
/// Ops per window: the probe runs between windows, and ops_per_s is the
/// median over windows.
constexpr uint64_t kWindowOps = 500;
/// Laps of each set-up phase, with the probe between laps.
constexpr size_t kSetupLaps = 8;

// The community -- node seeds, bootstrap meetings, preloaded items -- is a
// fixture built from this constant; the run seed drives the measured op
// stream. With 32 nodes the shape of the grid varies a lot between seeds:
// across seeds 1-5 from 4 to 14 nodes shared a leaf with a replica, and since
// replica meetings re-adopt whole indexes, meeting p50 ranged from 0.3 to
// 4.6 ms.
constexpr uint64_t kCommunitySeed = 1;

// The measured publishes republish items with a higher version from the node
// that first published them, which updates the entries in place. Publishing
// new items instead would grow every index for as long as the run lasts, so
// the per-op cost would follow how many ops the host managed to run: a
// 10-second node_durable run that published new items added about 14,000 of
// them to its preload of 2,000, and its commits copy the whole state.
struct NodeShape {
  const char* name;
  size_t preload;        ///< items published in set-up
  double search_share;   ///< of measured ops
  double publish_share;  ///< of measured ops; meetings take the rest
  bool durable;
};

constexpr NodeShape kNodeRead{"node_read", 32000, 0.80, 0.15, false};
constexpr NodeShape kNodeDurable{"node_durable", 2000, 0.40, 0.50, true};

net::NodeConfig Config(const std::string& store_dir) {
  net::NodeConfig c;
  c.maxl = 5;
  c.refmax = 3;
  c.recmax = 2;
  c.recursion_fanout = 2;
  c.storage.dir = store_dir;  // empty = storage off
  c.storage.sync_mode = storage::SyncMode::kFlush;
  // No compaction: it rewrites the snapshot through create + rename, whose
  // latency on a journaling filesystem follows the host's disk, and the store
  // has to live in the build tree. With compaction every 64 commits, durable
  // publish p99 varied 12-104% (IQR/median) between runs on ext4.
  c.storage.compact_every = 0;
  return c;
}

std::string Address(size_t i) { return "node:" + std::to_string(i); }

struct Item {
  uint64_t id = 0;
  KeyPath key;
  size_t origin = 0;  ///< node that published it (the entries' holder)
  uint64_t version = 1;
};

/// A node community and the items published into it.
struct Community {
  Community(const std::string& store_dir, obs::TraceRecorder* recorder, bool traced)
      : config(Config(store_dir)) {
    if (traced) timing = std::make_unique<TimingTransport>(&bus, recorder);
  }

  net::RpcTransport* transport() {
    return timing != nullptr ? static_cast<net::RpcTransport*>(timing.get()) : &bus;
  }

  net::NodeConfig config;
  net::InProcTransport bus;
  std::unique_ptr<TimingTransport> timing;  ///< traced runs only
  obs::MetricsRegistry registry;            ///< shared by every node
  std::vector<std::unique_ptr<net::PGridNode>> nodes;
  std::vector<Item> published;
  double setup_s = 0.0;               ///< scaled CPU time of the whole set-up
  double build_meetings_per_s = 0.0;  ///< bootstrap meetings per scaled CPU-second
};

DataItem ToDataItem(const Item& item) {
  DataItem d;
  d.id = item.id;
  d.key = item.key;
  d.payload = "item-" + std::to_string(item.id);
  d.version = item.version;
  return d;
}

/// Removes a durable store directory; no-op for "" (storage off).
void RemoveStore(const std::string& dir) {
  std::error_code ec;
  if (!dir.empty()) fs::remove_all(dir, ec);
}

/// Starts the nodes on a fresh store, runs the bootstrap meetings and
/// publishes the preload, in kSetupLaps laps per phase so that a change of
/// host speed during set-up is scaled out. Failures go to `r`.
std::unique_ptr<Community> SetUp(const NodeShape& shape, const std::string& store_dir,
                                 obs::TraceRecorder* recorder, bool traced, SpeedProbe* probe,
                                 RunResult* r) {
  RemoveStore(store_dir);
  ScaledClock clock(probe);
  auto c = std::make_unique<Community>(store_dir, recorder, traced);
  for (size_t i = 0; i < kNodes; ++i) {
    c->nodes.push_back(std::make_unique<net::PGridNode>(
        Address(i), c->transport(), c->config, DeriveStreamSeed(kCommunitySeed, 100 + i),
        &c->registry));
    if (!c->nodes.back()->Start().ok()) r->Fail("start failed for " + Address(i));
  }
  clock.Lap();
  Rng rng(DeriveStreamSeed(kCommunitySeed, 1));
  const size_t bootstrap = kBootstrapMeetingsPerNode * kNodes;
  double bootstrap_s = 0.0;
  for (size_t lap = 0; lap < kSetupLaps; ++lap) {
    for (size_t m = lap * bootstrap / kSetupLaps; m < (lap + 1) * bootstrap / kSetupLaps; ++m) {
      const size_t a = rng.UniformIndex(kNodes);
      const size_t b = (a + 1 + rng.UniformIndex(kNodes - 1)) % kNodes;
      if (!c->nodes[a]->MeetWith(Address(b)).ok()) r->Fail("bootstrap meeting failed");
    }
    bootstrap_s += clock.Lap();
  }
  c->build_meetings_per_s = static_cast<double>(bootstrap) / bootstrap_s;
  for (size_t lap = 0; lap < kSetupLaps; ++lap) {
    for (size_t i = lap * shape.preload / kSetupLaps; i < (lap + 1) * shape.preload / kSetupLaps;
         ++i) {
      Item item{i + 1, KeyPath::Random(&rng, kKeyBits), rng.UniformIndex(kNodes)};
      if (!c->nodes[item.origin]->Publish(ToDataItem(item)).ok()) {
        r->Fail("preload publish failed");
        continue;
      }
      c->published.push_back(std::move(item));
    }
    clock.Lap();
  }
  c->setup_s = clock.total_s();
  return c;
}

/// Search, publish and meeting samples, then one per window: CPU time per op.
constexpr size_t kWindowKind = kNumOps;

/// What the measured loop did. Every time is CPU time of the client thread
/// (which with InProcTransport also runs every handler), scaled by the probe.
struct NodePhase {
  explicit NodePhase(SpeedProbe* probe) : samples(probe, kNumOps + 1) {}

  const Samples& latency_us(Op op) const { return samples.samples(static_cast<int>(op)); }

  uint64_t ops = 0;
  uint64_t failed = 0;
  ScaledSamples samples;
  double cpu_s = 0.0;   ///< scaled
  double wall_s = 0.0;  ///< the base of the traced run's time shares
  ProcIo io;
  uint64_t route_attempts_in_searches = 0;
  uint64_t adopted_in_meets = 0;
};

/// Runs the closed loop until `seconds` of wall time pass or `max_ops` are
/// done (0 = no cap). The op stream is a function of `seed` alone.
NodePhase Measure(const NodeShape& shape, Community* c, uint64_t seed, double seconds,
                  uint64_t max_ops, SpeedProbe* probe) {
  NodePhase p(probe);
  Rng rng(DeriveStreamSeed(seed, 2));
  obs::Counter* adopted = c->registry.GetCounter("node.entries_adopted");
  obs::Histogram* route =
      c->registry.GetHistogram("node.route_attempts", obs::CountBounds());
  TimingTransport* timing = c->timing.get();
  const ProcIo io_before = ReadProcIo();
  const uint64_t start = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  auto done = [&] { return max_ops == 0 ? NowNs() - start >= budget_ns : p.ops >= max_ops; };
  uint64_t window_cpu = ThreadCpuNs();
  while (!done()) {
    const double pick = rng.UniformDouble();
    const Op op = pick < shape.search_share                         ? Op::kSearch
                  : pick < shape.search_share + shape.publish_share ? Op::kPublish
                                                                    : Op::kMeet;
    const size_t ni = rng.UniformIndex(kNodes);
    net::PGridNode& node = *c->nodes[ni];
    bool ok = false;
    uint64_t t = 0;
    switch (op) {
      case Op::kSearch: {
        const Item& item = c->published[rng.UniformIndex(c->published.size())];
        const uint64_t route_before = route->sum();
        t = ThreadCpuNs();
        if (timing != nullptr) timing->BeginOp(op);
        Result<std::vector<net::WireEntry>> found = node.Search(item.key);
        if (timing != nullptr) timing->EndOp();
        t = ThreadCpuNs() - t;
        p.route_attempts_in_searches += route->sum() - route_before;
        ok = found.ok() && std::any_of(found->begin(), found->end(),
                                       [&](const net::WireEntry& e) {
                                         return e.item_id == item.id;
                                       });
        break;
      }
      case Op::kPublish: {
        Item& item = c->published[rng.UniformIndex(c->published.size())];
        ++item.version;
        const DataItem data = ToDataItem(item);
        t = ThreadCpuNs();
        if (timing != nullptr) timing->BeginOp(op);
        ok = c->nodes[item.origin]->Publish(data).ok();
        if (timing != nullptr) timing->EndOp();
        t = ThreadCpuNs() - t;
        break;
      }
      case Op::kMeet: {
        const uint64_t adopted_before = adopted->value();
        const std::string other = Address((ni + 1 + rng.UniformIndex(kNodes - 1)) % kNodes);
        t = ThreadCpuNs();
        if (timing != nullptr) timing->BeginOp(op);
        ok = node.MeetWith(other).ok();
        if (timing != nullptr) timing->EndOp();
        t = ThreadCpuNs() - t;
        p.adopted_in_meets += adopted->value() - adopted_before;
        break;
      }
    }
    p.samples.Add(static_cast<int>(op), static_cast<double>(t) / 1e3);
    ++p.ops;
    if (!ok) ++p.failed;
    const bool full = p.ops % kWindowOps == 0;
    if (full || done()) {
      const uint64_t window_ns = ThreadCpuNs() - window_cpu;
      if (full) {
        p.samples.Add(kWindowKind, static_cast<double>(window_ns) / 1e3 /
                                       static_cast<double>(kWindowOps));
      }
      p.cpu_s += static_cast<double>(window_ns) / 1e9 * p.samples.CloseWindow();
      window_cpu = ThreadCpuNs();
    }
  }
  p.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  p.io = IoDelta(io_before, ReadProcIo());
  return p;
}

using EntryKey = std::tuple<std::string, uint64_t, std::string, uint64_t>;

std::vector<EntryKey> SortedEntries(const net::PGridNode& node) {
  std::vector<EntryKey> out;
  for (const net::WireEntry& e : node.entries()) {
    out.emplace_back(e.holder, e.item_id, e.key.ToString(), e.version);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The durability gate: every node restarts from its store and must recover
/// the same path and entry set. Returns the mean time in Start().
double RestartCheck(Community* c, RunResult* r) {
  uint64_t start_ns = 0;
  size_t bad = 0;
  for (size_t i = 0; i < kNodes; ++i) {
    const std::string path = c->nodes[i]->path().ToString();
    const std::vector<EntryKey> entries = SortedEntries(*c->nodes[i]);
    c->nodes[i]->Stop();
    c->nodes[i].reset();
    c->nodes[i] = std::make_unique<net::PGridNode>(
        Address(i), c->transport(), c->config, DeriveStreamSeed(kCommunitySeed, 200 + i),
        &c->registry);
    const uint64_t t = NowNs();
    const Status started = c->nodes[i]->Start();
    start_ns += NowNs() - t;
    if (!started.ok() || !c->nodes[i]->recovered_from_disk() ||
        c->nodes[i]->path().ToString() != path || SortedEntries(*c->nodes[i]) != entries) {
      ++bad;
    }
  }
  r->attempted += kNodes;
  r->failed += bad;
  if (bad > 0) r->Fail(std::to_string(bad) + " nodes did not recover their state");
  return static_cast<double>(start_ns) / 1e6 / kNodes;
}

/// "<distinct paths>paths/<nodes with a same-path replica>replicated/<mean
/// entries per node>entries": the set-up's outcome, to explain an outlier.
std::string Structure(const Community& c) {
  std::map<std::string, int> paths;
  size_t entries = 0;
  for (const auto& node : c.nodes) {
    ++paths[node->path().ToString()];
    entries += node->entries().size();
  }
  int replicated = 0;
  for (const auto& [path, n] : paths) replicated += n > 1 ? n : 0;
  return std::to_string(paths.size()) + "paths/" + std::to_string(replicated) +
         "replicated/" + std::to_string(entries / kNodes) + "entries";
}

void CheckOps(const NodePhase& p, RunResult* r) {
  r->attempted += p.ops;
  r->failed += p.failed;
  if (p.failed > 0) r->Fail(std::to_string(p.failed) + " node ops failed or missed");
}

double OpsOf(const NodePhase& p, Op op) {
  return static_cast<double>(p.latency_us(op).size());
}

std::string StoreDir(const NodeShape& shape, const RunOptions& o) {
  return shape.durable ? o.work_dir + "/store-" + std::to_string(getpid()) : "";
}

/// Untraced: kSetups set-ups (setup_s and the bootstrap meeting rate are their
/// medians), then the measured loop on the last community.
RunResult RunPlain(const NodeShape& shape, const RunOptions& o) {
  RunResult r;
  SpeedProbe probe;
  const std::string store = StoreDir(shape, o);
  r.env.push_back(std::string("storage=") +
                  (shape.durable ? "kFlush,compact_every=0,fs=" + FsType(o.work_dir)
                                 : "off"));
  std::vector<double> setup_s, build_rate;
  std::unique_ptr<Community> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    c = SetUp(shape, store, nullptr, false, &probe, &r);
    setup_s.push_back(c->setup_s);
    build_rate.push_back(c->build_meetings_per_s);
  }
  r.env.push_back("community=" + Structure(*c));
  const double peak_rss_mb = PeakRssMb();  // before the loop's sample buffers
  const NodePhase p = Measure(shape, c.get(), o.seed, o.seconds, 0, &probe);
  CheckOps(p, &r);
  if (shape.durable) RestartCheck(c.get(), &r);
  c.reset();
  RemoveStore(store);
  r.env.push_back("ops=" + std::to_string(p.ops));
  r.env.push_back("loop_scaled_cpu_s=" + std::to_string(p.cpu_s));
  EndToEnd e;
  e.setup_s = Median(setup_s);
  e.peak_rss_mb = peak_rss_mb;
  e.build_meetings_per_s = Median(build_rate);
  e.ops_per_s = 1e6 / p.samples.samples(kWindowKind).Percentile(50);
  e.search_us = &p.latency_us(Op::kSearch);
  e.publish_us = &p.latency_us(Op::kPublish);
  e.meet_us = &p.latency_us(Op::kMeet);
  AddEndToEnd(e, &r);
  r.env.push_back("probe_scale=" + ProbeSummary(probe));
  return r;
}

/// Traced: an untraced pass over a third of the run, the same seeded stream
/// for the same number of ops through the timing decorator, and an untraced
/// repeat, so drift over the process's lifetime cancels out of the overhead.
/// node_durable replays the traced stream once more with storage off to
/// isolate the persist cost.
RunResult RunTraced(const NodeShape& shape, const RunOptions& o) {
  RunResult r;
  SpeedProbe probe;
  const std::string store = StoreDir(shape, o);
  std::unique_ptr<Community> c = SetUp(shape, store, nullptr, false, &probe, &r);
  const NodePhase plain = Measure(shape, c.get(), o.seed, o.seconds / 3, 0, &probe);
  CheckOps(plain, &r);
  c.reset();
  RemoveStore(store);

  obs::TraceRecorder recorder;
  c = SetUp(shape, store, &recorder, true, &probe, &r);
  const NodePhase p = Measure(shape, c.get(), o.seed, 0, plain.ops, &probe);
  CheckOps(p, &r);
  const TimingTransport& t = *c->timing;
  const double wall_ns = p.wall_s * 1e9;
  for (int i = 0; i < kNumOps; ++i) {
    const TimingTransport::OpStats& s = t.op(static_cast<Op>(i));
    const std::string name = OpName(static_cast<Op>(i));
    r.Add("net.calls_per_" + name,
          static_cast<double>(s.calls) / static_cast<double>(std::max<uint64_t>(s.ops, 1)),
          "count");
    r.Add("net.client_self_us." + name, s.self_us.Percentile(50), "us");
    r.Add("net.client_self_share." + name, 100.0 * static_cast<double>(s.self_ns) / wall_ns,
          "%");
  }
  uint64_t req = 0, resp = 0;
  for (int i = 0; i < kNumOps; ++i) {
    req += t.op(static_cast<Op>(i)).req_bytes;
    resp += t.op(static_cast<Op>(i)).resp_bytes;
  }
  r.Add("net.req_bytes_per_op", static_cast<double>(req) / static_cast<double>(p.ops), "B");
  r.Add("net.resp_bytes_per_op", static_cast<double>(resp) / static_cast<double>(p.ops), "B");
  r.Add("net.codec_ns_per_byte", t.CodecNsPerByte(), "ns/B");
  for (int h = 0; h < kNumHandlers; ++h) {
    const HandlerKind kind = static_cast<HandlerKind>(h);
    if (kind == HandlerKind::kOther) continue;
    const TimingTransport::HandlerStats& s = t.handler(kind);
    r.Add(std::string("net.serve_self_us.") + HandlerName(kind), s.self_us.Percentile(50), "us");
    r.Add(std::string("net.serve_self_share.") + HandlerName(kind),
          100.0 * static_cast<double>(s.self_ns) / wall_ns, "%");
  }
  r.Add("net.transport_self_share",
        100.0 * static_cast<double>(t.transport_self_ns()) / wall_ns, "%");
  r.Add("net.route_attempts_per_search",
        static_cast<double>(p.route_attempts_in_searches) / OpsOf(p, Op::kSearch), "count");
  double entries = 0;
  for (const auto& node : c->nodes) entries += static_cast<double>(node->entries().size());
  r.Add("net.entries_per_node", entries / kNodes, "count");
  const uint64_t shipped = t.op(Op::kMeet).entries_shipped;
  r.env.push_back("meet_entries_shipped=" + std::to_string(shipped) +
                  ",adopted=" + std::to_string(p.adopted_in_meets));
  r.Add("net.meet_entries_useful_ratio",
        shipped == 0 ? 0.0 : static_cast<double>(p.adopted_in_meets) / static_cast<double>(shipped),
        "ratio");
  r.Add("storage.write_bytes_per_op", static_cast<double>(p.io.wchar) / static_cast<double>(p.ops),
        "B");
  r.Add("storage.write_calls_per_op",
        static_cast<double>(p.io.syscw) / static_cast<double>(p.ops), "count");

  if (shape.durable) {
    r.Add("storage.recover_ms_per_node", RestartCheck(c.get(), &r), "ms");
    c.reset();
    RemoveStore(store);
    obs::TraceRecorder unused;
    std::unique_ptr<Community> off = SetUp(shape, "", &unused, true, &probe, &r);
    const NodePhase q = Measure(shape, off.get(), o.seed, 0, plain.ops, &probe);
    CheckOps(q, &r);
    for (Op op : {Op::kPublish, Op::kMeet}) {
      r.Add(std::string("storage.persist_us.") + OpName(op),
            p.latency_us(op).Percentile(50) - q.latency_us(op).Percentile(50), "us");
    }
  }
  c.reset();
  RemoveStore(store);
  c = SetUp(shape, store, nullptr, false, &probe, &r);
  const NodePhase after = Measure(shape, c.get(), o.seed, 0, plain.ops, &probe);
  CheckOps(after, &r);
  c.reset();
  RemoveStore(store);
  r.Add("obs.trace_overhead_pct", OverheadPct(p.cpu_s, plain.cpu_s, after.cpu_s), "%");
  const std::string trace =
      WriteTrace(o.work_dir, shape.name, obs::TraceToChromeJson(recorder.events()));
  r.env.push_back("ops=" + std::to_string(plain.ops));
  r.env.push_back("trace=" + trace);
  r.env.push_back("trace_spans_dropped=" + std::to_string(recorder.dropped()));
  CompletePerLayer(&r);
  return r;
}

RunResult RunNode(const NodeShape& shape, const RunOptions& o) {
  return o.trace ? RunTraced(shape, o) : RunPlain(shape, o);
}

}  // namespace

RunResult RunNodeRead(const RunOptions& options) { return RunNode(kNodeRead, options); }
RunResult RunNodeDurable(const RunOptions& options) { return RunNode(kNodeDurable, options); }

}  // namespace perfbench
