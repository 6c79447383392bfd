#include "sim/scenario.h"

#include <stdlib.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/churn.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "core/insert.h"
#include "core/parallel_builder.h"
#include "core/search.h"
#include "core/update.h"
#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "repair/repair.h"
#include "sim/digest.h"
#include "sim/meeting_scheduler.h"
#include "sim/online_model.h"
#include "storage/data_item.h"
#include "storage/persist.h"
#include "util/rng.h"

namespace pgrid {
namespace sim {

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string_view StepKindName(StepKind k) {
  switch (k) {
    case StepKind::kExchange:
      return "exchange";
    case StepKind::kInsert:
      return "insert";
    case StepKind::kUpdate:
      return "update";
    case StepKind::kChurn:
      return "churn";
    case StepKind::kFault:
      return "fault";
    case StepKind::kBarrier:
      return "barrier";
    case StepKind::kCorrupt:
      return "corrupt";
    case StepKind::kRepair:
      return "repair";
    case StepKind::kKill:
      return "kill";
    case StepKind::kRestart:
      return "restart";
    case StepKind::kPartition:
      return "partition";
    case StepKind::kCrashWave:
      return "crashwave";
    case StepKind::kFlashCrowd:
      return "flashcrowd";
    case StepKind::kSlowNode:
      return "slownode";
    case StepKind::kMassJoin:
      return "massjoin";
  }
  return "unknown";
}

namespace {

bool StepKindFromName(std::string_view name, StepKind* out) {
  for (int i = 0; i < kNumStepKinds; ++i) {
    const StepKind k = static_cast<StepKind>(i);
    if (StepKindName(k) == name) {
      *out = k;
      return true;
    }
  }
  return false;
}

constexpr char kHeader[] = "pgrid-scenario v1";

}  // namespace

std::string SerializeScenario(const Scenario& scenario) {
  const ScenarioConfig& c = scenario.config;
  std::ostringstream out;
  out << kHeader << "\n";
  out << "seed " << c.seed << "\n";
  out << "num_peers " << c.num_peers << "\n";
  out << "maxl " << c.maxl << "\n";
  out << "refmax " << c.refmax << "\n";
  out << "recmax " << c.recmax << "\n";
  out << "recursion_fanout " << c.recursion_fanout << "\n";
  out << "manage_data " << (c.manage_data ? 1 : 0) << "\n";
  out << "prune_unreachable_refs " << (c.prune_unreachable_refs ? 1 : 0) << "\n";
  out << "recbreadth " << c.recbreadth << "\n";
  out << "repetition " << c.repetition << "\n";
  {
    // %.17g round-trips every double exactly.
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", c.online_prob);
    out << "online_prob " << buf << "\n";
  }
  out << "fault_seed " << c.fault_seed << "\n";
  // Emitted only when set: pre-existing repro files neither carry nor expect
  // the key, and this keeps their serialization byte-identical.
  if (c.builder_threads != 0) {
    out << "builder_threads " << c.builder_threads << "\n";
  }
  for (const ScenarioStep& s : scenario.steps) {
    out << "step " << StepKindName(s.kind) << " " << s.a << " " << s.b << " "
        << s.c << " " << s.d << "\n";
  }
  out << "end\n";
  return out.str();
}

Result<Scenario> ParseScenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  auto fail = [&lineno](const std::string& what) {
    return Status::InvalidArgument("scenario line " + std::to_string(lineno) +
                                   ": " + what);
  };

  if (!std::getline(in, line)) return Status::InvalidArgument("empty scenario");
  ++lineno;
  if (line != kHeader) return fail("expected header '" + std::string(kHeader) + "'");

  Scenario scenario;
  bool saw_end = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    ScenarioConfig& c = scenario.config;
    if (key == "step") {
      std::string name;
      ScenarioStep step;
      fields >> name >> step.a >> step.b >> step.c >> step.d;
      if (fields.fail()) return fail("malformed step");
      if (!StepKindFromName(name, &step.kind)) {
        return fail("unknown step kind '" + name + "'");
      }
      scenario.steps.push_back(step);
      continue;
    }
    uint64_t u = 0;
    double d = 0.0;
    if (key == "online_prob") {
      fields >> d;
    } else {
      fields >> u;
    }
    if (fields.fail()) return fail("malformed value for '" + key + "'");
    if (key == "seed") {
      c.seed = u;
    } else if (key == "num_peers") {
      c.num_peers = u;
    } else if (key == "maxl") {
      c.maxl = u;
    } else if (key == "refmax") {
      c.refmax = u;
    } else if (key == "recmax") {
      c.recmax = u;
    } else if (key == "recursion_fanout") {
      c.recursion_fanout = u;
    } else if (key == "manage_data") {
      c.manage_data = u != 0;
    } else if (key == "prune_unreachable_refs") {
      c.prune_unreachable_refs = u != 0;
    } else if (key == "recbreadth") {
      c.recbreadth = u;
    } else if (key == "repetition") {
      c.repetition = u;
    } else if (key == "online_prob") {
      c.online_prob = d;
    } else if (key == "fault_seed") {
      c.fault_seed = u;
    } else if (key == "builder_threads") {
      c.builder_threads = u;
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!saw_end) return Status::InvalidArgument("scenario missing 'end' line");
  if (scenario.config.num_peers < 2) {
    return Status::InvalidArgument("scenario needs num_peers >= 2");
  }
  if (scenario.config.maxl == 0 || scenario.config.refmax == 0 ||
      scenario.config.recbreadth == 0 || scenario.config.repetition == 0) {
    return Status::InvalidArgument("scenario has zero-valued algorithm parameter");
  }
  if (scenario.config.builder_threads > 64) {
    // The digest is invariant in the value anyway; a huge count only asks the
    // pool to spawn that many OS threads on replay.
    return Status::InvalidArgument("scenario builder_threads > 64");
  }
  return scenario;
}

Status SaveScenario(const Scenario& scenario, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out << SerializeScenario(scenario);
  out.close();
  if (!out) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

Result<Scenario> LoadScenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseScenario(buf.str());
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace {

std::string PeerAddress(PeerId p) { return "peer:" + std::to_string(p); }

}  // namespace

struct ScenarioRunner::Impl {
  explicit Impl(const Scenario& s)
      : scenario(s),
        grid(s.config.num_peers),
        engine_rng(s.config.seed),
        model_rng(DeriveStreamSeed(s.config.seed, 0x0e11)),
        online(OnlineMode::kSnapshot, s.config.num_peers, s.config.online_prob,
               &model_rng),
        scheduler(s.config.num_peers),
        inner_transport(),
        transport(&inner_transport, s.config.fault_seed),
        exchange_config{.maxl = s.config.maxl,
                        .recmax = s.config.recmax,
                        .refmax = s.config.refmax,
                        .recursion_fanout = s.config.recursion_fanout,
                        .manage_data = s.config.manage_data,
                        .prune_unreachable_refs = s.config.prune_unreachable_refs},
        update_config{.recbreadth = s.config.recbreadth,
                      .repetition = s.config.repetition},
        exchange(&grid, exchange_config, &engine_rng, &online),
        churn(&grid, &exchange, &scheduler, &online, &engine_rng),
        inserter(&grid, &online, &engine_rng),
        updater(&grid, &online, &engine_rng),
        searcher(&grid, &online, &engine_rng),
        repair(&grid, exchange_config, repair::RepairConfig{}, &searcher,
               &online, &engine_rng) {
    for (PeerId p = 0; p < grid.size(); ++p) ServePeer(p);
    outaged.assign(grid.size(), 0);
    repair.set_liveness([this](PeerId p) { return !churn.IsDead(p); });
    // A probe is delivered iff the target is alive, currently online, and the
    // fault layer lets the packet through -- so partitions and outages look
    // exactly like crashes to the failure detector.
    repair.set_probe_fn([this](PeerId from, PeerId to) {
      return !churn.IsDead(to) && online.IsOnline(to, &engine_rng) &&
             Reachable(from, to);
    });
    // The macro-fault hooks below are inert until a macro step arms them
    // (empty slow map, no demotions, shedding off, no partition), so every
    // pre-existing scenario replays to its historical digest.
    // Gray peers answer probes slowly; the detector demotes instead of
    // evicting them (repair/repair.h latency-aware suspicion).
    repair.set_latency_fn([this](PeerId, PeerId to) {
      auto it = slow_latency.find(to);
      return it == slow_latency.end() ? uint64_t{0} : it->second;
    });
    // Routing preference: references an observer has demoted as slow are tried
    // only after its fast ones.
    searcher.set_slow_fn([this](PeerId from, PeerId to) {
      return repair.IsDemoted(from, to);
    });
    // Per-peer overload shedding, armed only inside flash-crowd ticks: hops
    // beyond a server's per-tick serve budget are rejected (degraded), not
    // failed.
    searcher.set_shed_fn([this](PeerId server) {
      if (!shed_active) return false;
      return ++served_in_tick[server] > shed_budget;
    });
    // A graceful leaver cannot hand its entries to a peer it cannot reach.
    churn.set_heir_filter([this](PeerId leaver, PeerId heir) {
      return !partition_active || GroupOf(leaver) == GroupOf(heir);
    });
  }

  ~Impl() {
    persist.reset();  // release WAL handles before removing the directory
    if (!storage_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(storage_dir, ec);
    }
  }

  /// Registers a trivial responder so the fault transport can gate calls to the
  /// peer. The payload is irrelevant: only delivery vs failure matters.
  void ServePeer(PeerId p) {
    inner_transport.Serve(PeerAddress(p),
                          [](const std::string&, const std::string&) {
                            return std::string("ok");
                          });
  }

  /// A meeting (or operation entry) happens only if the initiator can reach the
  /// target through the fault layer: outages, partitions, and drop rules all
  /// suppress it. This is how transport faults shape the interleaving.
  bool Reachable(PeerId from, PeerId to) {
    return transport.Call(PeerAddress(to), PeerAddress(from), "meet").ok();
  }

  // ---- macro-fault machinery (docs/robustness.md) ----

  /// Partition group of a peer; -1 = ungrouped (no partition ever started, or
  /// the peer joined after the last one healed).
  int GroupOf(PeerId p) const {
    return p < pgroup.size() ? pgroup[p] : -1;
  }

  /// Runs `fn` with every live, non-outaged peer outside group `g` pinned
  /// offline. The sim engines (insert/update/search, exchange recursion) are
  /// online-gated rather than transport-gated, so this is what confines a data
  /// operation to the initiating side of an active partition. Pin() consumes
  /// no randomness and snapshot-mode IsOnline() draws none either, so when no
  /// partition is active this is a plain call to `fn`.
  template <typename Fn>
  void WithGroupIsolation(int g, Fn&& fn) {
    if (!partition_active) {
      fn();
      return;
    }
    std::vector<PeerId> repinned;
    for (PeerId p = 0; p < grid.size(); ++p) {
      if (GroupOf(p) == g) continue;
      // Dead and outaged peers are already pinned false by their owners; they
      // must stay that way after the restore below.
      if (churn.IsDead(p) || (p < outaged.size() && outaged[p] != 0)) continue;
      online.Pin(p, false);
      repinned.push_back(p);
    }
    fn();
    for (PeerId p : repinned) online.Pin(p, std::nullopt);
  }

  /// Installs the transport drop rules for the current pgroup assignment and
  /// returns the partition id (net/fault_transport.h PartitionGroups).
  uint64_t InstallPartitionRules() {
    std::vector<std::vector<std::string>> groups(
        static_cast<size_t>(partition_groups));
    for (PeerId p = 0; p < grid.size(); ++p) {
      const int g = GroupOf(p);
      if (g >= 0) groups[static_cast<size_t>(g)].push_back(PeerAddress(p));
    }
    return transport.PartitionGroups(groups, transport.virtual_now());
  }

  /// A kFault clear-rules (a % 7 == 3 or 6) wipes the partition's drop rules
  /// with everything else: deactivate the macro partition state to match. The
  /// abrupt heal skips reconciliation -- convergence is then the business of
  /// whatever repair steps and heal-tail barriers follow. pgroup and the
  /// quarantine records survive so post-heal checks still know the history.
  void EndPartitionAbruptly() {
    partition_active = false;
    partition_id = 0;
  }

  /// Membership grew by `grid.size() - before` peers: serve them on the
  /// transport, extend the outage mirror, and -- mid-partition -- assign the
  /// joiners groups and reinstall the rules so they cannot bridge the split.
  void OnJoin(size_t before) {
    for (PeerId p = before; p < grid.size(); ++p) ServePeer(p);
    outaged.resize(grid.size(), 0);
    if (pgroup.empty()) return;
    for (PeerId p = static_cast<PeerId>(pgroup.size()); p < grid.size(); ++p) {
      pgroup.push_back(partition_active
                           ? static_cast<int>((p + partition_rot) %
                                              static_cast<uint64_t>(partition_groups))
                           : -1);
    }
    if (partition_active) {
      transport.HealPartition(partition_id);
      partition_id = InstallPartitionRules();
    }
  }

  /// One availability tick: `probes * multiplier` client queries measuring
  /// what the grid serves right now -- success rate, a p99 hop-count proxy,
  /// and the shed rate. The queries are part of the step's deterministic
  /// execution (they draw from the engine stream and cost kQuery messages);
  /// only the AddPoint calls depend on the timeline, so digests stay
  /// timeline-independent. `hot_prefix` aims every query at a random
  /// extension of one key region (the flash-crowd shape); null queries the
  /// inserted corpus.
  void AvailabilityTick(uint64_t probes, const KeyPath* hot_prefix,
                        uint64_t multiplier) {
    served_in_tick.clear();
    const uint64_t count = probes * (multiplier == 0 ? 1 : multiplier);
    uint64_t issued = 0, found = 0, sheds = 0, messages = 0;
    std::vector<uint64_t> hops;
    for (uint64_t i = 0; i < count; ++i) {
      std::vector<PeerId> live = churn.LivePeers();
      if (live.empty()) break;
      const PeerId start = live[engine_rng.UniformIndex(live.size())];
      KeyPath key;
      if (hot_prefix != nullptr) {
        key = *hot_prefix;
        while (key.length() < scenario.config.maxl) key.PushBack(engine_rng.Bit());
      } else if (!inserted.empty()) {
        key = inserted[engine_rng.UniformIndex(inserted.size())].key;
      } else {
        key = KeyPath::FromUint64(engine_rng.UniformIndex(1ull << scenario.config.maxl),
                                  scenario.config.maxl);
      }
      QueryResult q;
      WithGroupIsolation(GroupOf(start), [&] { q = searcher.Query(start, key); });
      ++issued;
      if (q.found) {
        ++found;
        hops.push_back(q.hops);
      }
      sheds += q.sheds;
      messages += q.messages;
    }
    if (timeline != nullptr && issued > 0) {
      std::sort(hops.begin(), hops.end());
      double p99 = 0.0;
      if (!hops.empty()) {
        size_t idx = (hops.size() * 99) / 100;
        if (idx >= hops.size()) idx = hops.size() - 1;
        p99 = static_cast<double>(hops[idx]);
      }
      const double t = static_cast<double>(macro_tick);
      timeline->AddPoint("avail.success_rate", t,
                         static_cast<double>(found) / static_cast<double>(issued));
      timeline->AddPoint("avail.p99_hops", t, p99);
      timeline->AddPoint("avail.shed_rate", t,
                         messages > 0 ? static_cast<double>(sheds) /
                                            static_cast<double>(messages)
                                      : 0.0);
      timeline->AddPoint("avail.live_peers", t,
                         static_cast<double>(churn.live_count()));
    }
    ++macro_tick;
  }

  /// Meetings with per-meeting group isolation: the serial exchange path, also
  /// used by macro steps that interleave meetings with ticks.
  void RunGatedMeetings(uint64_t meetings) {
    for (uint64_t m = 0; m < meetings; ++m) {
      Meeting meeting = scheduler.Next(&engine_rng);
      if (churn.IsDead(meeting.a) || churn.IsDead(meeting.b)) continue;
      if (!Reachable(meeting.a, meeting.b)) continue;
      WithGroupIsolation(GroupOf(meeting.a),
                         [&] { exchange.Exchange(meeting.a, meeting.b); });
    }
  }

  void RunExchanges(uint64_t meetings) {
    if (scenario.config.builder_threads == 0 || partition_active) {
      // Legacy serial path: every per-meeting draw on the engine stream, which
      // is what all pre-existing scenario digests were recorded against. An
      // active macro partition also forces this path (for any thread count
      // alike, so thread-sweep digest invariance holds): each meeting runs
      // under group isolation, which pins per meeting and cannot be done from
      // the parallel wave machinery.
      RunGatedMeetings(meetings);
      return;
    }
    // Parallel path: gate meetings serially in the exact legacy draw order
    // (scheduler, liveness, fault transport -- all on the engine stream), then
    // hand the survivors to the wave machinery. The builder draws its slot
    // stream base from the engine stream at construction, after all gating
    // draws, so the batch and its seeds are pure functions of the step -- and
    // the wave result is thread-count invariant, so any builder_threads >= 1
    // yields the same digest.
    std::vector<Meeting> batch;
    batch.reserve(meetings);
    for (uint64_t m = 0; m < meetings; ++m) {
      Meeting meeting = scheduler.Next(&engine_rng);
      if (churn.IsDead(meeting.a) || churn.IsDead(meeting.b)) continue;
      if (!Reachable(meeting.a, meeting.b)) continue;
      batch.push_back(meeting);
    }
    ParallelBuildOptions options;
    options.threads = scenario.config.builder_threads;
    ParallelGridBuilder builder(&grid, &exchange, &scheduler, &engine_rng,
                                options);
    builder.RunMeetings(batch);
  }

  void RunInsert(const ScenarioStep& step) {
    std::vector<PeerId> live = churn.LivePeers();
    if (live.empty()) return;
    const PeerId holder = live[step.a % live.size()];
    DataItem item;
    item.id = next_item_id++;
    const size_t key_len = 1 + step.c % scenario.config.maxl;
    item.key = KeyPath::FromUint64(step.b, key_len);
    item.payload = std::string(step.d % 16, 'x');
    item.version = 1;
    if (!Reachable(holder, holder)) return;  // holder itself under outage
    WithGroupIsolation(GroupOf(holder), [&] {
      Result<InsertOutcome> r = inserter.Insert(item, holder, update_config);
      (void)r;  // FailedPrecondition (no replica reached) is a legal outcome
    });
    inserted.push_back(item);
    if (partition_active) {
      // A write during the split must stay on the writer's side until the
      // heal: quarantine it for the partition-consistency invariants.
      quarantined.push_back({item.id, holder, GroupOf(holder)});
    }
  }

  void RunUpdate(const ScenarioStep& step) {
    if (inserted.empty()) return;
    DataItem& item = inserted[step.a % inserted.size()];
    ++item.version;
    const UpdateStrategy strategy = static_cast<UpdateStrategy>(step.b % 3);
    int g = -1;
    if (partition_active) {
      // The updating client sits on one side of the split; its propagation
      // must not cross it. (The extra draw happens only mid-partition, so
      // partition-free scenarios keep their historical draw sequence.)
      std::vector<PeerId> live = churn.LivePeers();
      if (live.empty()) return;
      g = GroupOf(live[engine_rng.UniformIndex(live.size())]);
    }
    WithGroupIsolation(g, [&] {
      updater.Propagate(item.key, item.id, item.version, strategy, update_config);
    });
  }

  void RunChurn(const ScenarioStep& step) {
    // ChurnConfig speaks fractions of the live population; recover the exact
    // requested counts (the +0.5 defeats floor() landing one short under FP).
    const double live = static_cast<double>(churn.live_count());
    ChurnConfig config;
    config.crash_fraction =
        std::min(1.0, (static_cast<double>(step.a) + 0.5) / live);
    config.leave_fraction =
        std::min(1.0, (static_cast<double>(step.b) + 0.5) / live);
    config.join_fraction =
        std::min(1.0, (static_cast<double>(step.c) + 0.5) / live);
    config.meetings_per_round = step.d;
    config.join_online_prob = scenario.config.online_prob;
    if (partition_active) {
      // ChurnDriver's own meeting loop is partition-blind: run the membership
      // events through it but take the meetings back, gated per-group, so a
      // churn round cannot bridge the split.
      config.meetings_per_round = 0;
    }
    const size_t before = grid.size();
    churn.Round(config);
    OnJoin(before);
    if (partition_active) RunGatedMeetings(step.d);
  }

  void RunFault(const ScenarioStep& step) {
    const size_t n = grid.size();
    switch (step.a % 7) {
      case 0: {  // outage: unreachable at the transport AND offline to engines
        const PeerId p = static_cast<PeerId>(step.b % n);
        transport.InjectOutage(PeerAddress(p));
        if (p < outaged.size()) outaged[p] = 1;
        if (!churn.IsDead(p)) online.Pin(p, false);
        break;
      }
      case 1: {  // restore (dead peers stay pinned offline by the churn driver)
        const PeerId p = static_cast<PeerId>(step.b % n);
        transport.ClearOutage(PeerAddress(p));
        if (p < outaged.size()) outaged[p] = 0;
        if (!churn.IsDead(p)) online.Pin(p, std::nullopt);
        break;
      }
      case 2:  // drop a fraction of all meetings; b parts per 1024
        transport.DropWithProbability(
            "peer:*", static_cast<double>(step.b % 1024) / 1024.0);
        break;
      case 3:  // heal: remove all probabilistic rules and partitions
        transport.ClearRules();  // wipes macro partition rules too
        EndPartitionAbruptly();
        break;
      case 4: {  // partition peers below/above a pivot for c virtual-time units
        const PeerId pivot =
            static_cast<PeerId>(1 + step.b % (n > 1 ? n - 1 : 1));
        std::vector<std::string> lo, hi;
        for (PeerId p = 0; p < n; ++p) {
          (p < pivot ? lo : hi).push_back(PeerAddress(p));
        }
        const uint64_t now = transport.virtual_now();
        transport.PartitionGroups({lo, hi}, now, now + 1 + step.c % 4096);
        break;
      }
      case 5:  // let a partition window elapse
        transport.AdvanceTime(1 + step.b % 4096);
        break;
      case 6:  // full heal: every transport fault lifted, live peers unpinned
        transport.ClearRules();
        EndPartitionAbruptly();
        for (PeerId p = 0; p < n; ++p) {
          transport.ClearOutage(PeerAddress(p));
          if (p < outaged.size()) outaged[p] = 0;
          if (!churn.IsDead(p)) online.Pin(p, std::nullopt);
        }
        break;
    }
  }

  void RunRepair(const ScenarioStep& step) {
    // Cap the tick count: each tick probes every reference of every live peer,
    // so an adversarially huge `a` would stall the fuzzer, not find more bugs.
    const uint64_t ticks = std::min<uint64_t>(step.a, 64);
    // Reads first, ticks second: ReadRepair patches only the responders it
    // reached (and with overlapping keys those may span several leaves), so
    // the maintenance rounds afterwards are what carry the patched version to
    // the rest of each replica group.
    ReliableReadConfig read_config;
    read_config.quorum = 2;
    read_config.max_attempts = 8;
    for (uint64_t i = 0; i < step.b && !inserted.empty(); ++i) {
      const DataItem& item = inserted[engine_rng.UniformIndex(inserted.size())];
      if (partition_active) {
        // The reading client sits on one side; its quorum must not span the
        // split (the extra draw happens only mid-partition).
        std::vector<PeerId> live = churn.LivePeers();
        if (live.empty()) break;
        const int g = GroupOf(live[engine_rng.UniformIndex(live.size())]);
        WithGroupIsolation(g,
                           [&] { repair.ReadRepair(item.key, item.id, read_config); });
      } else {
        repair.ReadRepair(item.key, item.id, read_config);
      }
    }
    for (uint64_t t = 0; t < ticks; ++t) repair.Tick();
  }

  /// Lazily creates the durable-storage backend under a fresh temp directory.
  /// Scenarios without kill steps never touch the filesystem; the directory is
  /// removed in the destructor. SyncMode::kNone: a simulated crash wipes the
  /// in-memory PeerState, not the host, so durability against host crashes is
  /// not what the steps exercise (tests/wal_test.cc covers torn tails).
  void EnsureStorage() {
    if (persist != nullptr) return;
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "pgrid-scenario-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    PGRID_CHECK(mkdtemp(buf.data()) != nullptr);
    storage_dir.assign(buf.data());
    storage::StorageConfig config;
    config.dir = storage_dir;
    config.sync_mode = storage::SyncMode::kNone;
    persist = std::make_unique<storage::PersistenceManager>(
        config, scenario.config.maxl);
  }

  void RunKill(const ScenarioStep& step) {
    // Mirror the churn driver's floor: a grid below 3 live peers has no
    // meaningful repair story left to exercise.
    if (churn.live_count() <= 2) return;
    std::vector<PeerId> live = churn.LivePeers();
    const PeerId victim = live[step.a % live.size()];
    KillPeer(victim, /*wal_flavor=*/step.c % 2 == 1);
  }

  /// Durable crash of one live peer (the body of kKill, shared with the
  /// crash-wave step): persist, wipe the in-memory state, retire as a crash,
  /// remember the victim for kRestart.
  void KillPeer(PeerId victim, bool wal_flavor) {
    EnsureStorage();
    PeerState& peer = grid.peer(victim);
    if (wal_flavor) {
      // WAL-delta flavor: baseline an empty peer, then push the entire live
      // state through the log as delta records. Recovery replays every record
      // over the empty snapshot -- the deep exercise of the record codec.
      PGRID_CHECK(persist->Attach(PeerState(victim)).ok());
      PGRID_CHECK(persist->Commit(peer, storage::PeerDelta::All(peer)).ok());
    } else {
      // Snapshot flavor: the full state lands in the snapshot file, WAL empty.
      PGRID_CHECK(persist->Attach(peer).ok());
    }
    // Wipe the in-memory state -- this is a crash, not a graceful leave. The
    // path bits leave the grid's running sum and return at restart.
    grid.NotePathLoss(peer.depth());
    peer = PeerState(victim);
    churn.Depart(victim, /*graceful=*/false);
    killed.push_back(victim);
  }

  void RunRestart(const ScenarioStep& step) {
    if (killed.empty() || persist == nullptr) return;
    std::vector<PeerId> victims;
    if (step.b != 0) {
      victims = killed;  // restart-all: the crash-sweep heal tail uses this
      killed.clear();
    } else {
      const size_t idx = step.a % killed.size();
      victims.push_back(killed[idx]);
      killed.erase(killed.begin() + static_cast<ptrdiff_t>(idx));
    }
    // Optionally let virtual time elapse between crash and recovery so
    // partition windows interact with the downtime.
    if (step.d % 64 != 0) transport.AdvanceTime(step.d % 64);
    for (PeerId v : victims) {
      Result<PeerState> recovered = persist->Recover(v);
      PGRID_CHECK(recovered.ok());
      grid.peer(v) = std::move(*recovered);
      grid.NotePathGrowth(grid.peer(v).depth());
      persist->Detach(v);
      churn.Revive(v);
      // Delta anti-entropy instead of recruitment: the recovered index pulls
      // only what it missed while down (repair/repair.h RejoinSync).
      repair.RejoinSync(v);
    }
  }

  /// kPartition: start or heal the named multi-group split, then run
  /// availability ticks. Returns a non-ok report iff the post-heal
  /// reconciliation failed to converge within its round budget.
  check::InvariantReport RunPartition(const ScenarioStep& step) {
    check::InvariantReport report;
    const uint64_t ticks = step.b % 16;
    if (step.a == 0) {
      if (partition_active) {
        // Heal: lift the drop rules, then drive anti-entropy until the
        // replicas that diverged across the split agree again. Failing to
        // converge within the budget fails the scenario like a barrier would.
        transport.HealPartition(partition_id);
        EndPartitionAbruptly();
        const auto rec = repair.ReconcileUntilConverged(/*max_rounds=*/32);
        if (!rec.converged) {
          report.violations.push_back(check::Violation{
              check::Category::kHealDivergence, kInvalidPeer, 0,
              "partition heal: anti-entropy still diverged after 32 rounds"});
        }
      }
      for (uint64_t t = 0; t < ticks; ++t) AvailabilityTick(8, nullptr, 1);
      return report;
    }
    if (partition_active) {
      // Only one named partition at a time: a new split supersedes the old
      // one (abruptly -- reconciliation is the heal form's business).
      transport.HealPartition(partition_id);
    }
    partition_groups = static_cast<int>(2 + step.a % 3);
    partition_rot = step.c;
    partition_active = true;
    quarantined.clear();
    pgroup.assign(grid.size(), 0);
    for (PeerId p = 0; p < grid.size(); ++p) {
      pgroup[p] = static_cast<int>((p + partition_rot) %
                                   static_cast<uint64_t>(partition_groups));
    }
    partition_id = InstallPartitionRules();
    for (uint64_t t = 0; t < ticks; ++t) {
      RunGatedMeetings(grid.size());
      AvailabilityTick(8, nullptr, 1);
    }
    return report;
  }

  void RunCrashWave(const ScenarioStep& step) {
    const uint64_t frac = step.a % 256;
    const size_t plen = step.c % (scenario.config.maxl + 1);
    const KeyPath prefix = KeyPath::FromUint64(step.b, plen);
    // The correlated failure domain ("one rack"): live peers whose path starts
    // with the prefix. Peers too shallow to have the full prefix are outside.
    std::vector<PeerId> victims;
    for (PeerId p : churn.LivePeers()) {
      if (grid.peer(p).path().CommonPrefixLength(prefix) == plen) {
        victims.push_back(p);
      }
    }
    const size_t count = (victims.size() * frac + 255) / 256;  // ceil
    for (size_t i = 0; i < count && i < victims.size(); ++i) {
      if (churn.live_count() <= 2) break;  // same floor as kKill
      KillPeer(victims[i], /*wal_flavor=*/i % 2 == 1);
    }
    AvailabilityTick(8, nullptr, 1);
  }

  void RunFlashCrowd(const ScenarioStep& step) {
    const size_t plen = 1 + step.b % scenario.config.maxl;
    const KeyPath prefix = KeyPath::FromUint64(step.a, plen);
    const uint64_t multiplier = 2 + step.c % 7;
    const uint64_t ticks = 1 + step.d % 8;
    shed_active = true;
    for (uint64_t t = 0; t < ticks; ++t) {
      AvailabilityTick(8, &prefix, multiplier);
    }
    shed_active = false;
    served_in_tick.clear();
    // The "after" sample: crowd gone, budget lifted -- the recovery point the
    // graceful-degradation benches assert on.
    AvailabilityTick(8, nullptr, 1);
  }

  void RunSlowNode(const ScenarioStep& step) {
    const uint64_t frac = step.a % 256;
    if (frac == 0) {
      slow_latency.clear();
      return;
    }
    // 5 + b % 60 keeps every mark above the repair probe timeout of 4.
    const uint64_t latency = 5 + step.b % 60;
    std::vector<PeerId> live = churn.LivePeers();
    const size_t count = (live.size() * frac + 255) / 256;  // ceil
    for (size_t i = 0; i < count && !live.empty(); ++i) {
      slow_latency[engine_rng.TakeRandom(&live)] = latency;
    }
  }

  void RunMassJoin(const ScenarioStep& step) {
    const size_t joiners = 1 + step.a % 32;
    const size_t before = grid.size();
    churn.Join(joiners, scenario.config.online_prob);
    OnJoin(before);
    RunGatedMeetings(step.b % 256);
    AvailabilityTick(8, nullptr, 1);
  }

  void RunProbes(uint64_t count, ScenarioResult* result) {
    for (uint64_t i = 0; i < count; ++i) {
      if (inserted.empty()) return;
      const DataItem& item =
          inserted[engine_rng.UniformIndex(inserted.size())];
      std::vector<PeerId> live = churn.LivePeers();
      if (live.empty()) return;
      const PeerId start = live[engine_rng.UniformIndex(live.size())];
      QueryResult q;
      WithGroupIsolation(GroupOf(start),
                         [&] { q = searcher.Query(start, item.key); });
      ++result->probes;
      if (q.found) ++result->probes_found;
    }
  }

  void RunCorrupt(const ScenarioStep& step) {
    const size_t n = grid.size();
    switch (step.a % 3) {
      case 0: {  // reference corruption: point a ref back at the peer itself
        for (size_t off = 0; off < n; ++off) {
          PeerState& p = grid.peer(static_cast<PeerId>((step.b + off) % n));
          if (p.depth() == 0) continue;
          const size_t level = 1 + step.c % p.depth();
          p.SetRefsAt(level, {p.id()});
          return;
        }
        break;
      }
      case 1: {  // placement corruption: entry outside the peer's interval
        for (size_t off = 0; off < n; ++off) {
          PeerState& p = grid.peer(static_cast<PeerId>((step.b + off) % n));
          if (p.depth() == 0) continue;
          IndexEntry e;
          e.holder = p.id();
          e.item_id = 0xC0FFEE + step.c;
          e.key = KeyPath::FromUint64(p.PathBit(1) == 0 ? 1 : 0, 1);
          e.version = 1;
          p.index().InsertOrRefresh(e);
          return;
        }
        break;
      }
      case 2: {  // replica desync: same (holder, item), different keys
        PeerState& first = grid.peer(static_cast<PeerId>(step.b % n));
        PeerState& second = grid.peer(static_cast<PeerId>((step.b + 1) % n));
        IndexEntry e;
        e.holder = first.id();
        e.item_id = 0xDE57 + step.c;
        e.key = first.path().length() > 0 ? first.path()
                                          : KeyPath::FromUint64(0, 1);
        e.version = 1;
        first.index().InsertOrRefresh(e);
        e.key = e.key.length() < scenario.config.maxl
                    ? e.key.Append(0)
                    : KeyPath::FromUint64(~step.c, e.key.length());
        second.index().InsertOrRefresh(e);
        break;
      }
    }
  }

  check::InvariantReport CheckInvariants(bool strict) {
    check::InvariantOptions options;
    // Without data management, path splits legitimately strand entries outside
    // the new interval; only managed grids promise placement.
    options.check_placement = scenario.config.manage_data;
    // Every barrier gets the dead mask: kill steps wipe dead peers' in-memory
    // state, and the structure check must not judge references against it.
    options.dead = &churn.dead_mask();
    if (strict) {
      // The repair-convergence target: among survivors, no dead references,
      // every level still routable, live buddies in agreement.
      options.check_repair_convergence = true;
      options.dead = &churn.dead_mask();
      options.repair_min_live_refs = 1;
    }
    // Partition consistency: while split, quarantined entries must not leak
    // across groups; once healed, strict barriers demand buddy agreement on
    // exactly the partition-era items.
    check::PartitionView pv;
    if (!pgroup.empty()) {
      pv.group = pgroup;
      pv.active = partition_active;
      pv.items = quarantined;
      options.partition = &pv;
    }
    return check::GridInvariants::Check(grid, exchange_config, options);
  }

  std::string ComputeDigest() {
    Digest d;
    d.U64(GridStateDigest(grid));
    const MessageStats stats = grid.stats();
    for (int t = 0; t < kNumMessageTypes; ++t) {
      d.U64(stats.count(static_cast<MessageType>(t)));
    }
    d.U64(transport.virtual_now());
    d.U64(churn.live_count());
    return d.Hex();
  }

  ScenarioResult Run() {
    ScenarioResult result;
    const std::vector<ScenarioStep>& steps = scenario.steps;
    for (size_t i = 0; i <= steps.size(); ++i) {
      const bool final_barrier = i == steps.size();
      // Each step draws from its own counter-derived stream: execution of step i
      // is independent of how many draws earlier steps consumed, which is what
      // lets the shrinker delete steps without perturbing the survivors.
      engine_rng.Reseed(DeriveStreamSeed(scenario.config.seed, i + 1));
      const ScenarioStep step =
          final_barrier ? ScenarioStep{StepKind::kBarrier, 4, 0, 0, 0} : steps[i];
      switch (step.kind) {
        case StepKind::kExchange:
          RunExchanges(step.a);
          break;
        case StepKind::kInsert:
          RunInsert(step);
          break;
        case StepKind::kUpdate:
          RunUpdate(step);
          break;
        case StepKind::kChurn:
          RunChurn(step);
          break;
        case StepKind::kFault:
          RunFault(step);
          break;
        case StepKind::kCorrupt:
          RunCorrupt(step);
          break;
        case StepKind::kRepair:
          RunRepair(step);
          break;
        case StepKind::kKill:
          RunKill(step);
          break;
        case StepKind::kRestart:
          RunRestart(step);
          break;
        case StepKind::kPartition: {
          check::InvariantReport report = RunPartition(step);
          if (!report.ok()) {
            // A heal that cannot reconcile is a failure of the self-healing
            // protocol: report it like a failing barrier, pinned to this step.
            result.failed = true;
            result.failed_step = i;
            result.report = std::move(report);
            result.steps_executed = i;
            result.digest = ComputeDigest();
            return result;
          }
          break;
        }
        case StepKind::kCrashWave:
          RunCrashWave(step);
          break;
        case StepKind::kFlashCrowd:
          RunFlashCrowd(step);
          break;
        case StepKind::kSlowNode:
          RunSlowNode(step);
          break;
        case StepKind::kMassJoin:
          RunMassJoin(step);
          break;
        case StepKind::kBarrier: {
          check::InvariantReport report = CheckInvariants(step.b != 0);
          if (!report.ok()) {
            result.failed = true;
            result.failed_step = i;
            result.report = std::move(report);
            result.steps_executed = final_barrier ? steps.size() : i;
            result.digest = ComputeDigest();
            return result;
          }
          RunProbes(step.a, &result);
          break;
        }
      }
      if (!final_barrier) ++result.steps_executed;
      if (timeline != nullptr) {
        // Read-only sampling: the engines never see the recorder, so the
        // execution (and digest) cannot depend on whether a timeline is on.
        timeline->AddPoint("sim.virtual_now", i,
                           static_cast<double>(transport.virtual_now()));
        timeline->AddPoint("sim.live_peers", i,
                           static_cast<double>(churn.live_count()));
        timeline->SampleRegistry(i, grid.metrics());
      }
    }
    result.digest = ComputeDigest();
    return result;
  }

  Scenario scenario;
  Grid grid;
  Rng engine_rng;
  Rng model_rng;
  OnlineModel online;
  MeetingScheduler scheduler;
  net::InProcTransport inner_transport;
  net::FaultInjectingTransport transport;
  ExchangeConfig exchange_config;
  UpdateConfig update_config;
  ExchangeEngine exchange;
  ChurnDriver churn;
  InsertEngine inserter;
  UpdateEngine updater;
  SearchEngine searcher;
  repair::RepairEngine repair;
  std::vector<DataItem> inserted;
  ItemId next_item_id = 1;
  obs::TimelineRecorder* timeline = nullptr;
  // Durable-storage backend for kill/restart steps; created on first kill.
  std::unique_ptr<storage::PersistenceManager> persist;
  std::string storage_dir;
  std::vector<PeerId> killed;  // crash order; restart selectors index into this

  // ---- macro-fault state (see the helpers above) ----
  std::vector<int> pgroup;      // partition group per peer; kept after the heal
  bool partition_active = false;
  int partition_groups = 0;
  uint64_t partition_rot = 0;   // group assignment offset (step.c)
  uint64_t partition_id = 0;    // transport registration (PartitionGroups)
  std::vector<check::PartitionView::Quarantined> quarantined;
  std::vector<uint8_t> outaged;  // kFault outage pins, mirrored for isolation
  std::unordered_map<PeerId, uint64_t> slow_latency;  // gray peers (kSlowNode)
  bool shed_active = false;      // flash-crowd serve budgets armed
  uint64_t shed_budget = 16;     // served hops per peer per availability tick
  std::unordered_map<PeerId, uint64_t> served_in_tick;
  uint64_t macro_tick = 0;       // x-axis of the avail.* timeline series
};

ScenarioRunner::ScenarioRunner(const Scenario& scenario)
    : impl_(std::make_unique<Impl>(scenario)) {}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::SetTimeline(obs::TimelineRecorder* timeline) {
  impl_->timeline = timeline;
}

ScenarioResult ScenarioRunner::Run() { return impl_->Run(); }

Grid& ScenarioRunner::grid() { return impl_->grid; }

const ExchangeConfig& ScenarioRunner::exchange_config() const {
  return impl_->exchange_config;
}

}  // namespace sim
}  // namespace pgrid
