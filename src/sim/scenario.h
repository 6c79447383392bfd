// Scenarios: deterministic, replayable protocol interleavings.
//
// A Scenario is a *value* -- a configuration plus a flat list of steps
// (exchanges, inserts, updates, churn rounds, fault injections, invariant
// barriers). Every random decision is either materialized into the step's
// parameters at generation time or drawn from an Rng reseeded per step with
// DeriveStreamSeed(seed, step_index), so executing a scenario is a pure
// function of the value: same scenario in, same grid, same message counts, same
// digest out -- regardless of what ran before. That is what makes fuzzing
// findings reproducible (sim/fuzzer.h) and shrunk repros replayable
// (`pgrid replay <file>`).
//
// The text serialization is intentionally line-based and diff-friendly: a
// repro file checked into a bug report can be read, edited, and replayed by
// hand.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariants.h"
#include "obs/timeline.h"
#include "util/result.h"

namespace pgrid {

class Grid;
struct ExchangeConfig;

namespace sim {

/// One step of a scenario. The meaning of parameters a..d depends on the kind;
/// unused parameters must be zero (serialization round-trips them verbatim).
enum class StepKind : int {
  /// Run `a` pairwise meetings through the fault-gated transport.
  kExchange = 0,
  /// Insert item (id = runner-assigned counter) at holder selector `a`, with key
  /// bits `b` of length 1 + c % maxl, payload size d % 16.
  kInsert = 1,
  /// Re-propagate inserted item selector `a` with strategy `b` % 3, bumping its
  /// version by one.
  kUpdate = 2,
  /// Churn round: `a` crashes, `b` graceful leaves, `c` joins, then `d` meetings.
  kChurn = 3,
  /// Fault-injection control; `a` selects the operation (see scenario.cc):
  /// outage / restore / probabilistic drop / clear rules / partition / advance
  /// virtual clock.
  kFault = 4,
  /// Check all invariants now, and run `a` probe queries for inserted items.
  /// `b` != 0 additionally demands repair convergence: among live peers, no
  /// dead references, every level routable, live buddies in agreement.
  kBarrier = 5,
  /// Deliberately corrupt the grid (test-only; the generator never emits this):
  /// `a` % 3 picks self-reference / misplaced entry / replica key desync at peer
  /// selector `b`.
  kCorrupt = 6,
  /// Run `b` majority-read repairs of random inserted items, then `a`
  /// self-healing maintenance rounds (probe/evict + recruit + buddy
  /// anti-entropy, see repair/repair.h). Reads go first: a read repair is a
  /// point patch of the quorum it happened to reach, and the anti-entropy
  /// rounds that follow spread the patched version to the remaining replicas.
  kRepair = 7,
  /// Crash live peer selector `a` *with durable state*: its current state is
  /// persisted through the storage backend (storage/persist.h), then the
  /// in-memory PeerState is wiped and the peer retired as a crash. `c` % 2
  /// picks the persistence flavor: 0 = snapshot at attach (the recovered state
  /// comes from the snapshot file), 1 = attach empty + commit (the whole state
  /// travels through the WAL delta). Never kills below 3 live peers.
  kKill = 8,
  /// Restart a previously killed peer from its on-disk state: recover snapshot
  /// + WAL tail, reinstall the PeerState, revive it, and run one targeted
  /// buddy anti-entropy pass (RepairEngine::RejoinSync) so it pulls the delta
  /// it missed while down. `b` != 0 restarts *all* currently-killed peers (the
  /// heal-tail form); otherwise killed-list selector `a` picks one. `d` % 64
  /// advances the fault transport's virtual clock before the rejoin sync.
  kRestart = 9,

  // ---- macro faults (docs/robustness.md): correlated, grid-scale events. ----

  /// Start or heal a named multi-group partition. `a` == 0 heals the active
  /// partition (no-op when none is active): the transport rules are lifted and
  /// anti-entropy runs until replica agreement converges (bounded rounds;
  /// exhausting the budget fails the step like a barrier). `a` > 0 starts a
  /// split into 2 + a % 3 groups -- peer p joins group (p + c) % groups -- and
  /// while it is active, meetings, probes, and data operations stay inside
  /// their group and new inserts are quarantined for the partition-consistency
  /// invariants (check::PartitionView). Either form ends with `b` % 16
  /// availability ticks (sampled client queries feeding the avail.* series).
  kPartition = 10,
  /// Correlated crash wave *with durable state*: among live peers whose path
  /// starts with the c % (maxl+1)-bit prefix `b` (0 bits = everyone), crash
  /// ceil(count * (a % 256) / 256) peers the way kKill does -- state persisted,
  /// memory wiped, victim on the killed list so kRestart recovers it later.
  /// The persistence flavor alternates per victim. Ends with one availability
  /// tick measuring what the survivors still serve.
  kCrashWave = 11,
  /// Flash crowd on one key region: for 1 + d % 8 ticks, run an availability
  /// tick whose query load is multiplied by 2 + c % 7 and aimed at random
  /// extensions of the (1 + b % maxl)-bit prefix `a`, with per-peer overload
  /// shedding armed (a bounded per-tick serve budget; hops beyond it are shed
  /// -- degraded, not failed). One unshedded availability tick follows as the
  /// "after" sample.
  kFlashCrowd = 12,
  /// Gray failure: mark ceil(live * (a % 256) / 256) random live peers slow
  /// (their probes report latency 5 + b % 60, above the detector's timeout);
  /// `a` == 0 clears every slow mark instead. Latency-aware suspicion must
  /// demote slow peers from routing preference without evicting them as dead.
  kSlowNode = 13,
  /// Mass join: 1 + a % 32 fresh peers enter in one batch, then b % 256
  /// integration meetings run, then one availability tick.
  kMassJoin = 14,
};

inline constexpr int kNumStepKinds = 15;

/// Stable step name used in the text format ("exchange", "insert", ...).
std::string_view StepKindName(StepKind k);

struct ScenarioStep {
  StepKind kind = StepKind::kExchange;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;

  friend bool operator==(const ScenarioStep&, const ScenarioStep&) = default;
};

/// The community and algorithm parameters a scenario runs under.
struct ScenarioConfig {
  uint64_t seed = 1;          ///< master seed for all per-step streams
  size_t num_peers = 32;
  size_t maxl = 4;
  size_t refmax = 2;
  size_t recmax = 2;
  size_t recursion_fanout = 2;
  bool manage_data = true;
  bool prune_unreachable_refs = true;
  size_t recbreadth = 2;      ///< update propagation fan-out
  size_t repetition = 2;      ///< update propagation restarts
  double online_prob = 1.0;   ///< snapshot availability of the community
  uint64_t fault_seed = 0;    ///< seed of the fault transport's rule RNG

  /// Thread count for exchange steps. 0 (the default) is the legacy serial
  /// path: meetings run inline on the engine stream, preserving the digests of
  /// every pre-existing scenario and repro file. >= 1 routes each exchange
  /// step's surviving meetings through ParallelGridBuilder::RunMeetings; that
  /// switches the per-meeting randomness from the engine stream to the
  /// builder's slot streams (so 0 and 1 digest differently), but among values
  /// >= 1 the digest is invariant -- builder_threads 1, 2, and 8 are
  /// byte-identical, which the fuzzer's thread sweep asserts.
  size_t builder_threads = 0;

  friend bool operator==(const ScenarioConfig&, const ScenarioConfig&) = default;
};

struct Scenario {
  ScenarioConfig config;
  std::vector<ScenarioStep> steps;

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Renders the scenario in the line-based text format (ends with "end\n").
std::string SerializeScenario(const Scenario& scenario);

/// Parses the text format. InvalidArgument with a line-number message on any
/// malformed input; serialization and parsing round-trip exactly.
Result<Scenario> ParseScenario(const std::string& text);

/// File convenience wrappers around the text format.
Status SaveScenario(const Scenario& scenario, const std::string& path);
Result<Scenario> LoadScenario(const std::string& path);

/// Outcome of running one scenario to completion.
struct ScenarioResult {
  /// True iff some barrier (or the implicit final one) reported violations.
  bool failed = false;

  /// Step index whose barrier failed; steps.size() means the implicit final
  /// barrier. Valid iff failed.
  size_t failed_step = 0;

  /// The first failing invariant report (empty when !failed).
  check::InvariantReport report;

  /// Probe queries run at barriers and how many found a responsible peer.
  uint64_t probes = 0;
  uint64_t probes_found = 0;

  /// Steps actually executed (== steps.size() unless a barrier failed).
  size_t steps_executed = 0;

  /// FNV-1a digest of the final state (peer paths, refs, indexes, message
  /// counts, virtual clock). Two runs of the same scenario produce the same
  /// digest; this is the "byte-identical trace" the harness asserts on.
  std::string digest;
};

/// Executes scenarios. One runner executes one scenario; construct fresh per run.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const Scenario& scenario);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Attaches a per-step metric timeline (null = off, the default). After every
  /// executed step the runner samples the grid's metrics registry at t = step
  /// index and records the virtual clock and live-peer count as their own
  /// series. Sampling only reads, so the result -- digest included -- is
  /// byte-identical with and without a timeline (tests/scenario_test.cc pins
  /// this). Call before Run(); the recorder must outlive the runner.
  void SetTimeline(obs::TimelineRecorder* timeline);

  /// Runs every step, checking invariants at each kBarrier and once more after
  /// the last step. Stops at the first failing barrier.
  ScenarioResult Run();

  /// The grid after Run() (snapshot round-trip tests persist it).
  Grid& grid();
  const ExchangeConfig& exchange_config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sim
}  // namespace pgrid
