// Active self-healing: failure detection, reference repair, replica anti-entropy.
//
// The construction algorithm leaves the grid fault-*tolerant* -- refmax-fold
// references and replicated leaves survive offline peers -- but under churn that
// redundancy only decays: crashed peers linger in reference sets, under-full
// levels wait for chance meetings to refill, and a replica that missed an update
// stays diverged forever. RepairEngine turns tolerance into recovery with three
// cooperating mechanisms, all deterministic under the simulation's seeded RNG
// streams so ScenarioRunner/ScenarioFuzzer can drive and shrink repair schedules:
//
//   1. Failure detection. Each Tick() probes every referenced peer once per
//      observer. Failed probes feed a per-observer SuspicionTable
//      (repair/health.h); crossing the threshold evicts the target from all of
//      the observer's reference levels. Hysteresis means one dropped packet
//      under FaultInjectingTransport never evicts a good reference.
//
//   2. Active reference repair. A level whose reference set sits below refmax
//      is refilled immediately: targeted lookups into the complementary subtree
//      (the level's prefix with the level bit flipped, padded with random bits)
//      recruit responsible peers -- and their live buddies -- as replacements,
//      instead of waiting for random exchanges to stumble on one.
//
//   3. Replica anti-entropy. Buddies compare order-independent FNV digests of
//      their leaf indexes (sim/digest.h); on divergence they merge entry sets
//      with max-version-wins semantics and pull each other's live references.
//      ReadRepair() additionally turns the paper's repeated-query majority read
//      into a convergence mechanism: replicas observed returning a minority
//      version are patched to the majority one on the spot.
//
// Message accounting (docs/observability.md): every delivered probe, sync
// session, and read-repair patch counts as one kControl message; reconciled
// entries count as kDataTransfer. Failed probes cost nothing on the simulated
// wire and are tracked only by the repair.probe_failures counter.

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/grid.h"
#include "core/search.h"
#include "repair/health.h"
#include "sim/online_model.h"
#include "util/rng.h"

namespace pgrid {
namespace repair {

/// Tuning knobs for one RepairEngine.
struct RepairConfig {
  /// Consecutive probe failures before a reference is evicted; 0 disables
  /// failure detection (probes still run, nothing is ever evicted).
  uint32_t suspicion_threshold = 2;

  /// Consecutive slow-but-delivered probes before a target is demoted from
  /// routing preference (gray-failure detection); 0 disables demotion. A
  /// demoted peer is never evicted for slowness -- it still holds valid data.
  uint32_t slow_threshold = 2;

  /// Master switches for the repair mechanisms (benches compare arms).
  bool recruit = true;
  bool anti_entropy = true;
};

/// What one maintenance round did (sums over all live peers).
struct RepairTick {
  uint64_t probes = 0;              ///< delivered probes (one kControl each)
  uint64_t probe_failures = 0;      ///< probes that did not reach their target
  uint64_t slow_probes = 0;         ///< delivered probes over the probe timeout
  uint64_t demotions = 0;           ///< targets newly demoted for slowness
  uint64_t evictions = 0;           ///< reference slots cleared by detection
  uint64_t recruited = 0;           ///< references adopted into under-full levels
  uint64_t sync_sessions = 0;       ///< buddy digest comparisons (one kControl each)
  uint64_t syncs_diverged = 0;      ///< sessions whose digests disagreed
  uint64_t entries_reconciled = 0;  ///< index entries merged during reconciliation
};

/// Outcome of one majority-read with repair.
struct ReadRepairOutcome {
  bool decided = false;          ///< a majority version emerged
  uint64_t version = 0;          ///< the majority version (valid iff decided)
  uint64_t repaired_entries = 0; ///< stale entries patched to the majority version
  size_t stale_replicas = 0;     ///< responders that had returned a minority version
};

/// Drives the self-healing protocol over a simulated Grid.
///
/// Determinism: Tick() walks peers in id order, probes reference targets in
/// first-seen order, and draws recruitment keys from the caller-owned Rng, so a
/// repair schedule is a pure function of (grid state, rng state, callbacks).
class RepairEngine {
 public:
  /// `online` may be null (everyone online). `search` issues the recruitment and
  /// read-repair queries so their kQuery messages count like any search's. All
  /// pointers must outlive the engine.
  RepairEngine(Grid* grid, const ExchangeConfig& exchange_config,
               const RepairConfig& config, SearchEngine* search,
               const OnlineModel* online, Rng* rng);

  /// Overrides which peers count as alive (default: everyone). Scenario and
  /// churn drivers pass their dead masks so crashed peers neither run
  /// maintenance nor get recruited.
  void set_liveness(std::function<bool(PeerId)> fn) { liveness_ = std::move(fn); }

  /// Overrides probe delivery (default: target is live and online). The
  /// scenario runner routes this through its fault-injecting transport so
  /// partitions and outages look exactly like crashes to the detector.
  void set_probe_fn(std::function<bool(PeerId from, PeerId to)> fn) {
    probe_fn_ = std::move(fn);
  }

  /// Overrides the latency a delivered probe observed (default: none -- all
  /// probes count as fast). The scenario runner reports inflated latencies for
  /// gray peers (the `slownode` step); a delivered probe whose latency exceeds
  /// the probe timeout of 4 units feeds the observer's consecutive-slow counter.
  void set_latency_fn(std::function<uint64_t(PeerId from, PeerId to)> fn) {
    latency_fn_ = std::move(fn);
  }

  /// True iff `observer` currently considers `target` gray (demoted from
  /// routing preference, see SearchEngine::set_slow_fn). Never true for
  /// observers that have not run a maintenance round yet.
  bool IsDemoted(PeerId observer, PeerId target) const {
    return observer < suspicion_.size() && suspicion_[observer].IsDemoted(target);
  }

  /// Runs one maintenance round: probe + evict, recruit, buddy anti-entropy.
  RepairTick Tick();

  /// Welcome-back path for a peer restarted from durable storage
  /// (storage/persist.h): instead of recruiting a blank replacement, run one
  /// targeted buddy anti-entropy pass for just this peer. Its recovered index
  /// pulls only the delta it missed while down (digest compare + max-version
  /// merge), and its recovered references are pooled with the buddies' -- the
  /// cheap alternative to fresh recruitment that bench_recovery quantifies.
  /// Reuses the Tick() sync machinery, so the message accounting (one kControl
  /// per session, kDataTransfer per reconciled entry) is unchanged.
  RepairTick RejoinSync(PeerId peer);

  /// Partition-heal reconciliation: runs maintenance rounds until one round
  /// observes no diverged buddy pair, or `max_rounds` is exhausted. After a
  /// partition heals, the replicas that diverged across the split disagree on
  /// exactly the entries written during the divergence; anti-entropy pulls
  /// them back together, and a clean round is the convergence signal the
  /// post-heal invariants (check::Category::kHealDivergence) key off.
  struct ReconcileOutcome {
    bool converged = false;          ///< a round saw zero diverged pairs
    size_t rounds = 0;               ///< maintenance rounds actually run
    uint64_t sync_sessions = 0;      ///< buddy sessions over all rounds
    uint64_t entries_reconciled = 0; ///< entries merged over all rounds
  };
  ReconcileOutcome ReconcileUntilConverged(size_t max_rounds);

  /// Repeated-query majority read of `item` under `key` that also repairs the
  /// minority: responders observed returning a stale version are patched to the
  /// majority version (one kControl message per patched replica).
  ReadRepairOutcome ReadRepair(const KeyPath& key, ItemId item,
                               const ReliableReadConfig& read_config);

  /// Maintenance rounds executed so far (the anti-entropy divergence-age clock).
  uint64_t rounds() const { return rounds_; }

 private:
  bool IsLive(PeerId p) const { return !liveness_ || liveness_(p); }
  bool Probe(PeerId from, PeerId to);
  /// True iff `target` may serve as a level-`level` reference of `a`.
  bool SatisfiesRefProperty(const PeerState& a, size_t level, PeerId target) const;
  void ProbeAndEvict(PeerState& peer, RepairTick* tick);
  void RecruitReferences(PeerState& peer, RepairTick* tick);
  void SyncBuddies(PeerState& peer, std::unordered_set<uint64_t>* synced,
                   RepairTick* tick);

  Grid* grid_;
  ExchangeConfig exchange_config_;
  RepairConfig config_;
  SearchEngine* search_;
  const OnlineModel* online_;
  Rng* rng_;
  std::function<bool(PeerId)> liveness_;
  std::function<bool(PeerId, PeerId)> probe_fn_;
  std::function<uint64_t(PeerId, PeerId)> latency_fn_;
  std::vector<SuspicionTable> suspicion_;  // indexed by observer PeerId
  // last_in_sync_[key(a,b)] = rounds() when the pair's digests last matched;
  // feeds the repair.divergence_age histogram.
  std::unordered_map<uint64_t, uint64_t> last_in_sync_;
  uint64_t rounds_ = 0;
};

}  // namespace repair
}  // namespace pgrid
