// A deployable P-Grid peer: the core algorithms running over a real transport.
//
// PGridNode holds one peer's protocol state and serves the message handlers of
// protocol.h. The state is the simulator's own PeerState (core/peer_state.h):
// path, per-level references, buddies, leaf index, parked foreign entries and
// the local DataStore. Peers in it are dense ids into the node's address book
// (net/address_book.h), with the node itself at id 0; ids turn back into
// transport addresses only at the wire and in the public accessors. The node
// also reuses the simulator's failure detector (repair::SuspicionTable), entry
// digest (sim::IndexDigest, kept as a running sum) and durable storage
// (storage::PersistenceManager).
// The evaluation of the paper runs on the in-memory simulator (src/core,
// src/sim); this class is the deployment skeleton a downstream system embeds --
// same algorithms, expressed as request/response interactions:
//
//  - MeetWith(peer) runs the Fig. 3 exchange: the initiator ships a state snapshot,
//    the responder merges and replies with directives (path bits to append,
//    reference-set replacements, referral addresses for recursive exchanges, index
//    entries to adopt). An epoch guard discards directives that raced with another
//    state change; the entries are kept either way. Replicas compare index digests
//    and ship their indexes only when the digests differ. Case-4 recursion is
//    driven from both sides: the responder exchanges with the initiator's
//    referrals and vice versa, bounded by recmax and the fan-out limit.
//  - Search(key) routes iteratively: each hop returns either the responsible peer's
//    matching entries or the candidate addresses at the divergence level; the
//    client backtracks depth-first across candidates (offline peers are skipped).
//  - Publish(item) routes to a responsible peer and installs the index entry there,
//    fanning out to that replica's buddies.
//
// Locking discipline: the single state mutex is NEVER held across a transport
// call. Handlers compute state changes and outgoing work under the lock, release
// it, then perform the calls.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/peer_state.h"
#include "core/search.h"
#include "key/key_path.h"
#include "net/address_book.h"
#include "net/protocol.h"
#include "net/retry.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repair/health.h"
#include "storage/data_store.h"
#include "storage/peer_delta.h"
#include "storage/storage_config.h"
#include "util/rng.h"

namespace pgrid {
namespace sim {
class Digest;
}  // namespace sim
namespace storage {
class PersistenceManager;
}  // namespace storage

namespace net {

/// Protocol parameters of a node (the paper's knobs).
struct NodeConfig {
  size_t maxl = 8;
  size_t refmax = 4;
  size_t recmax = 2;
  size_t recursion_fanout = 2;

  /// Consecutive outbound-call failures to one address before it is evicted
  /// from every reference level (failure detection with hysteresis, see
  /// docs/robustness.md). 0 disables eviction. The count is consecutive:
  /// any successful call to the address resets it, so a single dropped
  /// packet under a lossy transport never costs a good reference.
  size_t suspicion_threshold = 3;

  /// Wall-clock budget for one outbound call before it counts as *slow*
  /// (gray-failure detection, see docs/robustness.md). A call that succeeds
  /// but takes >= this many milliseconds feeds the failure detector like a
  /// failure -- a peer that chronically answers slower than the budget is as
  /// useless as a dead one -- and is counted on node.slow_calls. 0 (the
  /// default) disables the check: only hard failures raise suspicion.
  uint64_t probe_timeout_ms = 0;

  /// Eviction rate limiter: after one address is evicted, the next
  /// `eviction_cooldown` eviction *edges* (threshold crossings) are suppressed
  /// -- the suspect's count resets but it stays referenced. A slow network
  /// that pushes many peers over the threshold at once then sheds references
  /// one at a time instead of mass-evicting the healthy majority. 0 (the
  /// default) keeps the historical evict-on-every-crossing behaviour.
  size_t eviction_cooldown = 0;

  /// Retry policy for every outbound call (routing hops, exchange recursion,
  /// publish fan-out, commits, stats scrapes). The default (max_attempts = 1)
  /// keeps the historical single-shot behaviour.
  RetryConfig retry;

  /// Opt-in durable storage (storage/storage_config.h). With a non-empty dir
  /// the node persists its protocol state and address book (snapshot + WAL
  /// delta, see storage/persist.h) under dir/node-<address>/ after every
  /// state-changing operation, and Start() recovers from disk when a snapshot
  /// for this address exists -- the restart path docs/storage.md describes.
  /// Empty dir (the default) = off.
  storage::StorageConfig storage;

  Status Validate() const {
    if (maxl == 0) return Status::InvalidArgument("maxl must be >= 1");
    if (refmax == 0) return Status::InvalidArgument("refmax must be >= 1");
    return retry.Validate();
  }
};

/// One networked P-Grid peer.
class PGridNode {
 public:
  /// `transport` must outlive the node. The node does not serve until Start().
  /// `registry` is where the node's counters live; pass one shared with the
  /// transport to scrape both through a single kStats request, or null to let
  /// the node own a private registry.
  PGridNode(std::string address, RpcTransport* transport, const NodeConfig& config,
            uint64_t seed, obs::MetricsRegistry* registry = nullptr);
  ~PGridNode();

  PGridNode(const PGridNode&) = delete;
  PGridNode& operator=(const PGridNode&) = delete;

  /// Registers the message handler with the transport. With durable storage
  /// configured (NodeConfig::storage), first recovers the node's state from
  /// disk if a snapshot exists (snapshot + WAL tail, torn tail truncated) or
  /// baselines the storage with the current state otherwise; a recovery or
  /// baseline failure aborts the start.
  Status Start();

  /// True iff the last Start() installed state recovered from durable storage.
  bool recovered_from_disk() const { return recovered_; }

  /// Unregisters from the transport. Idempotent.
  void Stop();

  const std::string& address() const { return address_; }

  /// Snapshot of the current responsibility path.
  KeyPath path() const;

  /// Snapshot of the references at a (1-indexed) level; empty if out of range.
  std::vector<std::string> RefsAt(size_t level) const;

  /// Snapshot of known same-path replicas.
  std::vector<std::string> buddies() const;

  /// Snapshot of the leaf index, sorted by (holder address, item id).
  std::vector<WireEntry> entries() const;

  /// Entries parked because no responsible peer is known yet.
  std::vector<WireEntry> foreign_entries() const;

  /// All peer addresses this node currently knows (references at every level plus
  /// buddies, deduplicated). The gossip pool for autonomous meeting loops.
  std::vector<std::string> KnownPeers() const;

  /// The registry backing this node's counters (shared or owned, see ctor), e.g.
  /// "node.queries_served"; docs/observability.md lists the names.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Optional per-operation trace sink (null = tracing off). The recorder must
  /// outlive the node.
  ///
  /// With a recorder attached, client operations (Search, Publish, MeetWith,
  /// MaintainReferences) open root spans and every outbound RPC they make is
  /// wrapped in a kTraced envelope carrying the span's TraceContext; receiving
  /// nodes open child spans under the caller's span, so a distributed operation
  /// reconstructs as one span tree (see docs/observability.md). Nodes without a
  /// recorder still forward an incoming context downstream, so a trace survives
  /// untraced intermediaries.
  void SetTraceRecorder(obs::TraceRecorder* recorder) { trace_ = recorder; }

  /// Scrapes `peer`'s metrics registry over the transport (a kStats request) and
  /// returns the JSON snapshot it answered with.
  Result<std::string> FetchPeerStats(const std::string& peer);

  /// Runs one exchange with `peer` (the paper's exchange(this, peer, 0)).
  /// Unavailable if the peer cannot be reached; OK even if the exchange was
  /// discarded due to an epoch race (the algorithm is randomized; a lost meeting
  /// is harmless).
  Status MeetWith(const std::string& peer);

  /// Stores `item` locally and installs its index entry at a responsible peer
  /// (found by routing), fanning out to that replica's buddies.
  Status Publish(const DataItem& item);

  /// Routes a query through the grid; returns the matching index entries held by
  /// the first responsible peer found. NotFound if routing exhausts its attempts.
  Result<std::vector<WireEntry>> Search(const KeyPath& key);

  /// Routes a query and returns the address of the responsible peer that answered.
  Result<std::string> RouteToResponsible(const KeyPath& key);

  /// Probes `peer` for its health summary (path, entry count, entry digest).
  /// Unavailable if it cannot be reached -- which feeds the failure detector
  /// like any other outbound call. A valid `ctx` stitches the probe into the
  /// caller's trace.
  Result<ProbeResponse> Probe(const std::string& peer,
                              const obs::TraceContext& ctx = {});

  /// One active self-healing round: probes every known peer (failures feed the
  /// failure detector; enough consecutive ones evict), then refills each
  /// under-full reference level by routing a lookup into its complementary
  /// subtree and adopting the probed-and-verified responder. Returns the number
  /// of references recruited. Meant to be called from the same maintenance loop
  /// that drives gossip meetings (see tools/pgrid_node).
  size_t MaintainReferences();

 private:
  struct RouteResult {
    std::string responder;
    std::vector<WireEntry> entries;
  };

  /// Shared routing core behind Search and RouteToResponsible. A valid `parent`
  /// makes the route span a child of the caller's span.
  Result<RouteResult> Route(const KeyPath& key, const obs::TraceContext& parent = {});

  // ---- handler side ----
  std::string Handle(const std::string& from, const std::string& request);
  /// Dispatches an unwrapped request; `ctx` is the caller's trace context (the
  /// server-side span if this node traces, else the context as it arrived).
  std::string Dispatch(const std::string& from, const std::string& request,
                       MsgType type, const obs::TraceContext& ctx);
  std::string HandleStats();
  std::string HandleQuery(const std::string& request);
  std::string HandlePublish(const std::string& request, const obs::TraceContext& ctx);
  std::string HandleExchange(const std::string& from, const std::string& request,
                             const obs::TraceContext& ctx);
  std::string HandleCommit(const std::string& from, const std::string& request);
  std::string HandleEntryPush(const std::string& request);
  std::string HandleProbe();

  // ---- client side ----
  /// Every outbound call funnels through here: the retry policy handles
  /// transient Unavailable failures, and deadline overruns are counted on
  /// node.call_deadline_exceeded. A valid `ctx` wraps the request in a kTraced
  /// envelope so the receiver can stitch its spans under ours.
  Result<std::string> CallWithRetry(const std::string& to, const std::string& request,
                                    const obs::TraceContext& ctx = {});

  /// Failure-detector hook on the outbound funnel: successes rehabilitate the
  /// address, consecutive failures past the threshold evict it from every
  /// reference level.
  void NoteCallOutcome(const std::string& to, bool ok);

  Status MeetWithDepth(const std::string& peer, uint32_t depth,
                       const obs::TraceContext& parent = {});

  /// Sends entries to `peer`; whatever it rejects is adopted back, or parked as
  /// foreign if the path no longer covers it.
  void PushEntries(const std::string& peer, std::vector<WireEntry> entries,
                   const obs::TraceContext& ctx = {});

  // ---- locked helpers (mu_ must be held) ----
  /// Addresses of `ids`, in order.
  std::vector<std::string> NamesLocked(Span<PeerId> ids) const;

  /// Interns the first refmax of `addresses` that are not this node's own
  /// and installs them as the references at `level`, marking the level in
  /// delta_ if the list changed. The views may name book_'s own strings.
  void SetRefsLocked(size_t level, Span<std::string_view> addresses);

  WireEntry ToWireLocked(const IndexEntry& entry) const;

  /// The digest of the leaf index, sim::IndexDigest with holders folded as
  /// addresses, read from the running sum in O(1).
  uint64_t IndexDigestLocked() const;

  /// `holder`'s address folded into a fresh digest: what sim::EntryTerm
  /// continues for each of its entries.
  sim::Digest HolderDigestLocked(PeerId holder) const;

  /// Adds an entry to the leaf index, deduplicating by (holder, item);
  /// refreshes key/version if newer. Counts new (holder, item) pairs on
  /// node.entries_adopted.
  void AdoptEntryLocked(const WireEntry& entry);

  /// Adopts `entry` if it overlaps the path, else parks it as foreign.
  void AdoptOrParkLocked(const WireEntry& entry);

  /// Parks `entry` in the foreign buffer.
  void ParkLocked(IndexEntry entry);

  /// Extracts index entries that no longer overlap the path, plus parked foreign
  /// entries. When every entry's key extends the path, the index part costs
  /// O(1): see LeafIndex::ExtractNotMatching.
  std::vector<IndexEntry> DrainNonMatchingLocked();

  /// One routing step against local state: the Fig. 2 step and the answer.
  struct LocalMatch {
    SearchStep step;
    std::vector<WireEntry> matching;       // if step.responsible
    std::vector<std::string> candidates;   // otherwise
  };
  LocalMatch MatchLocked(const KeyPath& key, uint32_t consumed);

  /// Commits what delta_ marks to durable storage (no-op without it).
  /// persist_mu_ serializes committers and orders their WAL appends; mu_ is
  /// taken only to encode the delta (and, when a compaction is due, to copy
  /// the state), never across the disk write.
  void PersistState();

  const std::string address_;
  RpcTransport* transport_;
  const NodeConfig config_;

  // Protocol state. Every PeerId in state_ (references, buddies, entry
  // holders) indexes book_; the node itself is id 0.
  mutable std::mutex mu_;
  PeerState state_;
  AddressBook book_;
  repair::SuspicionTable suspicion_;  // consecutive call failures, by book_ id
  // Sum of the sim::EntryTerm of every entry in state_.index(): updated where
  // the node changes its index (AdoptEntryLocked, DrainNonMatchingLocked) and
  // re-seeded when Start() installs a recovered state.
  uint64_t index_terms_ = 0;
  uint64_t epoch_ = 0;
  Rng rng_;
  bool serving_ = false;

  // Durable storage (null without NodeConfig::storage). persist_mu_ is always
  // acquired before mu_ (PersistState); never the other way around.
  std::unique_ptr<storage::PersistenceManager> persist_;
  std::mutex persist_mu_;
  bool recovered_ = false;
  // What changed in state_ since the last commit, guarded by mu_. Every
  // mutation of state_ marks it; it records nothing without durable storage.
  storage::PeerDelta delta_;

  // Registry-backed protocol counters: handler threads bump these concurrently,
  // so they must be atomic -- which registry counters are by construction.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // set iff none was passed
  obs::MetricsRegistry* metrics_;
  obs::Counter* c_exchanges_initiated_;
  obs::Counter* c_exchanges_served_;
  obs::Counter* c_queries_served_;
  obs::Counter* c_publishes_served_;
  obs::Counter* c_entries_adopted_;
  obs::Counter* c_route_offline_skips_;
  obs::Counter* c_route_backtracks_;
  obs::Counter* c_call_deadline_exceeded_;
  obs::Counter* c_probes_sent_;
  obs::Counter* c_refs_evicted_;
  obs::Counter* c_refs_recruited_;
  obs::Counter* c_slow_calls_;
  obs::Counter* c_meet_entries_shipped_;
  obs::Counter* c_replica_syncs_skipped_;
  obs::Histogram* h_route_attempts_;
  // storage.* instruments; null without durable storage.
  obs::Counter* c_storage_commits_ = nullptr;
  obs::Counter* c_storage_commit_records_ = nullptr;
  obs::Counter* c_storage_commit_bytes_ = nullptr;
  obs::Counter* c_storage_compactions_ = nullptr;
  obs::Histogram* h_storage_commit_us_ = nullptr;
  std::unique_ptr<RetryPolicy> retry_;  // shares the node's registry
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace net
}  // namespace pgrid
