// The peer community and its metrics registry.
//
// Grid owns all PeerState objects plus the metrics registry every protocol engine
// counts its simulated messages in; stats() reads the paper's per-type message
// counts from it. Grid also maintains the running sum of path lengths so
// convergence checks (average path length vs threshold, Sec. 5.1) are O(1).

#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/peer_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/message_stats.h"
#include "sim/types.h"
#include "util/macros.h"

namespace pgrid {

/// A community of peers sharing one P-Grid.
class Grid {
 public:
  /// Creates `num_peers` peers, all initially responsible for the whole key space.
  explicit Grid(size_t num_peers) : query_load_(num_peers) {
    peers_.reserve(num_peers);
    for (size_t i = 0; i < num_peers; ++i) peers_.emplace_back(static_cast<PeerId>(i));
  }

  size_t size() const { return peers_.size(); }

  /// Adds a fresh peer (empty path, responsible for the whole key space) and
  /// returns its id. Supports dynamic membership: new peers integrate through
  /// ordinary exchanges. Do not call while an exchange or any parallel workload
  /// is executing.
  PeerId AddPeer() { return AddPeers(1); }

  /// Adds `count` fresh peers at once and returns the first new id. Mass joins
  /// (churn rounds, flash-crowd scenarios) must use this instead of repeated
  /// AddPeer(): the per-peer load counters are atomics, which are not movable,
  /// so every grow rebuilds that whole vector -- batched, the rebuild happens
  /// once per wave instead of once per joiner (O(n) vs O(n * count)).
  PeerId AddPeers(size_t count) {
    PGRID_CHECK_GT(count, 0u);
    const PeerId first = static_cast<PeerId>(peers_.size());
    peers_.reserve(peers_.size() + count);
    for (size_t i = 0; i < count; ++i) {
      peers_.emplace_back(static_cast<PeerId>(peers_.size()));
    }
    std::vector<std::atomic<uint64_t>> grown(peers_.size());
    for (size_t i = 0; i < query_load_.size(); ++i) {
      grown[i].store(query_load_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    query_load_ = std::move(grown);
    return first;
  }

  PeerState& peer(PeerId id) {
    PGRID_CHECK_LT(id, peers_.size());
    return peers_[id];
  }
  const PeerState& peer(PeerId id) const {
    PGRID_CHECK_LT(id, peers_.size());
    return peers_[id];
  }

  /// Simulated message counts by type so far, summed from the registry's
  /// message counters (sim/message_stats.h; e.g. kQuery is the counter
  /// "search.messages"). A fresh value per call: take one before and one after
  /// an operation to count what it sent.
  MessageStats stats() const { return MessageStats(metrics_); }

  /// The unified metrics registry all engines record into; see
  /// docs/observability.md for the metric names.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Optional per-operation trace sink for the engines. Null by default (tracing
  /// off); the recorder must outlive the grid's engines.
  obs::TraceRecorder* trace() const { return trace_; }
  void SetTraceRecorder(obs::TraceRecorder* recorder) { trace_ = recorder; }

  /// Called by the exchange engine whenever a path grows by one bit.
  void NotePathGrowth(size_t bits = 1) { total_path_bits_ += bits; }

  /// Inverse of NotePathGrowth, for the one operation that ever shrinks a
  /// path: a crash that wipes a peer's in-memory state (sim kill steps). The
  /// restart re-adds the recovered bits through NotePathGrowth.
  void NotePathLoss(size_t bits) {
    PGRID_CHECK_LE(bits, total_path_bits_);
    total_path_bits_ -= bits;
  }

  /// Called by the search/update engines when `peer` serves a message. Feeds the
  /// per-peer load statistics behind the paper's "scales ... equally for all
  /// peers" claim (see GridStats::QueryLoadProfile). The counter vector is sized
  /// with the community (constructor / AddPeer), so this hot path is branch-free,
  /// and the increment is a relaxed atomic so concurrent read-only workloads
  /// (core/parallel_workload.h) can serve from many threads at once.
  void NoteServed(PeerId peer) {
    PGRID_DCHECK(peer < query_load_.size());
    query_load_[peer].fetch_add(1, std::memory_order_relaxed);
  }

  /// Messages served per peer so far (index = PeerId; always size() entries).
  std::vector<uint64_t> query_load() const {
    std::vector<uint64_t> out(query_load_.size());
    for (size_t i = 0; i < query_load_.size(); ++i) {
      out[i] = query_load_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Zeroes the per-peer load counters.
  void ResetQueryLoad() {
    for (auto& c : query_load_) c.store(0, std::memory_order_relaxed);
  }

  /// Approximate heap footprint of the whole community: every peer's protocol
  /// state (paths, references, indexes, stores) plus the per-peer load
  /// counters, counted at container capacity. The metrics registry and trace
  /// sink are observability plumbing, not protocol state, and are excluded.
  /// Divide by size() for the per-peer storage cost the scaling benches report.
  size_t ApproxMemoryBytes() const {
    size_t bytes = peers_.capacity() * sizeof(PeerState);
    for (const PeerState& p : peers_) bytes += p.ApproxMemoryBytes();
    bytes += query_load_.capacity() * sizeof(std::atomic<uint64_t>);
    return bytes;
  }

  /// Average path length over all peers, in O(1).
  double AveragePathLength() const {
    return peers_.empty() ? 0.0
                          : static_cast<double>(total_path_bits_) /
                                static_cast<double>(peers_.size());
  }

  auto begin() { return peers_.begin(); }
  auto end() { return peers_.end(); }
  auto begin() const { return peers_.begin(); }
  auto end() const { return peers_.end(); }

 private:
  std::vector<PeerState> peers_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder* trace_ = nullptr;
  size_t total_path_bits_ = 0;
  std::vector<std::atomic<uint64_t>> query_load_;
};

}  // namespace pgrid
