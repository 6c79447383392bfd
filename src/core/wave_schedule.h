// Conflict-free wave scheduling by first-fit edge coloring.
//
// The parallel builder (core/parallel_builder.h) executes a batch of meetings
// concurrently, but two meetings that share a peer mutate the same PeerState
// and therefore must not run in the same wave. A batch of meetings is a
// multigraph over peers -- meetings are edges, peers are vertices -- and a
// partition into conflict-free waves is a proper edge coloring: no two edges
// of one color share a vertex, so each color class is a wave the thread pool
// can execute with no claim traffic. The coloring runs serially, once per
// round, and is a pure function of the item list (no RNG, no dependence on
// thread count or timing), so the wave structure -- and with it the item ->
// slot assignment that drives the deterministic per-slot RNG streams -- is
// part of the schedule, never of the execution.
//
// Algorithm: first fit in input order. Each edge takes the lowest wave that
// holds neither of its peers. An edge meets at most 2 * (max_degree() - 1)
// other edges, so
//
//     waves() <= 2 * max_degree() - 1
//
// for simple batches and multigraphs alike, against the lower bound
// max_degree(). On builder-shaped batches (a few hundred meetings over a far
// larger community) first fit lands within one of max_degree() in practice;
// tests/wave_schedule_test.cc pins the first-fit rule, both bounds, validity,
// completeness and determinism.
//
// Scratch state (per-peer stamps, wave masks) is retained across Color() calls
// so a builder can reschedule every round without reallocating; none of it
// leaks into the result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace pgrid {

/// One schedulable meeting: an edge of the batch multigraph. Only the
/// endpoints matter for scheduling; execution payload (recursion depth etc.)
/// stays with the caller, keyed by item index.
struct WaveEdge {
  PeerId a = 0;
  PeerId b = 0;
};

/// A conflict-free wave partition of one batch of meetings.
class WaveSchedule {
 public:
  WaveSchedule() = default;

  WaveSchedule(const WaveSchedule&) = delete;
  WaveSchedule& operator=(const WaveSchedule&) = delete;

  /// Colors `edges` first fit and replaces the previous schedule.
  /// Deterministic: the waves are a pure function of the edge list (order
  /// included). Self-loops (a == b) are rejected by PGRID_CHECK; the exchange
  /// algorithm never produces them.
  void Color(const std::vector<WaveEdge>& edges);

  /// Number of waves (every wave holds at least one edge).
  size_t num_waves() const { return waves_.size(); }

  /// Item indices of wave `w`, ascending (== input order within the wave).
  const std::vector<uint32_t>& wave(size_t w) const { return waves_[w]; }

  /// Total edges scheduled (sum of wave widths; every input edge exactly once).
  size_t num_edges() const { return num_edges_; }

  /// Maximum vertex degree of the batch multigraph, counting multiplicity.
  /// num_waves() <= 2 * max_degree() - 1 for a nonempty batch.
  size_t max_degree() const { return max_degree_; }

 private:
  /// Dense vertex id of `peer`, assigning one on first sight this round.
  uint32_t DenseId(PeerId peer);

  // Round-scoped working state. Vertices are dense ids 0..num_vertices_-1.
  std::vector<uint32_t> dense_;  // PeerId -> dense id (stamped)
  std::vector<uint32_t> stamp_;  // PeerId -> round stamp
  uint32_t round_ = 0;
  uint32_t num_vertices_ = 0;

  std::vector<uint32_t> edge_u_, edge_v_;  // dense endpoints per edge
  std::vector<uint32_t> degree_;           // dense vertex -> degree
  std::vector<uint64_t> used_;             // vertex x word: bit w = wave w holds it

  std::vector<std::vector<uint32_t>> waves_;
  size_t num_edges_ = 0;
  size_t max_degree_ = 0;
};

}  // namespace pgrid
