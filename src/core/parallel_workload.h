// Multi-threaded read-only query workloads with deterministic counts.
//
// Searches never mutate peer state, so a query workload parallelizes trivially --
// the work is making the *counts* deterministic. Query i always runs on
// Rng(DeriveStreamSeed(seed, i)): its key, entry point, and routing decisions are
// a function of (seed, i), independent of which thread runs it when. Queries run
// in fixed chunks of 64, one SearchEngine per chunk.
//
// Message counters (search.messages, hence stats().count(kQuery)) and per-peer
// load counters (Grid::NoteServed) are relaxed atomics recorded in place: sums
// are exact and thread-count independent, which is all the paper's message
// counts and the load-balance statistics consume.
//
// Every run also times its chunks: each lane sums the nanoseconds it spent in
// chunks, and the report turns the sums into per-lane busy time and a
// utilization. Timing never affects found/message counts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/grid.h"
#include "sim/online_model.h"

namespace pgrid {

struct ParallelQueryOptions {
  /// Worker threads (>= 1). Affects wall-clock only, never found/message counts.
  size_t threads = 1;

  /// Queries to issue.
  uint64_t num_queries = 0;

  /// Bits per random query key.
  size_t key_length = 8;

  /// Master seed; query i draws from stream DeriveStreamSeed(seed, i).
  uint64_t seed = 1;
};

/// Aggregate outcome of one parallel query run.
struct ParallelQueryReport {
  uint64_t queries = 0;
  uint64_t found = 0;
  uint64_t messages = 0;  ///< kQuery messages (also counted in search.messages)
  double seconds = 0.0;
  double queries_per_second = 0.0;

  /// Per-lane chunk execution time (size = threads; empty for zero queries).
  std::vector<uint64_t> lane_busy_ns;
  /// sum(lane_busy_ns) / (threads * wall time).
  double utilization = 0.0;
};

/// Fans `options.num_queries` random-key queries out over `options.threads`
/// threads. `online` may be null (everyone online). Found/message totals are a
/// pure function of (grid state, options.seed); see file comment.
ParallelQueryReport RunParallelQueries(Grid* grid, const OnlineModel* online,
                                       const ParallelQueryOptions& options);

}  // namespace pgrid
