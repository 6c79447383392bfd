// Multi-threaded grid construction with a deterministic result.
//
// The sequential GridBuilder interleaves meeting scheduling and exchange execution
// on one RNG stream, so its result is a function of the seed but inherently
// serial. This builder restructures the same workload so meetings
// run concurrently while the final grid stays a pure function of (seed,
// batch_size) -- in particular, independent of the thread count:
//
//   1. Deterministic schedule. Each round draws `batch_size` meetings from the
//      master RNG, serially, before any execution. The schedule never depends on
//      how the previous batch was executed, only on how many meetings it held.
//   2. Conflict-free waves by edge coloring. The batch's meetings are the edges
//      of a multigraph over peers; a serial first-fit edge coloring
//      (core/wave_schedule.h) puts each meeting, in input order, into the
//      lowest wave that holds neither of its peers. Each wave is executed by
//      the pool with zero claim traffic: the conflict handling is computed
//      once per round, as a pure function of the item list.
//   3. Per-slot streams. Wave slot i owns a persistent Rng seeded as stream i of a
//      value drawn once from the master (util/rng.h DeriveStreamSeed). The wave
//      partition -- and therefore the item -> slot assignment -- is computed
//      serially, so slot streams advance identically for every thread count.
//      Persistent streams also keep the hot path free of std::mt19937_64
//      re-seeding (~2us per fresh engine, comparable to a whole exchange).
//   4. Sharded execution. Slot i runs ExchangeEngine::ExchangeSharded against its
//      own stream and a private deferred-recursion list (case-4 recursion
//      targets third peers, so it is captured, not executed inline), while
//      path growth lands in a per-*lane* sum -- purely additive, so lane
//      assignment cannot affect it. Message counts go straight to the grid's
//      atomic registry counters, whose sums are equally order-free.
//   5. Deterministic merges. The wave barrier only gathers deferred children, in
//      slot order (their order feeds the next round's coloring, so it must be
//      schedule-determined). The lane path-bit sums fold into the grid once per
//      batch -- O(threads) barrier work per batch.
//
// Convergence (average path length vs threshold) is checked at batch boundaries,
// after each batch has fully drained.
//
// With threads == 1 the identical wave machinery runs inline on the calling
// thread; 1-, 2-, and N-thread runs of the same seed produce byte-identical grids
// (tests/parallel_builder_test.cc snapshots them). The sequential GridBuilder
// remains the bit-exact legacy path for existing single-threaded experiments.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/build_profile.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "core/grid_builder.h"
#include "core/wave_schedule.h"
#include "sim/meeting_scheduler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pgrid {

struct ParallelBuildOptions {
  /// Worker threads (>= 1). Affects wall-clock only, never the result.
  size_t threads = 1;

  /// Meetings drawn per round. Part of the deterministic schedule: changing it
  /// changes the result (convergence is checked at batch boundaries). It must
  /// never be derived from the thread count.
  size_t batch_size = 256;

  /// Collect a per-wave BuildProfile (core/build_profile.h). Off by default:
  /// the profiled run times every wave and every exchange, which is cheap
  /// (a lane-local sum, no atomics) but not free. Never affects the result.
  bool profile = false;
};

/// Drives grid construction over a worker pool. The engine must have been created
/// on the same grid; the master Rng seeds the schedule and all slot streams.
class ParallelGridBuilder {
 public:
  ParallelGridBuilder(Grid* grid, ExchangeEngine* exchange,
                      MeetingScheduler* scheduler, Rng* master,
                      const ParallelBuildOptions& options);

  /// Runs until grid->AveragePathLength() >= target_avg_depth, or until
  /// `max_meetings` top-level meetings have been executed. Exchange counts are
  /// measured relative to the start of this call.
  BuildReport BuildToAverageDepth(double target_avg_depth, uint64_t max_meetings);

  /// Convenience: threshold as a fraction of maxl (the paper uses 0.99).
  BuildReport BuildToFractionOfMaxDepth(double fraction, uint64_t max_meetings);

  /// Executes one externally supplied batch of meetings to completion (including
  /// all deferred recursion), through the same wave machinery as BuildTo*. The
  /// result is a pure function of the builder's stream state and the meeting
  /// list -- thread-count independent -- which is what lets the scenario runner
  /// (sim/scenario.h) route its per-step meetings through any thread count and
  /// still reproduce the serial digests. Meetings with a == b are skipped (the
  /// exchange algorithm is undefined on self-pairs).
  void RunMeetings(const std::vector<Meeting>& meetings);

  const ParallelBuildOptions& options() const { return options_; }

  /// The utilization profile accumulated so far, or null when options.profile
  /// is false. Accumulates across BuildTo* calls on the same builder.
  const BuildProfile* profile() const { return profile_.get(); }

 private:
  /// One scheduled exchange: a meeting from the master schedule (depth 0) or a
  /// deferred case-4 recursion (depth > 0).
  struct WorkItem {
    PeerId a = 0;
    PeerId b = 0;
    uint32_t depth = 0;
  };

  /// Deterministic state of one wave slot: a persistent stream plus the slot's
  /// recursion capture (gathered in slot order at the wave barrier, because the
  /// gather order feeds the next round's schedule). Heap-allocated so the slot
  /// vector can grow without moving live Rng state.
  struct Slot {
    explicit Slot(uint64_t seed) : rng(seed) {}
    Rng rng;
    std::vector<PendingExchange> deferred;
  };

  /// Additive sums of one execution lane. Which lane runs which item is
  /// timing-dependent, but the path-bit sum is commutative, so the once-per-batch
  /// fold into the grid is deterministic regardless. `busy_ns` (kept only when
  /// profiling) is the lane's exchange time in the current wave.
  struct Lane {
    uint64_t path_bits = 0;
    uint64_t busy_ns = 0;
  };

  /// Ensures slots_ covers indices [0, n).
  void EnsureSlots(size_t n);

  /// Executes `items` (one batch of top-level meetings) to completion, including
  /// all deferred recursion, then folds the lane path-bit sums into the grid.
  void RunBatch(std::vector<WorkItem> items);

  Grid* grid_;
  ExchangeEngine* exchange_;
  MeetingScheduler* scheduler_;
  Rng* master_;
  ParallelBuildOptions options_;
  ThreadPool pool_;

  /// Base for slot-stream derivation, drawn from the master at construction.
  uint64_t stream_base_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Lane> lanes_;

  /// The per-round conflict-free partition (scratch reused across rounds).
  WaveSchedule schedule_;

  // Profiling state; null / unused when options.profile is false.
  std::unique_ptr<BuildProfile> profile_;
  uint64_t batch_ordinal_ = 0;
  uint64_t wave_ordinal_ = 0;
};

}  // namespace pgrid
