// Per-wave utilization profile of a parallel build -- the report that answers
// "where does the parallel build spend its time?".
//
// The parallel builder (core/parallel_builder.h) alternates serial phases
// (schedule drawing, wave coloring, barrier merges) with parallel waves. When
// profiling is on it fills one WaveProfile per wave: the wave's structure
// (batch/wave ordinals, items scheduled, wave width) plus its timings
// (color/run/merge wall time, and the busy-nanosecond sum each lane kept
// while the wave ran). Structure is a function of (seed, batch_size) only --
// the coloring runs serially -- so StructureJson() is byte-identical across
// thread counts and runs, which tests/parallel_builder_test.cc pins. Timings
// vary; the derived quantities (serial fraction, utilization, barrier-wait
// distribution) are what the scaling analysis consumes.
//
// Amdahl bookkeeping:
//   serial_ns    = schedule_ns + merge_ns + sum(color_ns) + sum(wave merge_ns)
//   run_ns       = sum over waves of the ParallelFor wall time
//   busy_ns      = sum over waves and lanes of exchange execution time
//   barrier wait = run_ns(wave) - lane_busy_ns(wave, lane), per lane per wave
//
// ToJson() is the full report (schema in docs/observability.md).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pgrid {

/// One conflict-free wave of a parallel build.
struct WaveProfile {
  uint64_t batch = 0;      ///< batch ordinal within the build (0-based)
  uint64_t wave = 0;       ///< wave ordinal within the build (0-based, global)
  uint64_t scheduled = 0;  ///< work items pending when the round was colored
  uint64_t width = 0;      ///< items that ran in this wave
  uint64_t color_ns = 0;   ///< serial: edge coloring (first wave of each round)
  uint64_t run_ns = 0;     ///< wall time of the wave's ParallelFor
  uint64_t merge_ns = 0;   ///< serial: slot-order deferred gather at the barrier
  /// Exchange execution time per lane inside run_ns (size = thread count): the
  /// lane's busy-nanosecond sum, read and reset at the wave barrier.
  std::vector<uint64_t> lane_busy_ns;
};

/// Whole-build profile: per-wave records plus the serial phases around them.
struct BuildProfile {
  size_t threads = 1;
  uint64_t schedule_ns = 0;  ///< serial NextBatch time, all batches
  uint64_t merge_ns = 0;     ///< serial: per-batch lane path-bit folds
  uint64_t total_ns = 0;     ///< wall time of the whole build call
  std::vector<WaveProfile> waves;

  uint64_t SerialNs() const;  ///< schedule + color + wave/batch merges
  uint64_t RunNs() const;     ///< sum of wave ParallelFor wall times
  uint64_t BusyNs() const;    ///< sum of per-lane exchange time

  /// Fraction of total_ns spent in serial phases (0 when total_ns == 0).
  double SerialFraction() const;

  /// BusyNs / (threads * RunNs): how much of the parallel region's capacity did
  /// useful work (0 when RunNs == 0).
  double Utilization() const;

  /// Barrier wait per (wave, lane): wave run wall time minus the lane's busy
  /// time, clamped at 0. One sample per lane per wave, wave-major order.
  std::vector<uint64_t> BarrierWaitSamplesNs() const;

  /// Full report: totals, derived fractions, barrier-wait percentiles, and the
  /// per-wave array. Deterministic modulo timings.
  std::string ToJson() const;

  /// Structure only (batch/wave/scheduled/width per wave; no timings,
  /// no thread count): byte-identical across thread counts for a fixed
  /// (seed, batch_size).
  std::string StructureJson() const;
};

}  // namespace pgrid
