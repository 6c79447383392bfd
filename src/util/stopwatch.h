// Wall-clock stopwatch for reporting experiment durations.

#pragma once

#include <chrono>
#include <cstdint>

namespace pgrid {

/// Steady-clock nanoseconds; only differences between two readings mean
/// anything. The parallel builder and query runner time their lanes with it.
inline uint64_t MonotonicNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Measures elapsed wall-clock time; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement window.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction or last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pgrid
