// The benchmark's workloads (see NOTES.md for why each exists). Each one sets
// up its community several times, runs a closed loop for a fixed wall time,
// checks its outputs, and returns every end-to-end metric -- or, traced, every
// per-layer metric.

#pragma once

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the run may write to (durable store, trace file). Fresh
  /// sub-directories are made and removed inside it.
  std::string work_dir;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

RunResult RunSimBuild(const RunOptions& options);
RunResult RunNodeRead(const RunOptions& options);
RunResult RunNodeDurable(const RunOptions& options);

}  // namespace perfbench
