// Random pairwise meeting generation (Sec. 3: "whenever peers meet ...").
//
// The construction algorithm is driven by peers meeting randomly: both peers of
// a meeting are drawn uniformly over the community (the paper's model).

#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/types.h"
#include "util/rng.h"

namespace pgrid {

/// A pair of distinct peers chosen to run the exchange algorithm.
struct Meeting {
  PeerId a;
  PeerId b;
};

/// Generates the sequence of pairwise meetings that drives grid construction.
class MeetingScheduler {
 public:
  /// Creates a scheduler over a community of `num_peers` (>= 2).
  explicit MeetingScheduler(size_t num_peers);

  /// Draws the next meeting.
  Meeting Next(Rng* rng);

  /// Draws `count` meetings exactly as `count` repeated Next() calls would,
  /// appending them to `out`. Parallel drivers consume the meeting stream in
  /// deterministic order through this batch API before fanning execution out, so
  /// the schedule is a function of the seed alone, never of the thread count.
  void NextBatch(Rng* rng, size_t count, std::vector<Meeting>* out);

  size_t num_peers() const { return num_peers_; }

  /// Grows (or shrinks) the peer id range meetings are drawn from (dynamic
  /// membership). Requires n >= 2.
  void SetNumPeers(size_t n);

 private:
  size_t num_peers_;
};

}  // namespace pgrid
