// Per-reference failure detection with hysteresis.
//
// The fault layer (net/fault_transport.h) makes single-contact evidence
// worthless: a dropped packet looks exactly like a crashed peer. SuspicionTable
// therefore accumulates *consecutive* failures per target and only reports a
// target as evictable once the count crosses a threshold; any successful
// contact fully rehabilitates it. One table per observing peer keeps the
// evidence local, as it would be in a deployment -- peers never share suspicion,
// only the eviction decisions that follow from it.
//
// Two further hysteresis dimensions cover macro faults (docs/robustness.md):
//
//  - Gray failures. A peer that answers, but slowly, is tracked on a separate
//    consecutive-slow counter. Crossing `slow_threshold` *demotes* the target
//    (deprioritized in routing, see SearchEngine::set_slow_fn) without ever
//    evicting it -- a slow replica still holds valid data. One fast contact
//    lifts the demotion.
//  - Eviction cooldown. After an eviction, the next `eviction_cooldown`
//    threshold crossings reset the suspect's counter instead of evicting, so a
//    transport-wide event (slow network, partition) cannot mass-evict an
//    observer's whole reference set in one sweep.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "sim/types.h"

namespace pgrid {
namespace repair {

/// Consecutive-failure (and consecutive-slow) counters over contact targets.
class SuspicionTable {
 public:
  /// `threshold` consecutive failures mark a target evictable; 0 disables
  /// detection entirely (NoteFailure never returns true). `slow_threshold`
  /// consecutive slow contacts mark a target demoted; 0 disables gray-failure
  /// tracking. After an eviction the next `eviction_cooldown` threshold
  /// crossings are suppressed.
  explicit SuspicionTable(uint32_t threshold, uint32_t slow_threshold = 0,
                          uint32_t eviction_cooldown = 0)
      : threshold_(threshold),
        slow_threshold_(slow_threshold),
        eviction_cooldown_(eviction_cooldown) {}

  /// Records a successful contact: the target is fully rehabilitated on the
  /// failure axis. Slowness is tracked separately (NoteSlow / NoteFast) --
  /// a slow success is still a success.
  void NoteSuccess(PeerId target) { counts_.erase(target); }

  /// Records a failed contact. Returns true iff this failure pushed the target
  /// over the threshold *and* no eviction cooldown is pending -- the caller
  /// should evict it. The counter resets on every crossing (evicting or
  /// suppressed), so a later re-recruitment starts with a clean slate.
  bool NoteFailure(PeerId target) {
    if (threshold_ == 0) return false;
    if (++counts_[target] < threshold_) return false;
    counts_.erase(target);
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      return false;
    }
    cooldown_left_ = eviction_cooldown_;
    return true;
  }

  /// Records a delivered-but-slow contact. Returns true iff this crossed the
  /// slow threshold -- the demotion edge; the target stays demoted until a
  /// fast contact (NoteFast) rehabilitates it.
  bool NoteSlow(PeerId target) {
    if (slow_threshold_ == 0 || demoted_.contains(target)) return false;
    if (++slow_counts_[target] < slow_threshold_) return false;
    slow_counts_.erase(target);
    demoted_.insert(target);
    return true;
  }

  /// Records a delivered fast contact: clears slow evidence and any demotion.
  void NoteFast(PeerId target) {
    slow_counts_.erase(target);
    demoted_.erase(target);
  }

  /// True iff the target crossed the slow threshold and has not been fast since.
  bool IsDemoted(PeerId target) const { return demoted_.contains(target); }

  /// True iff some target has a failure counted (NoteSuccess has work to do).
  bool has_failures() const { return !counts_.empty(); }

  /// Current consecutive-failure count for `target` (0 if unsuspected).
  uint32_t suspicion(PeerId target) const {
    auto it = counts_.find(target);
    return it == counts_.end() ? 0 : it->second;
  }

  /// Current consecutive-slow count for `target` (0 once demoted or fast).
  uint32_t slowness(PeerId target) const {
    auto it = slow_counts_.find(target);
    return it == slow_counts_.end() ? 0 : it->second;
  }

 private:
  uint32_t threshold_;
  uint32_t slow_threshold_;
  uint32_t eviction_cooldown_;
  uint32_t cooldown_left_ = 0;
  std::unordered_map<PeerId, uint32_t> counts_;
  std::unordered_map<PeerId, uint32_t> slow_counts_;
  std::unordered_set<PeerId> demoted_;
};

}  // namespace repair
}  // namespace pgrid
