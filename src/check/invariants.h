// Structural invariant checker with machine-readable violation reports.
//
// The paper's correctness argument rests on structural properties the algorithms
// maintain, not on point behaviors: references complement the right bit (Fig. 1),
// the peer paths cover the whole key space via I(k), leaf-index entries live only
// at co-responsible peers, and replicas agree on every entry's key. This is the
// one structure checker: it walks the whole grid, classifies every violation
// into a category a test can assert on, and is the check the deterministic
// simulation harness (sim/fuzzer.h) runs at epoch barriers.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/grid.h"
#include "sim/types.h"

namespace pgrid {
namespace check {

/// What kind of structural property a violation breaks. Stable identifiers:
/// tests assert on categories, and the fuzzer's repro files name them.
enum class Category : int {
  kReference = 0,     ///< level-l ref does not agree on l-1 bits + complement bit l
  kRefmax = 1,        ///< more than refmax references at one level
  kSelfReference = 2, ///< a peer references itself
  kMaxl = 3,          ///< a path longer than maxl
  kBuddy = 4,         ///< buddy whose path differs (or self-buddy)
  kCoverage = 5,      ///< a subtree of [0,1) no peer path covers
  kPlacement = 6,     ///< leaf-index entry whose key does not overlap the path
  kReplicaDesync = 7, ///< two peers disagree on an entry's key for (holder, item)
  kDeadReference = 9, ///< a live peer still references a dead one
  kRefUnderfull = 10, ///< a live peer's level has fewer live refs than required
  kReplicaStale = 11, ///< live buddies disagree on entry sets or versions
  kPartitionLeak = 12,   ///< partition-era entry present outside its origin group
  kHealDivergence = 13,  ///< post-heal: buddies still disagree on a partition-era item
};

/// Stable display name ("reference", "refmax", ...).
std::string_view CategoryName(Category c);

/// One invariant violation, pinned to the state that breaks it.
struct Violation {
  Category category;
  /// Offending peer, or kInvalidPeer for grid-scope categories (coverage).
  PeerId peer = kInvalidPeer;
  /// 1-indexed reference level when applicable (reference/refmax), else 0.
  size_t level = 0;
  /// Human-readable explanation with the concrete paths / counts involved.
  std::string detail;
};

/// What the checker needs to know about a network partition (possibly already
/// healed): which group each peer sits in and which items were inserted while
/// the split was active. Those items are *quarantined* -- their entries must not
/// appear outside the origin group while the partition holds
/// (Category::kPartitionLeak), and after the heal every live buddy pair must
/// agree on them (Category::kHealDivergence). The scenario runner builds this
/// view from its `partition` step state.
struct PartitionView {
  /// Group id per PeerId; peers beyond the vector's size are ungrouped (joined
  /// after the view was taken) and exempt from the partition checks.
  std::vector<int> group;

  /// True while the split is in force: run the leak check. False once healed:
  /// run the convergence check instead (under check_repair_convergence).
  bool active = false;

  /// One item inserted during the partition.
  struct Quarantined {
    ItemId item = 0;
    PeerId holder = kInvalidPeer;  ///< the entry holder recorded at insert time
    int origin_group = 0;          ///< group of the inserting client
  };
  std::vector<Quarantined> items;
};

/// Which checks to run and how many violations to collect.
struct InvariantOptions {
  /// Per-peer access structure: reference property, refmax, maxl, buddies.
  bool check_structure = true;

  /// The peer paths cover [0,1): every point of the key space has a responsible
  /// peer. Sound for grids whose membership only grew through exchanges; a
  /// community that lost whole replica groups (crashes) can legitimately fail it,
  /// which is precisely what a churn scenario wants to detect.
  bool check_coverage = true;

  /// Leaf-index entries overlap their holder peer's path (the paper's D ⊆ ADDR x K
  /// restricted to the peer's interval). Parked foreign entries are exempt by
  /// design: they are the explicit not-yet-routable buffer.
  bool check_placement = true;

  /// Any two index entries for the same (holder, item) agree on the key, across
  /// all peers. Versions may differ (pending updates propagate asynchronously);
  /// keys never legitimately do.
  bool check_replica_agreement = true;

  /// Repair convergence (the self-healing target state, docs/robustness.md):
  /// among *live* peers -- liveness given by `dead` -- no reference points at a
  /// dead peer, every reference level holds at least min(refmax,
  /// repair_min_live_refs, live candidate count) live references, and live
  /// buddies hold identical entry sets at identical versions. Off by default:
  /// these are goals of the repair protocol, not invariants of construction.
  bool check_repair_convergence = false;

  /// Liveness mask indexed by PeerId (non-zero = dead), e.g.
  /// ChurnDriver::dead_mask(). Null means everyone is live. Peers beyond the
  /// mask's size are live (joiners appended after the snapshot was taken).
  /// Besides scoping the repair-convergence checks, the mask exempts dead
  /// peers' wiped in-memory state from the structure check: a sim kill step
  /// (StepKind::kKill) persists the victim's state to disk and clears the
  /// PeerState, so a reference or buddy edge pointing at it cannot be judged
  /// against what remains in memory.
  const std::vector<uint8_t>* dead = nullptr;

  /// Minimum live references demanded per level by kRefUnderfull (capped by
  /// refmax and by how many live satisfying peers exist at all). 1 = "the level
  /// still routes"; refmax = "fully healed".
  size_t repair_min_live_refs = 1;

  /// Partition consistency (docs/robustness.md): while `partition->active`,
  /// no quarantined entry may sit at a live peer of a different group
  /// (kPartitionLeak); after the heal -- and only when
  /// check_repair_convergence also holds, i.e. at strict barriers -- every
  /// live buddy pair must agree on the quarantined items (kHealDivergence).
  /// Null skips both checks. The view must outlive the Check call.
  const PartitionView* partition = nullptr;

  /// Stop collecting after this many violations (the report notes truncation).
  size_t max_violations = 64;
};

/// Result of one invariant sweep.
struct InvariantReport {
  std::vector<Violation> violations;
  bool truncated = false;     ///< true iff max_violations was hit
  size_t peers_checked = 0;

  bool ok() const { return violations.empty(); }

  /// Number of collected violations in one category.
  size_t CountOf(Category c) const;

  /// One line per violation: "category peer=3 level=2: <detail>".
  std::string ToString() const;
};

/// Walks a Grid and verifies the structural invariants selected in `options`.
class GridInvariants {
 public:
  static InvariantReport Check(const Grid& grid, const ExchangeConfig& config,
                               const InvariantOptions& options = {});
};

}  // namespace check
}  // namespace pgrid
