#include "check/invariants.h"

#include <gtest/gtest.h>

#include "core/grid.h"
#include "tests/test_util.h"

namespace pgrid {
namespace {

using check::Category;
using check::GridInvariants;
using check::InvariantOptions;
using check::InvariantReport;

// A freshly constructed community (everyone responsible for everything) breaks
// nothing: no refs, no data, root-terminal coverage.
TEST(GridInvariantsTest, FreshGridIsClean) {
  Grid grid(8);
  ExchangeConfig config;
  InvariantReport report = GridInvariants::Check(grid, config);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.peers_checked, 8u);
}

TEST(GridInvariantsTest, BuiltGridSatisfiesAllInvariants) {
  testing_util::BuiltGrid built = testing_util::Build(32, 3, 2, 2, /*seed=*/7);
  ASSERT_TRUE(built.report.converged);
  InvariantReport report = GridInvariants::Check(*built.grid, built.config);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- one deliberate corruption per category -------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    built_ = testing_util::Build(32, 3, 2, 2, /*seed=*/11);
    ASSERT_TRUE(built_.report.converged);
    ASSERT_TRUE(GridInvariants::Check(*built_.grid, built_.config).ok());
  }

  Grid& grid() { return *built_.grid; }

  /// Some peer with depth >= 1 (a converged grid has plenty).
  PeerState& AnyDeepPeer() {
    for (PeerState& p : grid()) {
      if (p.depth() >= 1) return p;
    }
    ADD_FAILURE() << "no peer with a non-empty path";
    return grid().peer(0);
  }

  /// A peer other than `not_this` whose first path bit equals `bit`.
  PeerId PeerOnSide(int bit, PeerId not_this) {
    for (const PeerState& p : grid()) {
      if (p.id() != not_this && p.depth() >= 1 && p.PathBit(1) == bit) {
        return p.id();
      }
    }
    ADD_FAILURE() << "no peer on side " << bit;
    return 0;
  }

  InvariantReport Check() {
    return GridInvariants::Check(grid(), built_.config);
  }

  testing_util::BuiltGrid built_;
};

TEST_F(CorruptionTest, FlippedReferenceBitIsCaught) {
  // A level-1 reference must sit on the complement side of the first bit;
  // pointing it at a same-side peer is exactly a "flipped bit" corruption.
  PeerState& victim = AnyDeepPeer();
  victim.SetRefsAt(1, {PeerOnSide(victim.PathBit(1), victim.id())});
  InvariantReport report = Check();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(Category::kReference), 1u) << report.ToString();
  EXPECT_EQ(report.violations[0].peer, victim.id());
  EXPECT_EQ(report.violations[0].level, 1u);
}

TEST_F(CorruptionTest, SelfReferenceIsCaught) {
  PeerState& victim = AnyDeepPeer();
  victim.SetRefsAt(1, {victim.id()});
  InvariantReport report = Check();
  EXPECT_GE(report.CountOf(Category::kSelfReference), 1u) << report.ToString();
}

TEST_F(CorruptionTest, RefmaxOverflowIsCaught) {
  PeerState& victim = AnyDeepPeer();
  // Stuff more complement-side peers into R1 than refmax allows; every target
  // is individually valid so only the count is wrong.
  const int other_side = ComplementBit(victim.PathBit(1));
  std::vector<PeerId> refs;
  for (const PeerState& p : grid()) {
    if (p.id() != victim.id() && p.depth() >= 1 && p.PathBit(1) == other_side) {
      refs.push_back(p.id());
      if (refs.size() > built_.config.refmax) break;
    }
  }
  ASSERT_GT(refs.size(), built_.config.refmax);
  victim.SetRefsAt(1, refs);
  InvariantReport report = Check();
  EXPECT_GE(report.CountOf(Category::kRefmax), 1u) << report.ToString();
  EXPECT_EQ(report.CountOf(Category::kReference), 0u) << report.ToString();
}

TEST_F(CorruptionTest, PathBeyondMaxlIsCaught) {
  // Checking against a tighter maxl than the grid was built with flags every
  // deeper path -- the same report a runtime maxl violation would produce.
  ExchangeConfig tighter = built_.config;
  tighter.maxl = 1;
  InvariantReport report = GridInvariants::Check(grid(), tighter);
  EXPECT_GE(report.CountOf(Category::kMaxl), 1u) << report.ToString();
}

TEST_F(CorruptionTest, ForeignBuddyIsCaught) {
  PeerState& victim = AnyDeepPeer();
  const PeerId stranger = PeerOnSide(ComplementBit(victim.PathBit(1)), victim.id());
  ASSERT_TRUE(victim.AddBuddy(stranger));
  InvariantReport report = Check();
  EXPECT_GE(report.CountOf(Category::kBuddy), 1u) << report.ToString();
}

TEST_F(CorruptionTest, MisplacedDataItemIsCaught) {
  PeerState& victim = AnyDeepPeer();
  IndexEntry entry;
  entry.holder = victim.id();
  entry.item_id = 424242;
  // Key on the complement side of the victim's first bit: intervals disjoint.
  entry.key = KeyPath::FromUint64(ComplementBit(victim.PathBit(1)), 1);
  entry.version = 1;
  ASSERT_TRUE(victim.index().InsertOrRefresh(entry));
  InvariantReport report = Check();
  EXPECT_GE(report.CountOf(Category::kPlacement), 1u) << report.ToString();
  EXPECT_EQ(report.violations[0].peer, victim.id());
}

TEST_F(CorruptionTest, DesyncedReplicaKeyIsCaught) {
  // Same (holder, item) indexed under different keys at two peers. Each entry
  // individually respects placement, so only the cross-peer check can see it.
  PeerState* zero_side = nullptr;
  PeerState* one_side = nullptr;
  for (PeerState& p : grid()) {
    if (p.depth() < 1) continue;
    if (p.PathBit(1) == 0 && zero_side == nullptr) zero_side = &p;
    if (p.PathBit(1) == 1 && one_side == nullptr) one_side = &p;
  }
  ASSERT_NE(zero_side, nullptr);
  ASSERT_NE(one_side, nullptr);
  IndexEntry entry;
  entry.holder = zero_side->id();
  entry.item_id = 777;
  entry.version = 1;
  entry.key = zero_side->path();
  ASSERT_TRUE(zero_side->index().InsertOrRefresh(entry));
  entry.key = one_side->path();
  ASSERT_TRUE(one_side->index().InsertOrRefresh(entry));
  InvariantReport report = Check();
  EXPECT_GE(report.CountOf(Category::kReplicaDesync), 1u) << report.ToString();
  EXPECT_EQ(report.CountOf(Category::kPlacement), 0u) << report.ToString();
}

TEST(GridInvariantsCoverageTest, UncoveredSubtreeIsReported) {
  // Two peers both at "0": nobody is responsible for keys starting with 1.
  Grid grid(2);
  grid.peer(0).AppendPathBit(0);
  grid.peer(1).AppendPathBit(0);
  ExchangeConfig config;
  InvariantReport report = GridInvariants::Check(grid, config);
  ASSERT_GE(report.CountOf(Category::kCoverage), 1u) << report.ToString();
  bool mentions_one = false;
  for (const check::Violation& v : report.violations) {
    if (v.category == Category::kCoverage &&
        v.detail.find("prefix 1") != std::string::npos) {
      mentions_one = true;
    }
  }
  EXPECT_TRUE(mentions_one) << report.ToString();
}

TEST(GridInvariantsCoverageTest, HoleIsReportedOnceNotPerLeaf) {
  // Peers at 00, 01 and 11: the single hole is the prefix 10, not its leaves.
  Grid grid(3);
  grid.peer(0).AppendPathBit(0);
  grid.peer(0).AppendPathBit(0);
  grid.peer(1).AppendPathBit(0);
  grid.peer(1).AppendPathBit(1);
  grid.peer(2).AppendPathBit(1);
  grid.peer(2).AppendPathBit(1);
  ExchangeConfig config;
  InvariantReport report = GridInvariants::Check(grid, config);
  EXPECT_EQ(report.CountOf(Category::kCoverage), 1u) << report.ToString();
  EXPECT_NE(report.violations[0].detail.find("prefix 10"), std::string::npos);
}

TEST(GridInvariantsOptionsTest, DisabledChecksAreSkipped) {
  Grid grid(2);
  grid.peer(0).AppendPathBit(0);
  grid.peer(1).AppendPathBit(0);
  ExchangeConfig config;
  InvariantOptions options;
  options.check_coverage = false;
  EXPECT_TRUE(GridInvariants::Check(grid, config, options).ok());
  options.check_coverage = true;
  InvariantReport report = GridInvariants::Check(grid, config, options);
  EXPECT_EQ(report.CountOf(Category::kCoverage), 1u);
}

TEST(GridInvariantsOptionsTest, MaxViolationsTruncates) {
  Grid grid(16);
  // Every peer references itself at level 1: 16 violations available.
  for (PeerState& p : grid) {
    p.AppendPathBit(0);
    p.SetRefsAt(1, {p.id()});
  }
  ExchangeConfig config;
  InvariantOptions options;
  options.check_coverage = false;
  options.max_violations = 5;
  InvariantReport report = GridInvariants::Check(grid, config, options);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.violations.size(), 5u);
  EXPECT_NE(report.ToString().find("truncated"), std::string::npos);
}

// --- repair-convergence categories (dead refs, underfull levels, stale
// replicas) are scoped to live peers and off by default ---------------------

TEST_F(CorruptionTest, DeadReferenceIsCaughtOnlyByConvergenceCheck) {
  PeerState& a = AnyDeepPeer();
  ASSERT_FALSE(a.RefsAt(1).empty());
  std::vector<uint8_t> dead(grid().size(), 0);
  dead[a.RefsAt(1).front()] = 1;

  // Construction-time invariants do not know liveness: still clean.
  EXPECT_TRUE(Check().ok());

  InvariantOptions options;
  options.check_repair_convergence = true;
  options.dead = &dead;
  options.max_violations = 100000;
  InvariantReport report =
      GridInvariants::Check(grid(), built_.config, options);
  EXPECT_GE(report.CountOf(Category::kDeadReference), 1u) << report.ToString();
}

TEST_F(CorruptionTest, RefUnderfullDemandIsCappedByLiveSupply) {
  PeerState& a = AnyDeepPeer();
  ASSERT_FALSE(a.RefsAt(1).empty());
  std::vector<uint8_t> dead(grid().size(), 0);
  for (PeerId t : a.RefsAt(1)) dead[t] = 1;

  InvariantOptions options;
  options.check_repair_convergence = true;
  options.dead = &dead;
  options.repair_min_live_refs = 1;
  options.max_violations = 100000;
  InvariantReport report =
      GridInvariants::Check(grid(), built_.config, options);
  bool underfull_at_a = false;
  for (const check::Violation& v : report.violations) {
    underfull_at_a |= v.category == Category::kRefUnderfull &&
                      v.peer == a.id() && v.level == 1;
  }
  EXPECT_TRUE(underfull_at_a) << report.ToString();

  // Kill every remaining candidate on the complement side of bit 1: the demand
  // is capped by supply, drops to zero, and the underfull report disappears.
  for (const PeerState& t : grid()) {
    if (t.id() != a.id() && t.depth() >= 1 &&
        t.PathBit(1) != a.PathBit(1)) {
      dead[t.id()] = 1;
    }
  }
  report = GridInvariants::Check(grid(), built_.config, options);
  for (const check::Violation& v : report.violations) {
    EXPECT_FALSE(v.category == Category::kRefUnderfull && v.peer == a.id() &&
                 v.level == 1)
        << v.detail;
  }
}

TEST_F(CorruptionTest, ReplicaStaleFlagsMissingAndOutdatedEntriesAtLiveBuddies) {
  PeerId a_id = kInvalidPeer, b_id = kInvalidPeer;
  for (const PeerState& p : grid()) {
    if (!p.buddies().empty()) {
      a_id = p.id();
      b_id = p.buddies().front();
      break;
    }
  }
  ASSERT_NE(a_id, kInvalidPeer) << "converged grid should have replicas";

  // Plant two entries at every peer of the replica group except `b`: one that
  // `b` holds at an older version, one it lacks entirely.
  IndexEntry skewed;
  skewed.holder = a_id;
  skewed.item_id = 777;
  skewed.key = grid().peer(a_id).path();
  skewed.version = 5;
  IndexEntry missing = skewed;
  missing.item_id = 778;
  for (PeerState& t : grid()) {
    if (t.id() == b_id || t.path() != grid().peer(a_id).path()) continue;
    ASSERT_TRUE(t.index().InsertOrRefresh(skewed));
    ASSERT_TRUE(t.index().InsertOrRefresh(missing));
  }
  IndexEntry old = skewed;
  old.version = 2;
  ASSERT_TRUE(grid().peer(b_id).index().InsertOrRefresh(old));

  InvariantOptions options;
  options.check_repair_convergence = true;
  options.max_violations = 100000;
  InvariantReport report =
      GridInvariants::Check(grid(), built_.config, options);
  // Both failure modes land on the lagging side `b`.
  size_t at_b = 0;
  for (const check::Violation& v : report.violations) {
    if (v.category == Category::kReplicaStale && v.peer == b_id) ++at_b;
  }
  EXPECT_GE(at_b, 2u) << report.ToString();

  // A crashed buddy is exempt: there is nothing to reconcile with it.
  std::vector<uint8_t> dead(grid().size(), 0);
  dead[b_id] = 1;
  options.dead = &dead;
  report = GridInvariants::Check(grid(), built_.config, options);
  EXPECT_EQ(report.CountOf(Category::kReplicaStale), 0u) << report.ToString();
}

TEST(GridInvariantsReportTest, ToStringNamesCategoryPeerAndLevel) {
  Grid grid(4);
  grid.peer(0).AppendPathBit(0);
  grid.peer(0).SetRefsAt(1, {0});
  ExchangeConfig config;
  InvariantOptions options;
  options.check_coverage = false;
  InvariantReport report = GridInvariants::Check(grid, config, options);
  ASSERT_FALSE(report.ok());
  const std::string text = report.ToString();
  EXPECT_NE(text.find("self-reference"), std::string::npos) << text;
  EXPECT_NE(text.find("peer=0"), std::string::npos) << text;
  EXPECT_NE(text.find("level=1"), std::string::npos) << text;
}

}  // namespace
}  // namespace pgrid
