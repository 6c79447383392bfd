#include "core/peer_state.h"

#include <gtest/gtest.h>

#include "key/key_path.h"

namespace pgrid {
namespace {

TEST(PeerStateTest, StartsWithEmptyPath) {
  PeerState p(7);
  EXPECT_EQ(p.id(), 7u);
  EXPECT_EQ(p.depth(), 0u);
  EXPECT_TRUE(p.path().empty());
  EXPECT_EQ(p.TotalRefs(), 0u);
}

TEST(PeerStateTest, AppendPathBitGrowsPathAndRefLevels) {
  PeerState p(1);
  p.AppendPathBit(0);
  p.AppendPathBit(1);
  EXPECT_EQ(p.path().ToString(), "01");
  EXPECT_EQ(p.PathBit(1), 0);
  EXPECT_EQ(p.PathBit(2), 1);
  EXPECT_TRUE(p.RefsAt(1).empty());
  EXPECT_TRUE(p.RefsAt(2).empty());
}

TEST(PeerStateTest, RefManagement) {
  PeerState p(1);
  p.AppendPathBit(0);
  EXPECT_TRUE(p.AddRefAt(1, 5));
  EXPECT_FALSE(p.AddRefAt(1, 5));  // dedup
  EXPECT_TRUE(p.AddRefAt(1, 6));
  EXPECT_EQ(p.RefsAt(1).size(), 2u);
  EXPECT_EQ(p.TotalRefs(), 2u);
  p.SetRefsAt(1, {9});
  ASSERT_EQ(p.RefsAt(1).size(), 1u);
  EXPECT_EQ(p.RefsAt(1)[0], 9u);
}

TEST(PeerStateTest, BuddiesDedupAndExcludeSelf) {
  PeerState p(3);
  EXPECT_TRUE(p.AddBuddy(4));
  EXPECT_FALSE(p.AddBuddy(4));
  EXPECT_FALSE(p.AddBuddy(3));  // self
  EXPECT_EQ(p.buddies().size(), 1u);
  p.ClearBuddies();
  EXPECT_TRUE(p.buddies().empty());
}

TEST(PeerStateTest, RemoveBuddyKeepsTheOthersInOrder) {
  PeerState p(1);
  for (PeerId b : {5, 3, 8, 2}) p.AddBuddy(b);
  EXPECT_TRUE(p.RemoveBuddy(3));
  EXPECT_EQ(p.buddies(), (std::vector<PeerId>{5, 8, 2}));
  EXPECT_FALSE(p.RemoveBuddy(3));
  EXPECT_TRUE(p.RemoveBuddy(2));
  EXPECT_TRUE(p.RemoveBuddy(5));
  EXPECT_EQ(p.buddies(), (std::vector<PeerId>{8}));
  EXPECT_TRUE(p.AddBuddy(3));  // a removed buddy can come back, at the end
  EXPECT_EQ(p.buddies(), (std::vector<PeerId>{8, 3}));
}

TEST(PeerStateDeathTest, OutOfRangeLevelAborts) {
  PeerState p(1);
  p.AppendPathBit(1);
  EXPECT_DEATH({ (void)p.RefsAt(0); }, "PGRID_CHECK failed");
  EXPECT_DEATH({ (void)p.RefsAt(2); }, "PGRID_CHECK failed");
  EXPECT_DEATH({ (void)p.PathBit(2); }, "PGRID_CHECK failed");
}

TEST(PeerStateTest, PooledRefsKeepPerLevelOrderAcrossLevels) {
  // Levels share one pooled buffer; interleaved writes to different levels must
  // not bleed into each other, and within-level insertion order must hold (the
  // state digest and the RNG sampling stream both depend on it).
  PeerState p(1);
  for (int i = 0; i < 4; ++i) p.AppendPathBit(i % 2);
  p.SetRefsAt(2, {20, 21});
  p.SetRefsAt(1, {10, 11, 12});
  p.AddRefAt(2, 22);
  p.SetRefsAt(4, {40});
  p.AddRefAt(1, 13);
  p.SetRefsAt(3, {30, 31, 32, 33});
  EXPECT_EQ(p.RefsAt(1), (std::vector<PeerId>{10, 11, 12, 13}));
  EXPECT_EQ(p.RefsAt(2), (std::vector<PeerId>{20, 21, 22}));
  EXPECT_EQ(p.RefsAt(3), (std::vector<PeerId>{30, 31, 32, 33}));
  EXPECT_EQ(p.RefsAt(4), (std::vector<PeerId>{40}));
  EXPECT_EQ(p.TotalRefs(), 12u);
  // Shrinking a middle level shifts the tail levels without corrupting them.
  p.SetRefsAt(2, {99});
  EXPECT_EQ(p.RefsAt(1), (std::vector<PeerId>{10, 11, 12, 13}));
  EXPECT_EQ(p.RefsAt(2), (std::vector<PeerId>{99}));
  EXPECT_EQ(p.RefsAt(3), (std::vector<PeerId>{30, 31, 32, 33}));
  EXPECT_EQ(p.RefsAt(4), (std::vector<PeerId>{40}));
}

TEST(PeerStateTest, RemoveRefAtCompactsWithinLevel) {
  PeerState p(1);
  p.AppendPathBit(0);
  p.AppendPathBit(1);
  p.SetRefsAt(1, {5, 6, 7});
  p.SetRefsAt(2, {8, 9});
  EXPECT_EQ(p.RemoveRefAt(1, 6), 1u);
  EXPECT_EQ(p.RefsAt(1), (std::vector<PeerId>{5, 7}));
  EXPECT_EQ(p.RefsAt(2), (std::vector<PeerId>{8, 9}));
  EXPECT_EQ(p.RemoveRefAt(1, 404), 0u);
  EXPECT_EQ(p.TotalRefs(), 4u);
}

TEST(PeerStateTest, AddBuddyHonorsCap) {
  PeerState p(1);
  EXPECT_TRUE(p.AddBuddy(2, /*max_buddies=*/2));
  EXPECT_TRUE(p.AddBuddy(3, 2));
  EXPECT_FALSE(p.AddBuddy(4, 2));  // at cap
  EXPECT_FALSE(p.AddBuddy(2, 2));  // dup still reports false, not capped
  EXPECT_EQ(p.buddies(), (std::vector<PeerId>{2, 3}));
  EXPECT_TRUE(p.AddBuddy(4));  // cap 0 = unbounded
  EXPECT_EQ(p.buddies().size(), 3u);
}

TEST(PeerStateTest, CopySemanticsAcrossPooledStorage) {
  PeerState p(1);
  p.AppendPathBit(0);
  p.AppendPathBit(1);
  p.SetRefsAt(1, {5, 6});
  p.SetRefsAt(2, {7});
  p.AddBuddy(9);
  PeerState copy = p;
  copy.SetRefsAt(1, {42});
  copy.AddBuddy(10);
  EXPECT_EQ(p.RefsAt(1), (std::vector<PeerId>{5, 6}));
  EXPECT_EQ(p.buddies().size(), 1u);
  EXPECT_EQ(copy.RefsAt(1), (std::vector<PeerId>{42}));
  EXPECT_EQ(copy.RefsAt(2), (std::vector<PeerId>{7}));
  EXPECT_EQ(copy.buddies(), (std::vector<PeerId>{9, 10}));
}

TEST(PeerStateTest, ApproxMemoryBytesGrowsWithState) {
  PeerState p(1);
  const size_t empty_bytes = p.ApproxMemoryBytes();
  p.AppendPathBit(0);
  p.SetRefsAt(1, {1, 2, 3, 4});
  for (PeerId b = 10; b < 20; ++b) p.AddBuddy(b);
  EXPECT_GT(p.ApproxMemoryBytes(), empty_bytes);
}

}  // namespace
}  // namespace pgrid
