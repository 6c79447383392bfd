#include "sim/meeting_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

namespace pgrid {
namespace {

TEST(MeetingSchedulerTest, PairsAreDistinctAndInRange) {
  Rng rng(1);
  MeetingScheduler sched(10);
  for (int i = 0; i < 1000; ++i) {
    Meeting m = sched.Next(&rng);
    EXPECT_NE(m.a, m.b);
    EXPECT_LT(m.a, 10u);
    EXPECT_LT(m.b, 10u);
  }
}

TEST(MeetingSchedulerTest, TwoPeersAlwaysMeetEachOther) {
  Rng rng(2);
  MeetingScheduler sched(2);
  for (int i = 0; i < 50; ++i) {
    Meeting m = sched.Next(&rng);
    EXPECT_EQ(m.a + m.b, 1u);
  }
}

TEST(MeetingSchedulerTest, UniformCoverageOverPeers) {
  Rng rng(3);
  const size_t n = 20;
  MeetingScheduler sched(n);
  std::vector<size_t> counts(n, 0);
  const int meetings = 20000;
  for (int i = 0; i < meetings; ++i) {
    Meeting m = sched.Next(&rng);
    ++counts[m.a];
    ++counts[m.b];
  }
  const double expected = 2.0 * meetings / n;
  for (size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.15);
  }
}

TEST(MeetingSchedulerTest, SetNumPeersExtendsRange) {
  Rng rng(5);
  MeetingScheduler sched(4);
  sched.SetNumPeers(100);
  bool saw_new_peer = false;
  for (int i = 0; i < 500; ++i) {
    Meeting m = sched.Next(&rng);
    EXPECT_LT(m.a, 100u);
    EXPECT_LT(m.b, 100u);
    if (m.a >= 4 || m.b >= 4) saw_new_peer = true;
  }
  EXPECT_TRUE(saw_new_peer);
}

TEST(MeetingSchedulerDeathTest, SetNumPeersBelowTwoAborts) {
  MeetingScheduler sched(4);
  EXPECT_DEATH({ sched.SetNumPeers(1); }, "PGRID_CHECK failed");
}

TEST(MeetingSchedulerTest, NextBatchEqualsRepeatedNext) {
  // The parallel builder's contract: consuming the meeting stream through
  // NextBatch must advance the RNG exactly as repeated Next() calls do.
  MeetingScheduler serial(80);
  MeetingScheduler batched(80);
  Rng r1(11), r2(11);
  std::vector<Meeting> expected;
  for (int i = 0; i < 500; ++i) expected.push_back(serial.Next(&r1));
  std::vector<Meeting> got;
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{428}}) {
    batched.NextBatch(&r2, chunk, &got);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, expected[i].a) << "i=" << i;
    EXPECT_EQ(got[i].b, expected[i].b) << "i=" << i;
  }
}

TEST(MeetingSchedulerTest, NextBatchAppendsToExistingOutput) {
  MeetingScheduler sched(10);
  Rng rng(3);
  std::vector<Meeting> out;
  sched.NextBatch(&rng, 4, &out);
  sched.NextBatch(&rng, 3, &out);
  EXPECT_EQ(out.size(), 7u);
}

TEST(MeetingSchedulerTest, DeterministicGivenSeed) {
  MeetingScheduler s1(50), s2(50);
  Rng r1(7), r2(7);
  for (int i = 0; i < 100; ++i) {
    Meeting a = s1.Next(&r1);
    Meeting b = s2.Next(&r2);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
  }
}

}  // namespace
}  // namespace pgrid
