// The wave schedule's whole contract (core/wave_schedule.h): a batch of
// meetings is partitioned into waves such that
//   (1) validity      -- no two meetings in a wave share an endpoint,
//   (2) completeness  -- every meeting is scheduled exactly once,
//   (3) determinism   -- the waves are a pure function of the batch,
//   (4) first fit     -- each meeting sits in the lowest wave that holds no
//                        earlier meeting at either of its peers, so
//                        waves <= 2 * max_degree - 1.
// Parallel edges (the same pair drawn twice in one batch) are covered too.

#include "core/wave_schedule.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace pgrid {
namespace {

/// Renders the schedule as "w0: 1 4 7 | w1: 0 2 ..." for equality comparison.
std::string Render(const WaveSchedule& s) {
  std::ostringstream out;
  for (size_t w = 0; w < s.num_waves(); ++w) {
    out << "w" << w << ":";
    for (uint32_t e : s.wave(w)) out << " " << e;
    out << " | ";
  }
  return out.str();
}

/// Asserts validity + completeness for `edges`, returning the wave count.
size_t CheckProper(const WaveSchedule& s, const std::vector<WaveEdge>& edges) {
  EXPECT_EQ(s.num_edges(), edges.size());
  std::vector<int> seen(edges.size(), 0);
  size_t total = 0;
  for (size_t w = 0; w < s.num_waves(); ++w) {
    std::set<PeerId> endpoints;
    EXPECT_FALSE(s.wave(w).empty()) << "empty wave " << w;
    for (uint32_t e : s.wave(w)) {
      EXPECT_LT(e, edges.size());
      if (e >= edges.size()) continue;
      ++seen[e];
      ++total;
      // Validity: both endpoints unused so far within this wave.
      EXPECT_TRUE(endpoints.insert(edges[e].a).second)
          << "wave " << w << " reuses peer " << edges[e].a;
      EXPECT_TRUE(endpoints.insert(edges[e].b).second)
          << "wave " << w << " reuses peer " << edges[e].b;
    }
    // Items inside a wave keep input order (part of the slot contract).
    EXPECT_TRUE(std::is_sorted(s.wave(w).begin(), s.wave(w).end()));
  }
  EXPECT_EQ(total, edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(seen[e], 1) << "edge " << e << " scheduled " << seen[e] << " times";
  }
  return s.num_waves();
}

size_t MaxDegree(const std::vector<WaveEdge>& edges) {
  std::vector<size_t> deg;
  for (const WaveEdge& e : edges) {
    const size_t need = std::max(e.a, e.b) + 1;
    if (deg.size() < need) deg.resize(need, 0);
    ++deg[e.a];
    ++deg[e.b];
  }
  return deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
}

/// A random batch the way the builder produces one: distinct pairs, possibly
/// repeated across draws (multigraph). `simple` dedups the pairs.
std::vector<WaveEdge> RandomBatch(Rng* rng, size_t num_peers, size_t count,
                                  bool simple) {
  std::vector<WaveEdge> edges;
  std::set<std::pair<PeerId, PeerId>> used;
  while (edges.size() < count) {
    const PeerId a = static_cast<PeerId>(rng->UniformIndex(num_peers));
    PeerId b = static_cast<PeerId>(rng->UniformIndex(num_peers));
    if (a == b) continue;
    if (simple) {
      const auto key = std::minmax(a, b);
      if (!used.insert(key).second) continue;
    }
    edges.push_back({a, b});
  }
  return edges;
}

TEST(WaveScheduleTest, EmptyBatchHasNoWaves) {
  WaveSchedule s;
  s.Color({});
  EXPECT_EQ(s.num_waves(), 0u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_EQ(s.max_degree(), 0u);
}

TEST(WaveScheduleTest, DisjointMeetingsShareOneWave) {
  WaveSchedule s;
  s.Color({{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  EXPECT_EQ(s.num_waves(), 1u);
  EXPECT_EQ(s.wave(0).size(), 4u);
  EXPECT_EQ(s.max_degree(), 1u);
}

TEST(WaveScheduleTest, StarNeedsOneWavePerMeeting) {
  // Every meeting shares peer 0; the waves cannot do better than width 1.
  WaveSchedule s;
  s.Color({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  std::vector<WaveEdge> edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  EXPECT_EQ(CheckProper(s, edges), 4u);
  EXPECT_EQ(s.max_degree(), 4u);
}

TEST(WaveScheduleTest, OddCycleNeedsMaxDegreePlusOne) {
  // A triangle has max degree 2 but chromatic index 3.
  const std::vector<WaveEdge> edges = {{0, 1}, {1, 2}, {2, 0}};
  WaveSchedule s;
  s.Color(edges);
  EXPECT_EQ(CheckProper(s, edges), 3u);
  EXPECT_EQ(s.max_degree(), 2u);
}

TEST(WaveScheduleTest, SimpleBatchesTakeTheFirstFreeWave) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t peers = 4 + rng.UniformIndex(60);
    const size_t max_edges = peers * (peers - 1) / 2;
    const size_t count = 1 + rng.UniformIndex(std::min<size_t>(max_edges, 160));
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, peers, count, /*simple=*/true);
    WaveSchedule s;
    s.Color(edges);
    const size_t waves = CheckProper(s, edges);
    EXPECT_EQ(s.max_degree(), MaxDegree(edges));
    EXPECT_LE(waves, 2 * s.max_degree() - 1)
        << "trial " << trial << ": " << waves << " waves for max degree "
        << s.max_degree();

    // Replay first fit in input order: every edge must sit in the lowest wave
    // that holds no earlier edge at either of its peers.
    std::vector<size_t> wave_of(edges.size());
    for (size_t w = 0; w < s.num_waves(); ++w) {
      for (uint32_t e : s.wave(w)) wave_of[e] = w;
    }
    std::set<std::pair<PeerId, size_t>> taken;  // (peer, wave) of earlier edges
    for (size_t e = 0; e < edges.size(); ++e) {
      size_t lowest = 0;
      while (taken.count({edges[e].a, lowest}) > 0 ||
             taken.count({edges[e].b, lowest}) > 0) {
        ++lowest;
      }
      EXPECT_EQ(wave_of[e], lowest) << "trial " << trial << ", edge " << e;
      taken.insert({edges[e].a, wave_of[e]});
      taken.insert({edges[e].b, wave_of[e]});
    }
  }
}

TEST(WaveScheduleTest, BuilderShapedBatchesRespectTheVizingBound) {
  // The shape the builder actually colors: batch_size meetings over a much
  // larger community, where repeats are rare but possible. First fit does not
  // guarantee Vizing's max_degree + 1 in general, but on this shape it stays
  // within it; a wave-count regression shows here first.
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, 2000, 256, /*simple=*/true);
    WaveSchedule s;
    s.Color(edges);
    CheckProper(s, edges);
    EXPECT_LE(s.num_waves(), s.max_degree() + 1);
  }
}

TEST(WaveScheduleTest, ParallelEdgesStayValidWithinTheMultigraphBound) {
  // A doubled triangle: max degree 4, but 6 waves are required (each copy of
  // each triangle edge needs its own color) -- Vizing's multigraph bound
  // max_degree + max_multiplicity, not max_degree + 1.
  const std::vector<WaveEdge> edges = {{0, 1}, {1, 2}, {2, 0},
                                       {0, 1}, {1, 2}, {2, 0}};
  WaveSchedule s;
  s.Color(edges);
  EXPECT_EQ(CheckProper(s, edges), 6u);
  EXPECT_EQ(s.max_degree(), 4u);
  EXPECT_LE(s.num_waves(), s.max_degree() + 2u);  // degree + multiplicity
}

TEST(WaveScheduleTest, RandomMultigraphBatchesAreProper) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t peers = 3 + rng.UniformIndex(12);  // small: force repeats
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, peers, 64, /*simple=*/false);
    WaveSchedule s;
    s.Color(edges);
    CheckProper(s, edges);
    // First fit's bound holds for multigraphs too: an edge meets at most
    // 2 * (max_degree - 1) others.
    EXPECT_LE(s.num_waves(), 2 * s.max_degree() - 1);
  }
}

TEST(WaveScheduleTest, ScheduleIsAPureFunctionOfTheBatch) {
  Rng rng(5);
  const std::vector<WaveEdge> edges = RandomBatch(&rng, 500, 256, false);

  WaveSchedule a;
  a.Color(edges);
  const std::string first = Render(a);
  ASSERT_FALSE(first.empty());

  // Same input on the same (reused) instance and on a fresh instance.
  for (int i = 0; i < 3; ++i) {
    a.Color(edges);
    EXPECT_EQ(Render(a), first) << "reused instance, round " << i;
  }
  WaveSchedule b;
  b.Color(edges);
  EXPECT_EQ(Render(b), first) << "fresh instance";

  // Interleaving unrelated batches must not leak state into the result.
  WaveSchedule c;
  c.Color(RandomBatch(&rng, 50, 64, false));
  c.Color(edges);
  EXPECT_EQ(Render(c), first) << "after an unrelated batch";
}

TEST(WaveScheduleTest, InputOrderIsPartOfTheFunction) {
  // The schedule is a function of the *list*, order included -- reversing the
  // batch may give different waves, and that is fine as long as each run is
  // individually proper. (The builder always presents items in schedule order.)
  Rng rng(13);
  const std::vector<WaveEdge> edges = RandomBatch(&rng, 40, 80, false);
  std::vector<WaveEdge> reversed(edges.rbegin(), edges.rend());
  WaveSchedule s;
  s.Color(edges);
  CheckProper(s, edges);
  s.Color(reversed);
  CheckProper(s, reversed);
}

TEST(WaveScheduleTest, ReusedInstanceHandlesGrowingPeerIds) {
  // Dense-id scratch is stamped, not cleared; feeding batches over disjoint,
  // ascending PeerId ranges must not confuse it.
  WaveSchedule s;
  for (uint32_t base : {0u, 100000u, 5u, 70000u}) {
    std::vector<WaveEdge> edges;
    for (uint32_t i = 0; i < 16; ++i) {
      edges.push_back({base + i, base + 16 + i});
      edges.push_back({base + i, base + 32 + i});
    }
    s.Color(edges);
    CheckProper(s, edges);
    EXPECT_LE(s.num_waves(), s.max_degree() + 1);
  }
}

}  // namespace
}  // namespace pgrid
