#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace pgrid {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h({1, 10, 100});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0u);
}

TEST(HistogramTest, SingleSampleQuantilesAreExact) {
  Histogram h({1, 10, 100});
  h.Record(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 7u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  // The bucket bound is 10, but clamping to [min, max] makes one sample exact.
  EXPECT_EQ(h.Quantile(0.0), 7u);
  EXPECT_EQ(h.Quantile(0.5), 7u);
  EXPECT_EQ(h.Quantile(1.0), 7u);
}

TEST(HistogramTest, AllSamplesInOverflowBucket) {
  Histogram h({1, 10});
  h.Record(500);
  h.Record(900);
  // Both beyond the last bound: the overflow bucket holds them, and quantiles
  // clamp to the observed max instead of reporting a meaningless bound.
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(h.Quantile(0.5), 900u);
  EXPECT_EQ(h.Quantile(0.99), 900u);
  EXPECT_EQ(h.min(), 500u);
  EXPECT_EQ(h.max(), 900u);
}

TEST(HistogramTest, BucketAssignmentIsInclusiveUpperBound) {
  Histogram h({1, 2, 4});
  h.Record(0);  // -> bucket 0 (le 1)
  h.Record(1);  // -> bucket 0 (le 1)
  h.Record(2);  // -> bucket 1 (le 2)
  h.Record(3);  // -> bucket 2 (le 4)
  h.Record(4);  // -> bucket 2 (le 4)
  h.Record(5);  // -> overflow
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(HistogramTest, MedianOfUniformSamples) {
  Histogram h({10, 20, 30, 40});
  for (uint64_t v = 1; v <= 40; ++v) h.Record(v);
  // Sample 20 of 40 sits in the (10, 20] bucket.
  EXPECT_EQ(h.Quantile(0.5), 20u);
  EXPECT_EQ(h.Quantile(1.0), 40u);
}

TEST(MetricsRegistryTest, FindCounterNeverCreates) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("x"), nullptr);
  EXPECT_TRUE(reg.Snapshot().counters.empty());
  reg.GetGauge("g");
  EXPECT_EQ(reg.FindCounter("g"), nullptr);  // a gauge is not a counter
  Counter* x = reg.GetCounter("x");
  x->Increment(3);
  ASSERT_EQ(reg.FindCounter("x"), x);
  EXPECT_EQ(reg.FindCounter("x")->value(), 3u);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  Histogram* h1 = reg.GetHistogram("h", {1, 2});
  Histogram* h2 = reg.GetHistogram("h", {5, 6, 7});  // bounds ignored after creation
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds(), (std::vector<uint64_t>{1, 2}));
}

TEST(MetricsRegistryDeathTest, KindCollisionAbortsNamingTheInstrument) {
  MetricsRegistry reg;
  reg.GetCounter("name");
  reg.GetHistogram("bins", {1});
  EXPECT_DEATH(reg.GetGauge("name"), "metric \"name\" requested as a gauge");
  EXPECT_DEATH(reg.GetHistogram("name", {1}), "metric \"name\" requested as a histogram");
  EXPECT_DEATH(reg.GetCounter("bins"), "metric \"bins\" requested as a counter");
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("zulu")->Increment();
  reg.GetCounter("alpha")->Increment(2);
  reg.GetGauge("mid")->Set(-1);
  reg.GetHistogram("hist", {1, 2})->Record(1);
  RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "zulu");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -1);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "hist");
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].p50, 1u);
}

TEST(MetricsRegistryTest, ConcurrentRecordingSumsExactly) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hammered");
  Histogram* h = reg.GetHistogram("latency", CountBounds());
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(t));  // each thread records its own id
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c->value(), kThreads * kPerThread);
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  // Sum of thread ids 0..7, each kPerThread times.
  EXPECT_EQ(h->sum(), kPerThread * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 7u);
  // Every thread's bucket holds exactly its own samples.
  uint64_t total = 0;
  for (uint64_t b : h->bucket_counts()) total += b;
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(MetricsRegistryTest, ConcurrentGetOfTheSameNameIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Counter* c = reg.GetCounter("shared");
      c->Increment();
      seen[t] = c;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), static_cast<uint64_t>(kThreads));
}

TEST(DefaultBoundsTest, AreNonEmptyAndStrictlyIncreasing) {
  for (const std::vector<uint64_t>& bounds :
       {LatencyBoundsUs(), CountBounds(), SizeBoundsBytes()}) {
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace pgrid
