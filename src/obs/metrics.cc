#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/macros.h"

namespace pgrid {
namespace obs {

namespace {

/// A name denotes exactly one instrument kind: asking for it as another kind is
/// a programming error, reported with the name before the check aborts.
void CheckKind(bool name_is_free, const std::string& name, const char* kind) {
  if (!name_is_free) {
    std::fprintf(stderr,
                 "metric \"%s\" requested as a %s already exists as another kind\n",
                 name.c_str(), kind);
  }
  PGRID_CHECK(name_is_free);
}

/// Atomic min/max update via CAS (fetch_min/fetch_max arrive only in C++26).
void AtomicMin(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (v < cur && !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* a, uint64_t v) {
  uint64_t cur = a->load(std::memory_order_relaxed);
  while (v > cur && !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  PGRID_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) PGRID_CHECK_LT(bounds_[i - 1], bounds_[i]);
}

void Histogram::Record(uint64_t sample) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), sample);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());  // == size: overflow
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  AtomicMin(&min_, sample);
  AtomicMax(&max_, sample);
}

uint64_t Histogram::min() const {
  const uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

uint64_t Histogram::max() const { return max_.load(std::memory_order_relaxed); }

uint64_t Histogram::Quantile(double q) const {
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; q=0 maps to the first sample.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      const uint64_t bound = i < bounds_.size() ? bounds_[i] : max();
      return std::clamp(bound, min(), max());
    }
  }
  return max();
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<uint64_t> LatencyBoundsUs() {
  return {1,    2,    5,     10,    20,    50,     100,    200,    500,
          1000, 2000, 5000,  10000, 20000, 50000,  100000, 200000, 500000,
          1000000, 2000000, 5000000, 10000000};
}

std::vector<uint64_t> CountBounds() {
  return {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512, 1024};
}

std::vector<uint64_t> SizeBoundsBytes() {
  std::vector<uint64_t> out;
  for (uint64_t b = 64; b <= (64u << 20); b *= 4) out.push_back(b);
  return out;
}

std::vector<uint64_t> BackoffBoundsMs() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000};
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckKind(!gauges_.contains(name) && !histograms_.contains(name), name, "counter");
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckKind(!counters_.contains(name) && !histograms_.contains(name), name, "gauge");
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckKind(!counters_.contains(name) && !gauges_.contains(name), name, "histogram");
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.emplace_back(name, c->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.gauges.emplace_back(name, g->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.buckets = h->bucket_counts();
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    hs.p50 = h->Quantile(0.50);
    hs.p95 = h->Quantile(0.95);
    hs.p99 = h->Quantile(0.99);
    out.histograms.push_back(std::move(hs));
  }
  return out;
}

}  // namespace obs
}  // namespace pgrid
