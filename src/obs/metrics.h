// Thread-safe metrics registry: the single measurement substrate of the system.
//
// Every quantity the paper reports (exchange counts, search messages, update
// fan-out) and every operational signal of a deployment (RPC latency, bytes on the
// wire, error counts) is recorded here. Three instrument kinds:
//
//   Counter    monotonic uint64, lock-free increments.
//   Gauge      signed point-in-time value (queue depths, entry counts).
//   Histogram  fixed upper-bound buckets over uint64 samples with an overflow
//              bucket, plus exact count/sum/min/max and quantile accessors.
//
// Instruments are created on first use (GetCounter et al.) and live as long as the
// registry; returned pointers are stable, so hot paths cache them once and then
// record without any lookup or lock. Snapshot() captures a consistent-enough view
// for the exporters (obs/export.h); per-instrument reads are individually atomic.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pgrid {
namespace obs {

/// Monotonic counter. All operations are lock-free.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative samples (latencies in microseconds,
/// sizes in bytes, hop counts, ...). A sample lands in the first bucket whose
/// upper bound is >= the sample; larger samples land in the overflow bucket.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<uint64_t> bounds);

  void Record(uint64_t sample);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample; 0 when empty.
  uint64_t min() const;
  uint64_t max() const;

  /// Value at quantile q in [0, 1]: the upper bound of the bucket holding the
  /// q-th sample, clamped to the observed [min, max] so single samples and
  /// overflow-only histograms report exact extremes. 0 when empty.
  uint64_t Quantile(double q) const;

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket counts; the last element is the overflow bucket.
  std::vector<uint64_t> bucket_counts() const;

 private:
  const std::vector<uint64_t> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1 (overflow last)
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Default bucket bounds for latency-like samples in microseconds (1us .. 10s).
std::vector<uint64_t> LatencyBoundsUs();

/// Default bucket bounds for small cardinalities (hops, fan-outs, depths).
std::vector<uint64_t> CountBounds();

/// Default bucket bounds for payload sizes in bytes (64 B .. 64 MiB).
std::vector<uint64_t> SizeBoundsBytes();

/// Default bucket bounds for retry backoff delays in milliseconds (1 ms .. 60 s).
std::vector<uint64_t> BackoffBoundsMs();

/// Point-in-time copy of one histogram, with quantiles precomputed.
struct HistogramSnapshot {
  std::string name;
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1, overflow last
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

/// Point-in-time copy of a whole registry (input of the exporters).
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;     // sorted by name
  std::vector<HistogramSnapshot> histograms;               // sorted by name
};

/// Named instruments, created on first use. Thread-safe; returned pointers are
/// never null and stay valid for the registry's lifetime. A name denotes exactly
/// one instrument kind: requesting an existing name as a different kind is a
/// programming error and aborts, naming the instrument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies on first creation only; later calls return the existing
  /// histogram regardless of the bounds passed.
  Histogram* GetHistogram(const std::string& name, std::vector<uint64_t> bounds);

  /// The counter named `name`, or null if nothing has created it. Unlike
  /// GetCounter this never creates an instrument, so readers leave the set of
  /// exported instruments as the writers made it.
  const Counter* FindCounter(const std::string& name) const;

  RegistrySnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace pgrid
