// Deterministic random number generation for simulations.
//
// All randomized algorithms in the library draw from an explicitly passed Rng so that
// every experiment is reproducible from a single seed. The generator is a thin wrapper
// around std::mt19937_64 with the sampling helpers the P-Grid algorithms need
// (uniform ints, Bernoulli trials, random bits, subset sampling without replacement).

#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "util/macros.h"

namespace pgrid {

/// Seedable pseudo-random generator used by all randomized algorithms.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Returns a uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  uint64_t UniformInt(uint64_t lo, uint64_t hi) {
    PGRID_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<uint64_t>(lo, hi)(engine_);
  }

  /// Returns a uniform index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n) {
    PGRID_CHECK_GT(n, 0u);
    return static_cast<size_t>(UniformInt(0, n - 1));
  }

  /// Returns a uniform double in [0, 1).
  double UniformDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Returns a uniform random bit (0 or 1).
  int Bit() { return static_cast<int>(UniformInt(0, 1)); }

  /// Removes and returns one uniformly chosen element of `v`.
  /// This matches the paper's random_select(refs): "returns a random element from refs
  /// and removes it from refs". Requires v non-empty.
  template <typename T>
  T TakeRandom(std::vector<T>* v) {
    PGRID_CHECK(v != nullptr && !v->empty());
    size_t i = UniformIndex(v->size());
    T out = std::move((*v)[i]);
    (*v)[i] = std::move(v->back());
    v->pop_back();
    return out;
  }

  /// Returns min(k, v.size()) distinct elements sampled uniformly without replacement.
  /// This matches the paper's random_select(k, refs) set sampler.
  template <typename T>
  std::vector<T> SampleWithoutReplacement(std::vector<T> v, size_t k) {
    if (v.size() <= k) return v;
    // Partial Fisher-Yates: the first k slots become the sample.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + UniformIndex(v.size() - i);
      std::swap(v[i], v[j]);
    }
    v.resize(k);
    return v;
  }

  /// Shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    PGRID_CHECK(v != nullptr);
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Splits off an independent child generator (for parallel or per-peer streams).
  Rng Fork() { return Rng(engine_()); }

  /// Reseeds this generator in place, as if freshly constructed with `seed`.
  /// Lets a long-lived consumer (e.g. a SearchEngine bound to one Rng) switch to a
  /// counter-derived stream per work item without being re-created.
  void Reseed(uint64_t seed) { engine_.seed(seed); }

  /// Access to the underlying engine for std distributions not wrapped here.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// SplitMix64 finalizer: a full-avalanche 64-bit mix. Used for seed-stream
/// splitting below and by the order-independent set digests (sim/digest.h):
/// those sum per-element hashes, and summing raw FNV-1a values is
/// unsafe -- FNV folds a trailing u64 field as (h ^ v) * p^8, linear enough
/// that version deltas on two elements cancel across the sum with probability
/// ~1/8. Finalizing each element hash first destroys that linearity.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Derives the seed of sub-stream `index` of a master seed (SplitMix64 finalizer,
/// the standard counter-based stream-splitting mix). Stream i can be derived
/// without drawing streams 0..i-1 first, which is what makes parallel workloads
/// deterministic regardless of execution order: work item i always runs on
/// Rng(DeriveStreamSeed(seed, i)) no matter which thread picks it up.
inline uint64_t DeriveStreamSeed(uint64_t master_seed, uint64_t index) {
  return Mix64(master_seed + 0x9e3779b97f4a7c15ull * (index + 1));
}

}  // namespace pgrid
