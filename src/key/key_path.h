// Binary key paths (Sec. 2 of the paper).
//
// Index terms are binary strings p1...pn over {0,1}. A key k corresponds to the value
// val(k) = sum_i 2^-i * p_i and the interval I(k) = [val(k), val(k) + 2^-n) in [0,1].
// Each peer is responsible for one path; search keys are paths too. This class stores
// paths as packed bits and provides the prefix algebra used by the P-Grid algorithms:
// common prefixes, sub-paths, appends, complements, and interval arithmetic.

#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace pgrid {

class Rng;

/// A half-open subinterval [lo, hi) of the unit interval [0, 1].
struct Interval {
  double lo = 0.0;
  double hi = 1.0;

  /// True iff `x` lies inside [lo, hi).
  bool Contains(double x) const { return x >= lo && x < hi; }
  double Width() const { return hi - lo; }

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// An immutable-by-convention binary string of 0/1 bits with prefix algebra.
///
/// Bits are indexed from 0 (the paper indexes from 1; all conversions are documented
/// at call sites). The empty path represents responsibility for the whole key space.
class KeyPath {
 public:
  /// Constructs the empty path (length 0, interval [0,1)).
  KeyPath() = default;
  KeyPath(const KeyPath& other);
  KeyPath& operator=(const KeyPath& other);
  KeyPath(KeyPath&& other) noexcept;
  KeyPath& operator=(KeyPath&& other) noexcept;
  ~KeyPath();

  /// Parses a path from a string of '0'/'1' characters. Empty string is the empty
  /// path. Any other character is an InvalidArgument error.
  static Result<KeyPath> FromString(std::string_view bits);

  /// Builds a fixed-width path from the low `length` bits of `value`, most significant
  /// of those bits first. Requires length <= 64. Useful for enumerating all keys of a
  /// given length: FromUint64(i, L) for i in [0, 2^L).
  static KeyPath FromUint64(uint64_t value, size_t length);

  /// Builds a uniformly random path of the given length.
  static KeyPath Random(Rng* rng, size_t length);

  /// Builds a path from its packed form (see AppendPackedBytes). Requires
  /// bytes.size() == ceil(length / 8). Bits past `length` in the last byte are
  /// ignored.
  static KeyPath FromPackedBytes(std::string_view bytes, size_t length);

  size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// Returns bit i (0 or 1), 0-indexed. Requires i < length().
  int bit(size_t i) const;

  /// Appends one bit in place. `b` must be 0 or 1.
  void PushBack(int b);

  /// Removes the last bit. Requires non-empty.
  void PopBack();

  /// Returns a copy with one bit appended.
  KeyPath Append(int b) const;

  /// Returns a copy with another path's bits appended.
  KeyPath Concat(const KeyPath& suffix) const;

  /// Returns the prefix of the given length. Requires len <= length().
  KeyPath Prefix(size_t len) const;

  /// Returns the sub-path of `len` bits starting at 0-indexed position `pos`.
  /// Requires pos + len <= length(). (The paper's sub_path(p, l, k) with 1-indexed
  /// inclusive bounds is Sub(l - 1, k - l + 1).)
  KeyPath Sub(size_t pos, size_t len) const;

  /// Returns the suffix starting at 0-indexed position `pos` (empty if pos >= length).
  KeyPath SuffixFrom(size_t pos) const;

  /// Length of the longest common prefix with `other`.
  size_t CommonPrefixLength(const KeyPath& other) const;

  /// True iff this path is a (not necessarily proper) prefix of `other`.
  bool IsPrefixOf(const KeyPath& other) const {
    if (length_ > other.length_) return false;
    if ((heap_words_ | other.heap_words_) == 0) {
      // Both inline: compare the first length_ bits of the two words.
      const uint64_t mask = length_ == 64 ? ~uint64_t{0} : (uint64_t{1} << length_) - 1;
      return ((inline_word_ ^ other.inline_word_) & mask) == 0;
    }
    return CommonPrefixLength(other) == length_;
  }

  /// val(k) = sum_{i=1..n} 2^-i p_i, mapping the path to [0, 1).
  double Value() const;

  /// I(k) = [val(k), val(k) + 2^-n). The empty path maps to [0, 1).
  /// Double precision limits this to paths of at most ~52 bits; for longer paths the
  /// interval degenerates (width underflows). The prefix algebra (IsPrefixOf,
  /// PathsOverlap) is exact at any length and is what the algorithms use; intervals
  /// exist for explainability and the paper's val()/I() notation.
  Interval ToInterval() const;

  /// True iff a point key with value `v` falls in this path's interval.
  bool CoversValue(double v) const { return ToInterval().Contains(v); }

  /// Renders the path as a string of '0'/'1' ("<empty>" is rendered as "").
  std::string ToString() const;

  /// Appends the packed form to `out`: ceil(length / 8) bytes, bit i at byte
  /// i / 8, position i % 8 (LSB first), bits past the length written as 0.
  /// This is the wire and storage encoding (net/wire.h).
  void AppendPackedBytes(std::string* out) const;

  /// Lexicographic comparison; a proper prefix orders before its extensions.
  std::strong_ordering operator<=>(const KeyPath& other) const;
  bool operator==(const KeyPath& other) const;

  /// Hash suitable for unordered containers (see KeyPathHash).
  size_t Hash() const;

  /// Approximate heap bytes owned by this path (the spilled packed-bit words,
  /// counted at capacity; 0 for the inline representation, i.e. any path of at
  /// most 64 bits). Excludes sizeof(*this), so a containing object can report
  /// its own footprint without double counting. Feeds the storage-cost numbers
  /// of the scaling benches.
  size_t ApproxMemoryBytes() const { return size_t{heap_words_} * sizeof(uint64_t); }

 private:
  static constexpr size_t kBitsPerWord = 64;

  /// Pointer to the packed-bit words of the active representation.
  const uint64_t* words() const { return heap_words_ != 0 ? heap_ : &inline_word_; }
  uint64_t* words() { return heap_words_ != 0 ? heap_ : &inline_word_; }

  /// Number of words carrying canonical bits: ceil(length / 64).
  size_t word_count() const {
    return (size_t{length_} + kBitsPerWord - 1) / kBitsPerWord;
  }

  /// Builds an all-zero path of the given length in the right representation.
  static KeyPath MakeZeroed(size_t length);

  void Swap(KeyPath& other) noexcept;

  // Small-buffer representation: bit i lives at word i / 64, bit position i % 64,
  // LSB-first. Paths of at most 64 bits (every grid path in practice) store their
  // single word inline with no heap allocation; longer paths own a heap array of
  // heap_words_ words (the capacity; words past word_count() are kept zero).
  // heap_words_ == 0 selects the inline representation. All bits at positions
  // >= length_ are kept zero (canonical form) in either representation, so
  // equality and hashing operate on whole words without masking.
  union {
    uint64_t inline_word_ = 0;
    uint64_t* heap_;
  };
  uint32_t heap_words_ = 0;
  uint32_t length_ = 0;
};

static_assert(sizeof(KeyPath) == 16, "KeyPath must stay two machine words");

/// Complement of a single bit: 0 <-> 1 (the paper's p^- = (p + 1) mod 2).
inline int ComplementBit(int b) { return 1 - b; }

/// True iff the intervals of two paths overlap, i.e. one is a prefix of the other.
/// A peer with path `a` is (co-)responsible for a key `b` iff PathsOverlap(a, b).
inline bool PathsOverlap(const KeyPath& a, const KeyPath& b) {
  // Only the shorter path can be a prefix of the other (equal paths are both).
  return a.length() <= b.length() ? a.IsPrefixOf(b) : b.IsPrefixOf(a);
}

/// The reference property of Sec. 2: a peer with path `path` may keep a peer
/// with path `target` among its references at 1-indexed `level` iff both paths
/// reach that level, agree on the bits above it and differ at it.
inline bool CanReference(const KeyPath& path, size_t level, const KeyPath& target) {
  return path.length() >= level && target.length() >= level &&
         path.CommonPrefixLength(target) + 1 == level;
}

/// A lookup key into the subtree `path` references at 1-indexed `level`: the
/// bits of `path` above that level, the complement of its bit there, then
/// random bits up to `length`. Requires 1 <= level <= path.length().
KeyPath ComplementaryKey(const KeyPath& path, size_t level, size_t length, Rng* rng);

/// Hash functor for unordered containers keyed by KeyPath.
struct KeyPathHash {
  size_t operator()(const KeyPath& k) const { return k.Hash(); }
};

std::ostream& operator<<(std::ostream& os, const KeyPath& k);

}  // namespace pgrid
