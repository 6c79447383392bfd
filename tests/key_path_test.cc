#include "key/key_path.h"

#include <gtest/gtest.h>

#include <compare>
#include <set>
#include <string>
#include <unordered_set>

#include "util/rng.h"

namespace pgrid {
namespace {

KeyPath P(const std::string& bits) {
  auto r = KeyPath::FromString(bits);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.value();
}

TEST(KeyPathTest, EmptyPath) {
  KeyPath k;
  EXPECT_TRUE(k.empty());
  EXPECT_EQ(k.length(), 0u);
  EXPECT_EQ(k.ToString(), "");
  EXPECT_EQ(k.Value(), 0.0);
  EXPECT_EQ(k.ToInterval(), (Interval{0.0, 1.0}));
}

TEST(KeyPathTest, FromStringRoundTrip) {
  for (const char* s : {"", "0", "1", "01", "10", "0110", "111000111000",
                        "010101010101010101010101010101"}) {
    EXPECT_EQ(P(s).ToString(), s);
  }
}

TEST(KeyPathTest, FromStringRejectsBadCharacters) {
  EXPECT_FALSE(KeyPath::FromString("01x0").ok());
  EXPECT_FALSE(KeyPath::FromString("2").ok());
  EXPECT_FALSE(KeyPath::FromString(" 01").ok());
  EXPECT_EQ(KeyPath::FromString("01a").status().code(), StatusCode::kInvalidArgument);
}

TEST(KeyPathTest, BitAccess) {
  KeyPath k = P("0110");
  EXPECT_EQ(k.bit(0), 0);
  EXPECT_EQ(k.bit(1), 1);
  EXPECT_EQ(k.bit(2), 1);
  EXPECT_EQ(k.bit(3), 0);
}

TEST(KeyPathTest, PushPopBack) {
  KeyPath k;
  k.PushBack(1);
  k.PushBack(0);
  k.PushBack(1);
  EXPECT_EQ(k.ToString(), "101");
  k.PopBack();
  EXPECT_EQ(k.ToString(), "10");
  k.PopBack();
  k.PopBack();
  EXPECT_TRUE(k.empty());
}

TEST(KeyPathTest, PopBackClearsBitForCanonicalEquality) {
  KeyPath a = P("11");
  a.PopBack();
  a.PushBack(0);
  EXPECT_EQ(a, P("10"));
  EXPECT_EQ(a.Hash(), P("10").Hash());
}

TEST(KeyPathTest, AppendAndConcat) {
  KeyPath k = P("01");
  EXPECT_EQ(k.Append(1).ToString(), "011");
  EXPECT_EQ(k.ToString(), "01");  // Append does not mutate
  EXPECT_EQ(k.Concat(P("110")).ToString(), "01110");
  EXPECT_EQ(KeyPath().Concat(P("1")).ToString(), "1");
}

TEST(KeyPathTest, PrefixAndSub) {
  KeyPath k = P("110010");
  EXPECT_EQ(k.Prefix(0).ToString(), "");
  EXPECT_EQ(k.Prefix(3).ToString(), "110");
  EXPECT_EQ(k.Prefix(6).ToString(), "110010");
  EXPECT_EQ(k.Sub(2, 3).ToString(), "001");
  EXPECT_EQ(k.Sub(0, 0).ToString(), "");
  EXPECT_EQ(k.SuffixFrom(4).ToString(), "10");
  EXPECT_EQ(k.SuffixFrom(6).ToString(), "");
  EXPECT_EQ(k.SuffixFrom(99).ToString(), "");
}

TEST(KeyPathTest, CommonPrefixLength) {
  EXPECT_EQ(P("0101").CommonPrefixLength(P("0100")), 3u);
  EXPECT_EQ(P("0101").CommonPrefixLength(P("0101")), 4u);
  EXPECT_EQ(P("0101").CommonPrefixLength(P("01")), 2u);
  EXPECT_EQ(P("1").CommonPrefixLength(P("0")), 0u);
  EXPECT_EQ(KeyPath().CommonPrefixLength(P("0101")), 0u);
}

TEST(KeyPathTest, CommonPrefixLengthAcrossWordBoundary) {
  // 70-bit paths differing only at bit 68 exercise the multi-word fast path.
  std::string a(70, '0'), b(70, '0');
  b[68] = '1';
  EXPECT_EQ(P(a).CommonPrefixLength(P(b)), 68u);
  EXPECT_EQ(P(a).CommonPrefixLength(P(a)), 70u);
}

TEST(KeyPathTest, IsPrefixOf) {
  EXPECT_TRUE(KeyPath().IsPrefixOf(P("01")));
  EXPECT_TRUE(P("01").IsPrefixOf(P("01")));
  EXPECT_TRUE(P("01").IsPrefixOf(P("0110")));
  EXPECT_FALSE(P("011").IsPrefixOf(P("01")));
  EXPECT_FALSE(P("10").IsPrefixOf(P("0110")));
}

TEST(KeyPathTest, PathsOverlap) {
  EXPECT_TRUE(PathsOverlap(P("01"), P("0110")));
  EXPECT_TRUE(PathsOverlap(P("0110"), P("01")));
  EXPECT_TRUE(PathsOverlap(KeyPath(), P("1")));
  EXPECT_FALSE(PathsOverlap(P("00"), P("01")));
  EXPECT_FALSE(PathsOverlap(P("0110"), P("0111")));
}

TEST(KeyPathTest, CanReferenceFollowsTheReferenceProperty) {
  struct Case {
    const char* name;
    const char* path;
    size_t level;
    const char* target;
    bool want;
  };
  const Case cases[] = {
      {"valid", "0110", 3, "0100", true},
      {"valid, target ends at the level", "0110", 3, "010", true},
      {"valid at level 1", "0110", 1, "1", true},
      {"wrong bit", "0110", 3, "0111", false},
      {"prefixes disagree", "0110", 3, "1100", false},
      {"target too short", "0110", 3, "01", false},
      {"level beyond the path", "01", 3, "0100", false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(CanReference(P(c.path), c.level, P(c.target)), c.want) << c.name;
  }
}

TEST(KeyPathTest, ComplementaryKeyLandsInTheReferencedSubtree) {
  Rng rng(7);
  const KeyPath path = P("01101");
  for (size_t level = 1; level <= path.length(); ++level) {
    const KeyPath key = ComplementaryKey(path, level, 8, &rng);
    EXPECT_EQ(key.length(), 8u);
    EXPECT_TRUE(CanReference(path, level, key)) << "level " << level << ": " << key;
  }
}

TEST(KeyPathTest, ValueMatchesPaperFormula) {
  // val(k) = sum 2^-i p_i
  EXPECT_DOUBLE_EQ(P("1").Value(), 0.5);
  EXPECT_DOUBLE_EQ(P("01").Value(), 0.25);
  EXPECT_DOUBLE_EQ(P("11").Value(), 0.75);
  EXPECT_DOUBLE_EQ(P("101").Value(), 0.625);
  EXPECT_DOUBLE_EQ(P("000").Value(), 0.0);
}

TEST(KeyPathTest, IntervalWidthIsTwoToMinusN) {
  EXPECT_EQ(P("0").ToInterval(), (Interval{0.0, 0.5}));
  EXPECT_EQ(P("10").ToInterval(), (Interval{0.5, 0.75}));
  EXPECT_DOUBLE_EQ(P("1010").ToInterval().Width(), 1.0 / 16.0);
}

TEST(KeyPathTest, IntervalContainment) {
  Interval i = P("01").ToInterval();
  EXPECT_TRUE(i.Contains(0.25));
  EXPECT_TRUE(i.Contains(0.4999));
  EXPECT_FALSE(i.Contains(0.5));
  EXPECT_FALSE(i.Contains(0.2));
  EXPECT_TRUE(P("01").CoversValue(P("0110").Value()));
  EXPECT_FALSE(P("01").CoversValue(P("10").Value()));
}

TEST(KeyPathTest, SiblingIntervalsPartitionParent) {
  // I(k0) and I(k1) tile I(k) exactly.
  KeyPath k = P("011");
  Interval parent = k.ToInterval();
  Interval left = k.Append(0).ToInterval();
  Interval right = k.Append(1).ToInterval();
  EXPECT_DOUBLE_EQ(left.lo, parent.lo);
  EXPECT_DOUBLE_EQ(left.hi, right.lo);
  EXPECT_DOUBLE_EQ(right.hi, parent.hi);
}

TEST(KeyPathTest, FromUint64MostSignificantFirst) {
  EXPECT_EQ(KeyPath::FromUint64(0b101, 3).ToString(), "101");
  EXPECT_EQ(KeyPath::FromUint64(1, 4).ToString(), "0001");
  EXPECT_EQ(KeyPath::FromUint64(0, 2).ToString(), "00");
  EXPECT_EQ(KeyPath::FromUint64(0xFFFFFFFFFFFFFFFFull, 64).ToString(),
            std::string(64, '1'));
}

TEST(KeyPathTest, FromUint64EnumeratesDistinctKeys) {
  std::set<std::string> seen;
  for (uint64_t i = 0; i < 16; ++i) seen.insert(KeyPath::FromUint64(i, 4).ToString());
  EXPECT_EQ(seen.size(), 16u);
}

TEST(KeyPathTest, OrderingIsLexicographic) {
  EXPECT_LT(P("0"), P("1"));
  EXPECT_LT(P("0"), P("01"));   // prefix orders before extension
  EXPECT_LT(P("00"), P("01"));
  EXPECT_LT(P("011"), P("1"));
  EXPECT_EQ(P("01") <=> P("01"), std::strong_ordering::equal);
}

TEST(KeyPathTest, HashDistinguishesLengthsOfSameValue) {
  // "0" and "00" have the same packed words but different lengths.
  EXPECT_NE(P("0"), P("00"));
  std::unordered_set<KeyPath, KeyPathHash> set;
  set.insert(P("0"));
  set.insert(P("00"));
  set.insert(P("000"));
  EXPECT_EQ(set.size(), 3u);
}

TEST(KeyPathTest, RandomHasRequestedLength) {
  Rng rng(99);
  for (size_t len : {0u, 1u, 7u, 64u, 65u, 200u}) {
    EXPECT_EQ(KeyPath::Random(&rng, len).length(), len);
  }
}

TEST(KeyPathTest, RandomBitsAreBalanced) {
  Rng rng(7);
  size_t ones = 0;
  const size_t trials = 500, len = 32;
  for (size_t t = 0; t < trials; ++t) {
    KeyPath k = KeyPath::Random(&rng, len);
    for (size_t i = 0; i < len; ++i) ones += static_cast<size_t>(k.bit(i));
  }
  double rate = static_cast<double>(ones) / (trials * len);
  EXPECT_NEAR(rate, 0.5, 0.02);
}

TEST(KeyPathTest, ComplementBit) {
  EXPECT_EQ(ComplementBit(0), 1);
  EXPECT_EQ(ComplementBit(1), 0);
}

// Property sweep: prefix/sub/value identities on random paths of many lengths.
class KeyPathPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KeyPathPropertyTest, PrefixOfSelfIdentities) {
  Rng rng(GetParam() * 7919 + 1);
  KeyPath k = KeyPath::Random(&rng, GetParam());
  EXPECT_TRUE(k.Prefix(0).empty());
  EXPECT_EQ(k.Prefix(k.length()), k);
  for (size_t l = 0; l <= k.length(); l += std::max<size_t>(1, k.length() / 7)) {
    KeyPath p = k.Prefix(l);
    EXPECT_TRUE(p.IsPrefixOf(k));
    EXPECT_EQ(p.CommonPrefixLength(k), l);
    EXPECT_EQ(p.Concat(k.SuffixFrom(l)), k);
  }
}

TEST_P(KeyPathPropertyTest, ValueLiesInOwnInterval) {
  Rng rng(GetParam() * 104729 + 3);
  KeyPath k = KeyPath::Random(&rng, GetParam());
  // Interval arithmetic is only meaningful while 2^-n is representable relative to
  // the interval's position (see ToInterval() docs); beyond ~52 bits it collapses.
  if (k.length() == 0 || k.length() > 50) return;
  Interval i = k.ToInterval();
  EXPECT_TRUE(i.Contains(k.Value()));
  // Any extension's value stays inside the interval.
  EXPECT_TRUE(i.Contains(k.Append(1).Value()));
  EXPECT_TRUE(i.Contains(k.Append(0).Value()));
}

TEST_P(KeyPathPropertyTest, RoundTripThroughString) {
  Rng rng(GetParam() * 31 + 17);
  KeyPath k = KeyPath::Random(&rng, GetParam());
  auto parsed = KeyPath::FromString(k.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), k);
  EXPECT_EQ(parsed.value().Hash(), k.Hash());
}

TEST_P(KeyPathPropertyTest, CommonPrefixIsSymmetricAndBounded) {
  Rng rng(GetParam() * 13 + 5);
  KeyPath a = KeyPath::Random(&rng, GetParam());
  KeyPath b = KeyPath::Random(&rng, GetParam());
  size_t ab = a.CommonPrefixLength(b);
  EXPECT_EQ(ab, b.CommonPrefixLength(a));
  EXPECT_LE(ab, std::min(a.length(), b.length()));
  EXPECT_EQ(a.Prefix(ab), b.Prefix(ab));
  if (ab < a.length() && ab < b.length()) {
    EXPECT_NE(a.bit(ab), b.bit(ab));
  }
}

TEST_P(KeyPathPropertyTest, SubMatchesPerBitExtraction) {
  // Guards the word-packed Sub/SuffixFrom fast path against a bit-by-bit
  // reference, across word-boundary lengths and unaligned cut points.
  Rng rng(GetParam() * 7 + 3);
  KeyPath k = KeyPath::Random(&rng, GetParam());
  for (size_t pos = 0; pos <= k.length(); pos += (pos < 70 ? 1 : 13)) {
    const size_t max_len = k.length() - pos;
    for (size_t len : {size_t{0}, size_t{1}, max_len / 2, max_len}) {
      if (len > max_len) continue;
      KeyPath sub = k.Sub(pos, len);
      ASSERT_EQ(sub.length(), len);
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(sub.bit(i), k.bit(pos + i)) << "pos=" << pos << " i=" << i;
      }
    }
    KeyPath suffix = k.SuffixFrom(pos);
    ASSERT_EQ(suffix.length(), k.length() - pos);
    for (size_t i = 0; i < suffix.length(); ++i) {
      ASSERT_EQ(suffix.bit(i), k.bit(pos + i));
    }
  }
}

TEST_P(KeyPathPropertyTest, ConcatMatchesPerBitAppend) {
  Rng rng(GetParam() * 11 + 1);
  KeyPath a = KeyPath::Random(&rng, GetParam());
  for (size_t suffix_len : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                            size_t{65}, size_t{130}}) {
    KeyPath b = KeyPath::Random(&rng, suffix_len);
    KeyPath cat = a.Concat(b);
    ASSERT_EQ(cat.length(), a.length() + b.length());
    for (size_t i = 0; i < a.length(); ++i) ASSERT_EQ(cat.bit(i), a.bit(i));
    for (size_t i = 0; i < b.length(); ++i) {
      ASSERT_EQ(cat.bit(a.length() + i), b.bit(i)) << "a=" << a.length()
                                                   << " i=" << i;
    }
    // Canonical form survives the word-packed splice: equal value, equal hash.
    EXPECT_EQ(cat.Prefix(a.length()), a);
    EXPECT_EQ(cat.SuffixFrom(a.length()), b);
  }
}

TEST_P(KeyPathPropertyTest, PackedBytesMatchPerBitPacking) {
  // The packed form moves whole words; check it against a bit-by-bit packing
  // (bit i at byte i / 8, position i % 8) at word-boundary lengths.
  Rng rng(GetParam() * 17 + 9);
  KeyPath k = KeyPath::Random(&rng, GetParam());
  std::string expected = "prefix";
  expected.resize(expected.size() + (k.length() + 7) / 8);
  for (size_t i = 0; i < k.length(); ++i) {
    expected[6 + i / 8] |= static_cast<char>(k.bit(i) << (i % 8));
  }
  std::string packed = "prefix";
  k.AppendPackedBytes(&packed);
  EXPECT_EQ(packed, expected);

  const std::string_view bytes = std::string_view(packed).substr(6);
  EXPECT_EQ(KeyPath::FromPackedBytes(bytes, k.length()), k);
  if (k.length() % 8 != 0) {
    // Set bits past the length decode to the same, canonical path.
    std::string dirty(bytes);
    dirty.back() |= static_cast<char>(0xff << (k.length() % 8));
    const KeyPath back = KeyPath::FromPackedBytes(dirty, k.length());
    EXPECT_EQ(back, k);
    EXPECT_EQ(back.Hash(), k.Hash());
    EXPECT_EQ(back <=> k, std::strong_ordering::equal);
  }
}

TEST(KeyPathTest, SubRecanonicalizesTailWord) {
  // A sub-path whose tail word has garbage above `length` would break ==/Hash;
  // extract an unaligned slice and compare against a freshly built equal value.
  Rng rng(1234);
  KeyPath k = KeyPath::Random(&rng, 200);
  KeyPath slice = k.Sub(3, 130);
  auto rebuilt = KeyPath::FromString(slice.ToString());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(slice, rebuilt.value());
  EXPECT_EQ(slice.Hash(), rebuilt.value().Hash());
}

TEST(KeyPathTest, InlineRepresentationUsesNoHeap) {
  // Lengths up to 64 pack into the in-object word: no heap footprint at all.
  Rng rng(42);
  for (size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{64}}) {
    EXPECT_EQ(KeyPath::Random(&rng, len).ApproxMemoryBytes(), 0u) << len;
  }
  EXPECT_GT(KeyPath::Random(&rng, 65).ApproxMemoryBytes(), 0u);
}

TEST(KeyPathTest, PushBackAcrossSpillBoundary) {
  // Grow bit-by-bit through the 64-bit inline capacity; every prefix must stay
  // readable and the 65th bit must move the path onto the heap intact.
  Rng rng(4242);
  KeyPath ref = KeyPath::Random(&rng, 130);
  KeyPath k;
  for (size_t i = 0; i < ref.length(); ++i) {
    const bool was_inline = k.ApproxMemoryBytes() == 0;
    EXPECT_EQ(was_inline, i <= 64) << i;
    k.PushBack(ref.bit(i));
    ASSERT_EQ(k.length(), i + 1);
    for (size_t j = 0; j <= i; ++j) ASSERT_EQ(k.bit(j), ref.bit(j)) << i << " " << j;
  }
  EXPECT_EQ(k, ref);
  EXPECT_EQ(k.Hash(), ref.Hash());
}

TEST(KeyPathTest, PopBackUnspillsToInline) {
  // Shrinking back to <= 64 bits releases the heap block and returns to the
  // inline word; the value and hash stay canonical through the transition.
  Rng rng(777);
  KeyPath k = KeyPath::Random(&rng, 70);
  KeyPath ref = k;
  EXPECT_GT(k.ApproxMemoryBytes(), 0u);
  while (k.length() > 64) k.PopBack();
  EXPECT_EQ(k.ApproxMemoryBytes(), 0u);
  EXPECT_EQ(k, ref.Prefix(64));
  EXPECT_EQ(k.Hash(), ref.Prefix(64).Hash());
  while (k.length() > 0) k.PopBack();
  EXPECT_EQ(k, KeyPath());
}

TEST(KeyPathTest, InlineAndHeapRepresentationsAgree) {
  // The same 64-bit value reached inline (FromUint64) and via heap history
  // (a longer path popped back down) must compare, hash, and order identically.
  Rng rng(99);
  KeyPath inline_k = KeyPath::Random(&rng, 64);
  KeyPath heap_k = inline_k.Concat(KeyPath::Random(&rng, 30));
  while (heap_k.length() > 64) heap_k.PopBack();
  EXPECT_EQ(inline_k, heap_k);
  EXPECT_EQ(inline_k.Hash(), heap_k.Hash());
  EXPECT_EQ(inline_k <=> heap_k, std::strong_ordering::equal);
  EXPECT_FALSE(inline_k < heap_k);
  EXPECT_FALSE(heap_k < inline_k);
  // Ordering across the representations is still lexicographic.
  KeyPath longer = inline_k.Append(1);
  EXPECT_LT(inline_k, longer);
  EXPECT_GT(longer, heap_k);
}

TEST(KeyPathTest, CopyAndMoveAcrossRepresentations) {
  Rng rng(31337);
  for (size_t len : {size_t{8}, size_t{64}, size_t{65}, size_t{200}}) {
    KeyPath src = KeyPath::Random(&rng, len);
    KeyPath copy = src;
    EXPECT_EQ(copy, src);
    EXPECT_EQ(copy.Hash(), src.Hash());
    KeyPath moved = std::move(copy);
    EXPECT_EQ(moved, src);
    // A moved-from path is empty and safely reusable.
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy.PushBack(1);
    EXPECT_EQ(copy.ToString(), "1");
    KeyPath assigned;
    assigned = src;
    EXPECT_EQ(assigned, src);
    assigned = KeyPath::Random(&rng, 3);  // overwrite heap with inline
    EXPECT_EQ(assigned.length(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, KeyPathPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 31, 32, 33, 63, 64,
                                           65, 100, 127, 128, 129, 250));

}  // namespace
}  // namespace pgrid
