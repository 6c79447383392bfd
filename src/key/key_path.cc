#include "key/key_path.h"

#include <algorithm>
#include <bit>

#include "util/macros.h"
#include "util/rng.h"

namespace pgrid {

namespace {

constexpr size_t kBitsPerWord = 64;

size_t WordsFor(size_t bits) { return (bits + kBitsPerWord - 1) / kBitsPerWord; }

}  // namespace

KeyPath::KeyPath(const KeyPath& other) : length_(other.length_) {
  if (other.heap_words_ == 0) {
    inline_word_ = other.inline_word_;
  } else {
    // Copies shrink to the exact canonical word count; any slack capacity in
    // the source was a growth artifact, not state.
    const size_t n = other.word_count();
    heap_ = new uint64_t[n];
    std::copy(other.heap_, other.heap_ + n, heap_);
    heap_words_ = static_cast<uint32_t>(n);
  }
}

KeyPath& KeyPath::operator=(const KeyPath& other) {
  if (this != &other) {
    KeyPath tmp(other);
    Swap(tmp);
  }
  return *this;
}

KeyPath::KeyPath(KeyPath&& other) noexcept
    : heap_words_(other.heap_words_), length_(other.length_) {
  if (heap_words_ == 0) {
    inline_word_ = other.inline_word_;
  } else {
    heap_ = other.heap_;
  }
  other.inline_word_ = 0;
  other.heap_words_ = 0;
  other.length_ = 0;
}

KeyPath& KeyPath::operator=(KeyPath&& other) noexcept {
  if (this != &other) {
    KeyPath tmp(std::move(other));
    Swap(tmp);
  }
  return *this;
}

KeyPath::~KeyPath() {
  if (heap_words_ != 0) delete[] heap_;
}

void KeyPath::Swap(KeyPath& other) noexcept {
  // The union holds either variant as raw 8 bytes; swapping the storage plus
  // the discriminator (heap_words_) swaps the representations.
  std::swap(inline_word_, other.inline_word_);
  std::swap(heap_words_, other.heap_words_);
  std::swap(length_, other.length_);
}

KeyPath KeyPath::MakeZeroed(size_t length) {
  KeyPath out;
  out.length_ = static_cast<uint32_t>(length);
  if (length > kBitsPerWord) {
    const size_t n = WordsFor(length);
    out.heap_ = new uint64_t[n]();
    out.heap_words_ = static_cast<uint32_t>(n);
  }
  return out;
}

Result<KeyPath> KeyPath::FromString(std::string_view bits) {
  KeyPath out;
  for (char c : bits) {
    if (c == '0') {
      out.PushBack(0);
    } else if (c == '1') {
      out.PushBack(1);
    } else {
      return Status::InvalidArgument(std::string("invalid bit character '") + c +
                                     "' in key path");
    }
  }
  return out;
}

KeyPath KeyPath::FromUint64(uint64_t value, size_t length) {
  PGRID_CHECK_LE(length, kBitsPerWord);
  KeyPath out;
  for (size_t i = 0; i < length; ++i) {
    // Most significant of the low `length` bits first.
    out.PushBack(static_cast<int>((value >> (length - 1 - i)) & 1u));
  }
  return out;
}

KeyPath KeyPath::Random(Rng* rng, size_t length) {
  PGRID_CHECK(rng != nullptr);
  KeyPath out;
  for (size_t i = 0; i < length; ++i) out.PushBack(rng->Bit());
  return out;
}

KeyPath KeyPath::FromPackedBytes(std::string_view bytes, size_t length) {
  PGRID_CHECK_EQ(bytes.size(), (length + 7) / 8);
  // Byte j of the packed form is bits 8j..8j+7, i.e. byte j % 8 of word j / 8
  // in little-endian order.
  KeyPath out = MakeZeroed(length);
  uint64_t* dst = out.words();
  for (size_t j = 0; j < bytes.size(); ++j) {
    dst[j / 8] |= uint64_t{static_cast<uint8_t>(bytes[j])} << (8 * (j % 8));
  }
  // Drop the padding bits past the length: the canonical form keeps them zero.
  if (length % kBitsPerWord != 0) {
    dst[out.word_count() - 1] &= (uint64_t{1} << (length % kBitsPerWord)) - 1;
  }
  return out;
}

KeyPath ComplementaryKey(const KeyPath& path, size_t level, size_t length, Rng* rng) {
  KeyPath key = path.Prefix(level - 1).Append(ComplementBit(path.bit(level - 1)));
  while (key.length() < length) key.PushBack(rng->Bit());
  return key;
}

int KeyPath::bit(size_t i) const {
  PGRID_CHECK_LT(i, length_);
  return static_cast<int>((words()[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u);
}

void KeyPath::PushBack(int b) {
  PGRID_CHECK(b == 0 || b == 1);
  const size_t i = length_;
  if (heap_words_ == 0) {
    if (i == kBitsPerWord) {
      // Spill: the inline word is full; move it to a fresh two-word block.
      heap_ = new uint64_t[2]{inline_word_, 0};
      heap_words_ = 2;
    }
  } else if (i == size_t{heap_words_} * kBitsPerWord) {
    const size_t cap = size_t{heap_words_} * 2;
    uint64_t* grown = new uint64_t[cap]();
    std::copy(heap_, heap_ + heap_words_, grown);
    delete[] heap_;
    heap_ = grown;
    heap_words_ = static_cast<uint32_t>(cap);
  }
  // Words past the length are canonically zero, so setting a 1-bit is enough.
  if (b != 0) words()[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
  ++length_;
}

void KeyPath::PopBack() {
  PGRID_CHECK_GT(length_, 0u);
  --length_;
  words()[length_ / kBitsPerWord] &= ~(uint64_t{1} << (length_ % kBitsPerWord));
  if (heap_words_ != 0 && length_ <= kBitsPerWord) {
    // Un-spill so short paths always report zero heap bytes.
    const uint64_t word0 = heap_[0];
    delete[] heap_;
    inline_word_ = word0;
    heap_words_ = 0;
  }
}

KeyPath KeyPath::Append(int b) const {
  KeyPath out = *this;
  out.PushBack(b);
  return out;
}

KeyPath KeyPath::Concat(const KeyPath& suffix) const {
  if (suffix.length_ == 0) return *this;
  // Word-packed append: each suffix word lands across at most two output words,
  // split at the current bit offset. Both operands are canonical (zero bits past
  // their lengths) and MakeZeroed zero-fills, so the result is canonical by
  // construction.
  KeyPath out = MakeZeroed(size_t{length_} + suffix.length_);
  const uint64_t* src = words();
  const uint64_t* suf = suffix.words();
  uint64_t* dst = out.words();
  std::copy(src, src + word_count(), dst);
  const size_t base = length_ / kBitsPerWord;
  const size_t offset = length_ % kBitsPerWord;
  const size_t out_n = out.word_count();
  for (size_t j = 0; j < suffix.word_count(); ++j) {
    const uint64_t v = suf[j];
    dst[base + j] |= v << offset;
    if (offset != 0 && base + j + 1 < out_n) {
      dst[base + j + 1] |= v >> (kBitsPerWord - offset);
    }
  }
  return out;
}

KeyPath KeyPath::Prefix(size_t len) const {
  PGRID_CHECK_LE(len, length_);
  KeyPath out = MakeZeroed(len);
  const uint64_t* src = words();
  uint64_t* dst = out.words();
  const size_t n = out.word_count();
  std::copy(src, src + n, dst);
  // Re-canonicalize: clear bits at positions >= len in the last word.
  if (len % kBitsPerWord != 0) {
    dst[n - 1] &= (uint64_t{1} << (len % kBitsPerWord)) - 1;
  }
  return out;
}

KeyPath KeyPath::Sub(size_t pos, size_t len) const {
  PGRID_CHECK_LE(pos + len, length_);
  if (len == 0) return KeyPath();
  // Word-packed extraction: output word w gathers the low part of source word
  // (first + w) and, when the cut is unaligned, the high part from the next word.
  // This runs on every routing hop (SuffixFrom), so it must not be per-bit.
  KeyPath out = MakeZeroed(len);
  const uint64_t* src = words();
  uint64_t* dst = out.words();
  const size_t first = pos / kBitsPerWord;
  const size_t shift = pos % kBitsPerWord;
  const size_t src_n = word_count();
  const size_t out_n = out.word_count();
  for (size_t w = 0; w < out_n; ++w) {
    uint64_t v = src[first + w] >> shift;
    if (shift != 0 && first + w + 1 < src_n) {
      v |= src[first + w + 1] << (kBitsPerWord - shift);
    }
    dst[w] = v;
  }
  // Re-canonicalize the tail word.
  if (len % kBitsPerWord != 0) {
    dst[out_n - 1] &= (uint64_t{1} << (len % kBitsPerWord)) - 1;
  }
  return out;
}

KeyPath KeyPath::SuffixFrom(size_t pos) const {
  if (pos >= length_) return KeyPath();
  return Sub(pos, length_ - pos);
}

size_t KeyPath::CommonPrefixLength(const KeyPath& other) const {
  const size_t limit = std::min(size_t{length_}, size_t{other.length_});
  const uint64_t* a = words();
  const uint64_t* b = other.words();
  const size_t n = WordsFor(limit);
  for (size_t w = 0; w < n; ++w) {
    uint64_t diff = a[w] ^ b[w];
    if (diff != 0) {
      size_t first_diff = w * kBitsPerWord + static_cast<size_t>(std::countr_zero(diff));
      return std::min(first_diff, limit);
    }
  }
  return limit;
}

double KeyPath::Value() const {
  double v = 0.0;
  double w = 0.5;
  for (size_t i = 0; i < length_; ++i, w *= 0.5) {
    if (bit(i) != 0) v += w;
  }
  return v;
}

Interval KeyPath::ToInterval() const {
  double lo = Value();
  double width = 1.0;
  for (size_t i = 0; i < length_; ++i) width *= 0.5;
  return Interval{lo, lo + width};
}

std::string KeyPath::ToString() const {
  std::string out;
  out.reserve(length_);
  for (size_t i = 0; i < length_; ++i) out.push_back(bit(i) != 0 ? '1' : '0');
  return out;
}

void KeyPath::AppendPackedBytes(std::string* out) const {
  const uint64_t* w = words();
  for (size_t left = (size_t{length_} + 7) / 8; left > 0; ++w) {
    char bytes[8];
    for (size_t j = 0; j < 8; ++j) bytes[j] = static_cast<char>(*w >> (8 * j));
    const size_t take = std::min<size_t>(left, 8);
    out->append(bytes, take);
    left -= take;
  }
}

std::strong_ordering KeyPath::operator<=>(const KeyPath& other) const {
  size_t common = CommonPrefixLength(other);
  if (common < length_ && common < other.length_) {
    return bit(common) < other.bit(common) ? std::strong_ordering::less
                                           : std::strong_ordering::greater;
  }
  return length_ <=> other.length_;
}

bool KeyPath::operator==(const KeyPath& other) const {
  if (length_ != other.length_) return false;
  const uint64_t* a = words();
  const uint64_t* b = other.words();
  return std::equal(a, a + word_count(), b);
}

size_t KeyPath::Hash() const {
  // FNV-1a over the canonical words plus the length. The word sequence is the
  // same for inline and heap representations of equal paths, so hash values are
  // representation-independent (and unchanged from the vector-backed layout).
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(length_);
  const uint64_t* w = words();
  for (size_t i = 0, n = word_count(); i < n; ++i) mix(w[i]);
  return static_cast<size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const KeyPath& k) {
  return os << k.ToString();
}

}  // namespace pgrid
