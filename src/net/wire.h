// Binary wire format for the networked P-Grid protocol.
//
// Little-endian fixed-width integers, length-prefixed strings, and bit-packed key
// paths. Decoding is defensive: every read validates remaining length and returns
// Status on truncation or malformed input (network input is untrusted).

#pragma once

#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "key/key_path.h"
#include "util/result.h"

namespace pgrid {
namespace net {

/// Appends primitive values to a byte buffer.
class ByteWriter {
 public:
  /// Makes room for `bytes` in all, so an encoder that knows its message's
  /// size grows the buffer once.
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  void WriteU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void WriteU32(uint32_t v) { WriteLittleEndian(v); }

  void WriteU64(uint64_t v) { WriteLittleEndian(v); }

  /// Length-prefixed (u32) byte string.
  void WriteString(std::string_view s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }

  /// Bit length (u32) followed by ceil(len/8) packed bytes, LSB-first per byte
  /// (KeyPath::AppendPackedBytes).
  void WriteKeyPath(const KeyPath& k) {
    WriteU32(static_cast<uint32_t>(k.length()));
    k.AppendPackedBytes(&out_);
  }

  /// A list of strings (u32 count + each length-prefixed), from any sized
  /// range of strings or string views, a braced list included.
  template <std::ranges::sized_range List = std::initializer_list<std::string_view>>
  void WriteStringList(const List& v) {
    WriteU32(static_cast<uint32_t>(std::ranges::size(v)));
    for (std::string_view s : v) WriteString(s);
  }

  /// Encoded sizes of the writes above.
  static size_t StringSize(std::string_view s) { return 4 + s.size(); }
  static size_t KeyPathSize(const KeyPath& k) { return 4 + (k.length() + 7) / 8; }
  template <std::ranges::range List>
  static size_t StringListSize(const List& v) {
    size_t n = 4;
    for (std::string_view s : v) n += StringSize(s);
    return n;
  }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  // Built with shifts, so the bytes are little-endian on any host.
  template <typename T>
  void WriteLittleEndian(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    out_.append(bytes, sizeof(T));
  }

  std::string out_;
};

/// Sequentially decodes primitive values; every method checks bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8() { return ReadLittleEndian<uint8_t>(); }
  Result<uint32_t> ReadU32() { return ReadLittleEndian<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadLittleEndian<uint64_t>(); }
  Result<std::string> ReadString();
  /// ReadString's bytes as a view into the buffer: valid while it lives.
  Result<std::string_view> ReadStringView();
  Result<KeyPath> ReadKeyPath();
  Result<std::vector<std::string>> ReadStringList();
  /// ReadStringList as views into the buffer: valid while it lives.
  Result<std::vector<std::string_view>> ReadStringViewList();

  /// Consumes and returns all bytes not yet read. Used by envelope formats
  /// (e.g. the traced-RPC wrapper) whose payload is simply "the rest".
  std::string ReadRest() {
    std::string out(data_.substr(pos_));
    pos_ = data_.size();
    return out;
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Result<T> ReadLittleEndian() {
    if (remaining() < sizeof(T)) [[unlikely]] return Truncated(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  template <typename S>
  Result<std::vector<S>> ReadList();

  /// The errors, built only on failure.
  [[gnu::cold]] Status Truncated(size_t need) const;
  [[gnu::cold]] static Status OverCap(const char* what, uint32_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

/// Sanity cap on decoded collection sizes (strings, lists): rejects hostile length
/// prefixes before allocation.
inline constexpr uint32_t kMaxWireCollection = 1u << 20;

}  // namespace net
}  // namespace pgrid
