#include "net/wire.h"

#include <algorithm>

namespace pgrid {
namespace net {

Status ByteReader::Truncated(size_t need) const {
  return Status::InvalidArgument("truncated message: need " + std::to_string(need) +
                                 " bytes, have " + std::to_string(remaining()));
}

Status ByteReader::OverCap(const char* what, uint32_t n) {
  return Status::InvalidArgument(std::string(what) + " " + std::to_string(n) +
                                 " exceeds wire cap");
}

Result<std::string_view> ByteReader::ReadStringView() {
  PGRID_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  if (len > kMaxWireCollection) return OverCap("string length", len);
  if (remaining() < len) return Truncated(len);
  const std::string_view out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

Result<std::string> ByteReader::ReadString() {
  PGRID_ASSIGN_OR_RETURN(std::string_view s, ReadStringView());
  return std::string(s);
}

Result<KeyPath> ByteReader::ReadKeyPath() {
  PGRID_ASSIGN_OR_RETURN(uint32_t bits, ReadU32());
  if (bits > kMaxWireCollection) return OverCap("key path length", bits);
  const size_t bytes = (size_t{bits} + 7) / 8;
  if (remaining() < bytes) return Truncated(bytes);
  KeyPath out = KeyPath::FromPackedBytes(data_.substr(pos_, bytes), bits);
  pos_ += bytes;
  return out;
}

template <typename S>
Result<std::vector<S>> ByteReader::ReadList() {
  PGRID_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
  if (count > kMaxWireCollection) return OverCap("list size", count);
  std::vector<S> out;
  // Each element takes at least its 4-byte length prefix.
  out.reserve(std::min<size_t>(count, remaining() / 4));
  for (uint32_t i = 0; i < count; ++i) {
    PGRID_ASSIGN_OR_RETURN(std::string_view s, ReadStringView());
    out.emplace_back(s);
  }
  return out;
}

Result<std::vector<std::string>> ByteReader::ReadStringList() {
  return ReadList<std::string>();
}

Result<std::vector<std::string_view>> ByteReader::ReadStringViewList() {
  return ReadList<std::string_view>();
}

}  // namespace net
}  // namespace pgrid
