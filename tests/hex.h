// Hex rendering for tests that pin encoded bytes.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pgrid {
namespace testing_util {

/// Lower-case hex, two digits per byte.
inline std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// The bytes a Hex() string renders.
inline std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

}  // namespace testing_util
}  // namespace pgrid
