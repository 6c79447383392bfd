// Minimal command-line flag parsing for the CLI tool.
//
// Syntax: --name=value or bare --name (boolean). Anything else is positional.
// Typed getters fall back to defaults when the flag is absent and report
// InvalidArgument for unparsable values. Parsing accepts any flag name;
// CheckKnown rejects the ones a command does not read.

#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/result.h"

namespace pgrid {

/// Parsed command line: flags plus positional arguments, in order.
class FlagSet {
 public:
  explicit FlagSet(const std::vector<std::string>& args) {
    for (const std::string& a : args) {
      if (a.rfind("--", 0) == 0) {
        const size_t eq = a.find('=');
        if (eq == std::string::npos) {
          flags_.emplace_back(a.substr(2), "");
        } else {
          flags_.emplace_back(a.substr(2, eq - 2), a.substr(eq + 1));
        }
      } else {
        positional_.push_back(a);
      }
    }
  }

  bool Has(const std::string& name) const {
    for (const auto& [k, v] : flags_) {
      if (k == name) return true;
    }
    return false;
  }

  /// Raw value of --name (empty string for bare flags), or `fallback`.
  std::string GetString(const std::string& name, const std::string& fallback) const {
    for (const auto& [k, v] : flags_) {
      if (k == name) return v;
    }
    return fallback;
  }

  /// Integer flag. InvalidArgument if present but not a number.
  Result<int64_t> GetInt(const std::string& name, int64_t fallback) const {
    for (const auto& [k, v] : flags_) {
      if (k != name) continue;
      char* end = nullptr;
      const int64_t value = std::strtoll(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0') {
        return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                       v + "'");
      }
      return value;
    }
    return fallback;
  }

  /// Floating-point flag. InvalidArgument if present but not a number.
  Result<double> GetDouble(const std::string& name, double fallback) const {
    for (const auto& [k, v] : flags_) {
      if (k != name) continue;
      char* end = nullptr;
      const double value = std::strtod(v.c_str(), &end);
      if (v.empty() || end == nullptr || *end != '\0') {
        return Status::InvalidArgument("--" + name + " expects a number, got '" + v +
                                       "'");
      }
      return value;
    }
    return fallback;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags present (for unknown-flag diagnostics).
  std::vector<std::string> FlagNames() const {
    std::vector<std::string> out;
    for (const auto& [k, v] : flags_) out.push_back(k);
    return out;
  }

  /// InvalidArgument naming every flag present that `usage` does not spell as
  /// `--name`, so a command's usage line doubles as its list of known flags.
  Status CheckKnown(const std::string& usage) const {
    std::vector<std::string> known;
    for (size_t at = usage.find("--"); at != std::string::npos;
         at = usage.find("--", at + 2)) {
      // A name ends where its value, alternative or bracket begins (npos
      // at the end of `usage` makes substr take the rest).
      known.push_back(usage.substr(at + 2, usage.find_first_of(" =|])", at) - at - 2));
    }
    std::string unknown;
    for (const std::string& name : FlagNames()) {
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        unknown += " --" + name;
      }
    }
    if (unknown.empty()) return Status::OK();
    return Status::InvalidArgument("unknown flag(s)" + unknown);
  }

 private:
  std::vector<std::pair<std::string, std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace pgrid
