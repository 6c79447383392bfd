// Message accounting for simulated protocol runs.
//
// All paper metrics are message counts: exchange invocations during construction,
// successful remote query calls during search, messages spent propagating updates.
// The protocol engines count every simulated message once, in a named counter of
// the grid's metrics registry (obs/metrics.h). MessageStats is the paper's view
// of those counters: a read-only value that sums them by message type through the
// one mapping table in message_stats.cc (documented in docs/observability.md), so
// experiments can report exactly the quantities the paper reports.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace pgrid {

/// Categories of simulated messages.
enum class MessageType : int {
  kExchange = 0,      ///< one execution of the exchange algorithm between two peers
  kQuery = 1,         ///< one successful remote invocation of the query operation
  kUpdate = 2,        ///< one message propagating an update to a replica
  kDataTransfer = 3,  ///< leaf index entries handed over during construction
  kControl = 4,       ///< anything else (buddy notifications, probes)
};

inline constexpr int kNumMessageTypes = 5;

/// Returns a stable name for a message type.
std::string_view MessageTypeName(MessageType t);

/// Simulated message counts by type, read from a metrics registry.
class MessageStats {
 public:
  /// Sums `metrics`' message counters by type. A counter no engine has created
  /// counts as 0; reading creates no instrument.
  explicit MessageStats(const obs::MetricsRegistry& metrics);

  /// Count for one type.
  uint64_t count(MessageType t) const { return counts_[static_cast<int>(t)]; }

  /// Sum over all types.
  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts_) sum += c;
    return sum;
  }

 private:
  std::array<uint64_t, kNumMessageTypes> counts_{};
};

}  // namespace pgrid
