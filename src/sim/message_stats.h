// Message accounting for simulated protocol runs.
//
// All paper metrics are message counts: exchange invocations during construction,
// successful remote query calls during search, messages spent propagating updates.
// MessageStats is the single ledger those algorithms record into, so experiments can
// report exactly the quantities the paper reports.

#pragma once

#include <array>
#include <cstdint>
#include <string_view>

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

/// Monotonic counters of simulated messages, by type.
class MessageStats {
 public:
  /// Adds `n` messages of type `t`.
  void Record(MessageType t, uint64_t n = 1) {
    counts_[static_cast<int>(t)] += n;
  }

  /// Count for one type.
  uint64_t count(MessageType t) const { return counts_[static_cast<int>(t)]; }

  /// Sum over all types.
  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts_) sum += c;
    return sum;
  }

  /// Adds another ledger's counts into this one. This is the merge step of sharded
  /// accounting: parallel drivers give every concurrent work item its own shard and
  /// fold the shards into the grid's ledger at batch barriers, in deterministic
  /// (work-item) order, so totals are identical to a serial run over the same items.
  void MergeFrom(const MessageStats& other) {
    for (int i = 0; i < kNumMessageTypes; ++i) counts_[i] += other.counts_[i];
  }

  /// Zeroes all counters.
  void Reset() { counts_.fill(0); }

 private:
  std::array<uint64_t, kNumMessageTypes> counts_{};
};

}  // namespace pgrid
