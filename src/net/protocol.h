// Message schema of the networked P-Grid protocol.
//
// All node interactions are request/response over RpcTransport:
//   - Ping            liveness probe.
//   - Query           one routing step: the target matches the query suffix against
//                     its own path and answers Found (it is responsible), Forward
//                     (candidate addresses at the divergence level), or Miss.
//                     Clients route iteratively (depth-first over candidates).
//   - Publish         install an index entry at a responsible peer (optionally
//                     fanning out to its buddies).
//   - Exchange        the construction algorithm: the initiator sends its state
//                     snapshot; the responder merges, mutates itself, and returns
//                     directives (bits to append, reference updates, referral
//                     addresses for recursive exchanges, entries to adopt).
//                     Replicas compare index digests and ship their indexes
//                     only when the digests differ.
//   - EntryPush       hand over index entries (data reconciliation after splits);
//                     the receiver returns the entries it rejected so nothing is
//                     ever silently dropped.
//   - Stats           remote scrape: the target answers with a JSON snapshot of
//                     its metrics registry (see docs/observability.md), so any
//                     node in a deployment can be monitored over the ordinary
//                     transport without a side channel.
//
// Every message is length-safe to decode (see wire.h); malformed input yields an
// error response rather than a crash.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "key/key_path.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "util/result.h"
#include "util/span.h"

namespace pgrid {
namespace net {

/// Message type tags (first byte of every payload).
enum class MsgType : uint8_t {
  kPing = 1,
  kPong = 2,
  kQueryReq = 3,
  kQueryRespFound = 4,
  kQueryRespForward = 5,
  kQueryRespMiss = 6,
  kPublishReq = 7,
  kPublishAck = 8,
  kExchangeReq = 9,
  kExchangeResp = 10,
  kEntryPushReq = 11,
  kEntryPushResp = 12,
  kError = 13,
  kCommitReq = 14,
  kCommitAck = 15,
  kStatsReq = 16,
  kStatsResp = 17,
  kProbeReq = 18,
  kProbeResp = 19,
  kTraced = 20,  ///< causal-tracing envelope wrapping any request
};

/// An index entry on the wire: holders are transport addresses.
struct WireEntry {
  std::string holder;
  uint64_t item_id = 0;
  KeyPath key;
  uint64_t version = 0;

  friend bool operator==(const WireEntry&, const WireEntry&) = default;
};

/// Reference levels: for each level, its (1-indexed) number and the addresses
/// a peer keeps there. All levels' addresses sit in one list of views. The
/// table owns none of their bytes: a decoded table views the payload it was
/// decoded from, so it is valid only while that payload lives, and a table
/// built to encode must be encoded before whatever its views name changes.
class WireRefTable {
 public:
  /// Makes room for `levels` levels holding `addresses` addresses in all.
  void Reserve(size_t levels, size_t addresses) {
    if (levels > kInlineLevels) more_levels_.reserve(levels - kInlineLevels);
    addresses_.reserve(addresses);
  }

  /// Appends an address to the level that the next CloseLevel closes.
  void Append(std::string_view address) { addresses_.push_back(address); }

  /// Closes a level numbered `level` over the addresses appended since the
  /// previous level.
  void CloseLevel(uint32_t level) {
    const Level closed{level, static_cast<uint32_t>(addresses_.size())};
    if (size_ < kInlineLevels) {
      inline_levels_[size_] = closed;
    } else {
      more_levels_.push_back(closed);
    }
    ++size_;
  }

  /// Appends a level numbered `level` holding `addresses`, in order.
  void AddLevel(uint32_t level, Span<std::string_view> addresses) {
    addresses_.insert(addresses_.end(), addresses.begin(), addresses.end());
    CloseLevel(level);
  }

  /// The number of levels.
  size_t size() const { return size_; }

  /// The number of level `i` (0-based position in the table).
  uint32_t level(size_t i) const { return At(i).number; }

  /// The addresses of level `i` (0-based position in the table).
  Span<std::string_view> addresses(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : At(i - 1).end;
    return {addresses_.data() + begin, At(i).end - begin};
  }

  /// The addresses of the first level numbered `level`; none if no level is.
  Span<std::string_view> Find(uint32_t level) const {
    for (size_t i = 0; i < size_; ++i) {
      if (At(i).number == level) return addresses(i);
    }
    return {};
  }

  /// Every level's addresses, level after level.
  Span<std::string_view> all_addresses() const { return addresses_; }

  friend bool operator==(const WireRefTable&, const WireRefTable&) = default;

 private:
  struct Level {
    uint32_t number = 0;
    uint32_t end = 0;  ///< one past the level's last address in addresses_

    friend bool operator==(const Level&, const Level&) = default;
  };

  /// Levels kept in the table itself, so a table of no more levels than
  /// NodeConfig's default maxl allocates only its address list. Slots past
  /// size_ stay zero, which keeps the defaulted == exact.
  static constexpr size_t kInlineLevels = 8;

  const Level& At(size_t i) const {
    return i < kInlineLevels ? inline_levels_[i] : more_levels_[i - kInlineLevels];
  }

  uint32_t size_ = 0;
  std::array<Level, kInlineLevels> inline_levels_{};
  std::vector<Level> more_levels_;  // levels past kInlineLevels
  std::vector<std::string_view> addresses_;
};

// ---- Query ----

struct QueryRequest {
  KeyPath key;       ///< remaining query suffix
  uint32_t consumed = 0;  ///< levels of the *target's* path already matched
};

struct QueryResponseFound {
  std::string responder;
  std::vector<WireEntry> entries;  ///< entries under the query at the responder
};

struct QueryResponseForward {
  uint32_t consumed = 0;  ///< levels matched at the forwarding peer (for the next hop)
  KeyPath remaining;      ///< query suffix to present to the candidates
  std::vector<std::string> candidates;  ///< addresses at the divergence level
};

// ---- Publish ----

struct PublishRequest {
  WireEntry entry;
  uint8_t forward_to_buddies = 0;
};

struct PublishAck {
  uint8_t installed = 0;
  uint32_t buddies_notified = 0;
};

// ---- Exchange ----

struct ExchangeRequest {
  std::string initiator;
  uint64_t epoch = 0;  ///< initiator's state epoch; directives apply only if unchanged
  KeyPath path;
  WireRefTable refs;   ///< the initiator's references at every level
  uint32_t depth = 0;  ///< recursion depth (bounded by recmax)
  uint64_t index_digest = 0;  ///< initiator's index digest (as in ProbeResponse)
};

struct ExchangeResponse {
  uint64_t epoch = 0;              ///< echoed initiator epoch
  KeyPath append_bits;             ///< bits the initiator appends to its path
  WireRefTable ref_updates;        ///< full replacements per level
  std::vector<std::string_view> referrals;  ///< peers to exchange with at depth+1
  uint8_t buddy = 0;               ///< responder is a same-path replica
  std::vector<WireEntry> entries;  ///< entries the initiator should adopt
  uint8_t in_sync = 0;  ///< replica with the initiator's index digest: no entries
};

// ---- Commit ----

/// Sent by an exchange initiator after it has actually applied an append
/// directive: "my bit at `level` is now `bit`". Only then may the responder
/// install a reference to the initiator at that level -- the initiator may have
/// discarded the directive (epoch race), in which case no commit is ever sent and
/// no dangling reference is created.
struct CommitRequest {
  uint32_t level = 0;
  uint8_t bit = 0;
};

// ---- Stats ----

/// Remote metrics scrape. The JSON document is the registry snapshot produced by
/// obs::ToJson (kept as an opaque string on the wire so the metric schema can
/// evolve without protocol changes).
struct StatsResponse {
  std::string json;
};

// ---- Probe ----

/// Lightweight health probe (see repair in docs/robustness.md): unlike Ping it
/// returns enough of the target's state -- path plus an order-independent FNV
/// digest of its entry set -- for the prober to verify the reference property
/// and detect replica divergence in one round trip.
struct ProbeResponse {
  KeyPath path;
  uint32_t entry_count = 0;
  uint64_t index_digest = 0;
};

// ---- Traced envelope ----

/// Causal-tracing wrapper: any request may be sent as kTraced, which prefixes
/// the encoded inner message with the sender's TraceContext (trace id, parent
/// span id, parent depth). The receiver opens a child span under parent_span,
/// handles `inner` exactly as if it had arrived bare, and answers with the
/// ordinary (unwrapped) response. Nodes that do not trace still unwrap and
/// serve the inner request, so tracing is never load-bearing for correctness.
struct TracedEnvelope {
  obs::TraceContext ctx;
  std::string inner;  ///< complete encoded request, tag byte included
};

// ---- EntryPush ----

struct EntryPushRequest {
  std::vector<WireEntry> entries;
};

struct EntryPushResponse {
  std::vector<WireEntry> rejected;  ///< entries the receiver is not responsible for
};

// ---- Encoding / decoding ----

std::string EncodePing();
std::string EncodePong();
std::string EncodeError(const std::string& message);
std::string EncodeQueryRequest(const QueryRequest& m);
std::string EncodeQueryResponseFound(const QueryResponseFound& m);
std::string EncodeQueryResponseForward(const QueryResponseForward& m);
std::string EncodeQueryResponseMiss();
std::string EncodePublishRequest(const PublishRequest& m);
std::string EncodePublishAck(const PublishAck& m);
std::string EncodeExchangeRequest(const ExchangeRequest& m);
std::string EncodeExchangeResponse(const ExchangeResponse& m);
std::string EncodeEntryPushRequest(const EntryPushRequest& m);
std::string EncodeEntryPushResponse(const EntryPushResponse& m);
std::string EncodeCommitRequest(const CommitRequest& m);
std::string EncodeCommitAck();
std::string EncodeStatsRequest();
std::string EncodeStatsResponse(const StatsResponse& m);
std::string EncodeProbeRequest();
std::string EncodeProbeResponse(const ProbeResponse& m);
std::string EncodeTraced(const obs::TraceContext& ctx, std::string_view inner);

/// Reads the leading type tag (does not consume anything else).
Result<MsgType> PeekType(const std::string& payload);

Result<QueryRequest> DecodeQueryRequest(const std::string& payload);
Result<QueryResponseFound> DecodeQueryResponseFound(const std::string& payload);
Result<QueryResponseForward> DecodeQueryResponseForward(const std::string& payload);
Result<PublishRequest> DecodePublishRequest(const std::string& payload);
Result<PublishAck> DecodePublishAck(const std::string& payload);
// The exchange messages' address lists are views into `payload`, so they are
// valid while it lives; a temporary payload would leave them dangling.
Result<ExchangeRequest> DecodeExchangeRequest(const std::string& payload);
Result<ExchangeRequest> DecodeExchangeRequest(std::string&& payload) = delete;
Result<ExchangeResponse> DecodeExchangeResponse(const std::string& payload);
Result<ExchangeResponse> DecodeExchangeResponse(std::string&& payload) = delete;
Result<EntryPushRequest> DecodeEntryPushRequest(const std::string& payload);
Result<EntryPushResponse> DecodeEntryPushResponse(const std::string& payload);
Result<CommitRequest> DecodeCommitRequest(const std::string& payload);
Result<StatsResponse> DecodeStatsResponse(const std::string& payload);
Result<ProbeResponse> DecodeProbeResponse(const std::string& payload);
Result<TracedEnvelope> DecodeTraced(const std::string& payload);
Result<std::string> DecodeError(const std::string& payload);

}  // namespace net
}  // namespace pgrid
