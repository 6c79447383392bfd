#include "net/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdlib>
#include <functional>
#include <new>
#include <set>

#include "tests/hex.h"

// Heap allocations made while an AllocWatch (below) is alive: how many, and
// the largest request. The test binary replaces the global operator new to
// count them; gtest runs the tests on one thread.
static bool g_watching_allocs = false;
static uint64_t g_alloc_count = 0;
static size_t g_largest_alloc = 0;

// GCC pairs the inlined replacement delete with the allocation it inlined at
// each call site and flags the malloc/free implementation as mismatched; the
// pairing is exactly the contract of a replaced global operator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  if (g_watching_allocs) {
    ++g_alloc_count;
    g_largest_alloc = std::max(g_largest_alloc, n);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace pgrid {
namespace net {
namespace {

KeyPath P(const char* bits) { return KeyPath::FromString(bits).value(); }

/// Counts the heap allocations made during its lifetime.
class AllocWatch {
 public:
  AllocWatch() {
    g_alloc_count = 0;
    g_largest_alloc = 0;
    g_watching_allocs = true;
  }
  ~AllocWatch() { g_watching_allocs = false; }
  AllocWatch(const AllocWatch&) = delete;
  AllocWatch& operator=(const AllocWatch&) = delete;

  uint64_t count() const { return g_alloc_count; }
  size_t largest() const { return g_largest_alloc; }
};

/// A reference table of (level, addresses) pairs. Its views name string
/// literals, which outlive it.
WireRefTable Table(
    std::initializer_list<std::pair<uint32_t, std::vector<std::string_view>>> levels) {
  WireRefTable t;
  for (const auto& [level, addresses] : levels) t.AddLevel(level, addresses);
  return t;
}

/// True iff every view in `views` lies inside `buffer`.
bool AllInside(Span<std::string_view> views, const std::string& buffer) {
  const auto inside = [&buffer](std::string_view v) {
    return std::less_equal<>()(buffer.data(), v.data()) &&
           std::less_equal<>()(v.data() + v.size(), buffer.data() + buffer.size());
  };
  return std::all_of(views.begin(), views.end(), inside);
}

WireEntry Entry(const std::string& holder, uint64_t id, const char* key,
                uint64_t version = 1) {
  WireEntry e;
  e.holder = holder;
  e.item_id = id;
  e.key = P(key);
  e.version = version;
  return e;
}

TEST(ProtocolTest, PingPong) {
  EXPECT_EQ(PeekType(EncodePing()).value(), MsgType::kPing);
  EXPECT_EQ(PeekType(EncodePong()).value(), MsgType::kPong);
}

TEST(ProtocolTest, PeekTypeRejectsGarbage) {
  EXPECT_FALSE(PeekType("").ok());
  EXPECT_FALSE(PeekType(std::string(1, '\x63')).ok());
  EXPECT_FALSE(PeekType(std::string(1, '\x00')).ok());
}

TEST(ProtocolTest, ErrorRoundTrip) {
  std::string bytes = EncodeError("something broke");
  EXPECT_EQ(PeekType(bytes).value(), MsgType::kError);
  EXPECT_EQ(DecodeError(bytes).value(), "something broke");
}

TEST(ProtocolTest, QueryRequestRoundTrip) {
  QueryRequest m;
  m.key = P("10110");
  m.consumed = 3;
  auto back = DecodeQueryRequest(EncodeQueryRequest(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->key, m.key);
  EXPECT_EQ(back->consumed, 3u);
}

TEST(ProtocolTest, QueryResponsesRoundTrip) {
  QueryResponseFound found;
  found.responder = "host:1";
  found.entries = {Entry("host:2", 9, "0101", 4), Entry("host:3", 10, "01")};
  auto f = DecodeQueryResponseFound(EncodeQueryResponseFound(found));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->responder, "host:1");
  EXPECT_EQ(f->entries, found.entries);

  QueryResponseForward fwd;
  fwd.consumed = 2;
  fwd.remaining = P("110");
  fwd.candidates = {"a:1", "b:2", "c:3"};
  auto g = DecodeQueryResponseForward(EncodeQueryResponseForward(fwd));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->consumed, 2u);
  EXPECT_EQ(g->remaining, fwd.remaining);
  EXPECT_EQ(g->candidates, fwd.candidates);

  EXPECT_EQ(PeekType(EncodeQueryResponseMiss()).value(), MsgType::kQueryRespMiss);
}

TEST(ProtocolTest, PublishRoundTrip) {
  PublishRequest m;
  m.entry = Entry("h:1", 5, "111", 2);
  m.forward_to_buddies = 1;
  auto back = DecodePublishRequest(EncodePublishRequest(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->entry, m.entry);
  EXPECT_EQ(back->forward_to_buddies, 1);

  PublishAck ack;
  ack.installed = 1;
  ack.buddies_notified = 7;
  auto a = DecodePublishAck(EncodePublishAck(ack));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->installed, 1);
  EXPECT_EQ(a->buddies_notified, 7u);
}

TEST(ProtocolTest, ExchangeRequestRoundTrip) {
  ExchangeRequest m;
  m.initiator = "me:9";
  m.epoch = 42;
  m.path = P("0110");
  m.refs = Table({{1, {"a:1"}}, {2, {"b:2", "c:3"}}, {3, {}}, {4, {"d:4"}}});
  m.depth = 2;
  m.index_digest = 0xfedcba9876543210ull;
  const std::string bytes = EncodeExchangeRequest(m);
  auto back = DecodeExchangeRequest(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->initiator, "me:9");
  EXPECT_EQ(back->epoch, 42u);
  EXPECT_EQ(back->path, m.path);
  EXPECT_EQ(back->refs, m.refs);
  EXPECT_EQ(back->depth, 2u);
  EXPECT_EQ(back->index_digest, 0xfedcba9876543210ull);
}

TEST(ProtocolTest, ExchangeResponseRoundTrip) {
  ExchangeResponse m;
  m.epoch = 9;
  m.append_bits = P("1");
  m.ref_updates = Table({{3, {"x:1", "y:2"}}});
  m.referrals = {"r:1", "r:2"};
  m.buddy = 1;
  m.entries = {Entry("h:5", 77, "0110011", 3)};
  const std::string bytes = EncodeExchangeResponse(m);
  auto back = DecodeExchangeResponse(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->epoch, 9u);
  EXPECT_EQ(back->append_bits, m.append_bits);
  EXPECT_EQ(back->ref_updates, m.ref_updates);
  EXPECT_EQ(back->referrals, m.referrals);
  EXPECT_EQ(back->buddy, 1);
  EXPECT_EQ(back->entries, m.entries);
  EXPECT_EQ(back->in_sync, 0);

  // An in-sync replica answers with no entries.
  m.entries.clear();
  m.in_sync = 1;
  const std::string in_sync = EncodeExchangeResponse(m);
  back = DecodeExchangeResponse(in_sync);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->entries.empty());
  EXPECT_EQ(back->in_sync, 1);
}

TEST(ProtocolTest, EntryPushRoundTrip) {
  EntryPushRequest m;
  m.entries = {Entry("h:1", 1, "0"), Entry("h:2", 2, "1")};
  auto back = DecodeEntryPushRequest(EncodeEntryPushRequest(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->entries, m.entries);

  EntryPushResponse r;
  r.rejected = {Entry("h:1", 1, "0")};
  auto rb = DecodeEntryPushResponse(EncodeEntryPushResponse(r));
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb->rejected, r.rejected);
}

TEST(ProtocolTest, CommitRoundTrip) {
  CommitRequest m;
  m.level = 7;
  m.bit = 1;
  auto back = DecodeCommitRequest(EncodeCommitRequest(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->level, 7u);
  EXPECT_EQ(back->bit, 1);
  EXPECT_EQ(PeekType(EncodeCommitAck()).value(), MsgType::kCommitAck);
}

TEST(ProtocolTest, ProbeRoundTrip) {
  EXPECT_EQ(PeekType(EncodeProbeRequest()).value(), MsgType::kProbeReq);

  ProbeResponse m;
  m.path = P("0110");
  m.entry_count = 42;
  m.index_digest = 0xdeadbeefcafef00dull;
  const std::string wire = EncodeProbeResponse(m);
  EXPECT_EQ(PeekType(wire).value(), MsgType::kProbeResp);
  auto back = DecodeProbeResponse(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->path, m.path);
  EXPECT_EQ(back->entry_count, 42u);
  EXPECT_EQ(back->index_digest, 0xdeadbeefcafef00dull);
  // Empty path (a peer that has not specialized yet) round-trips too.
  auto fresh = DecodeProbeResponse(EncodeProbeResponse(ProbeResponse{}));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->path.length(), 0u);
  // Truncations never decode.
  for (size_t cut = 1; cut + 1 < wire.size(); ++cut) {
    EXPECT_FALSE(DecodeProbeResponse(wire.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(ProtocolTest, DecodingWrongTypeFails) {
  EXPECT_FALSE(DecodeQueryRequest(EncodePing()).ok());
  const std::string query = EncodeQueryRequest(QueryRequest{});
  EXPECT_FALSE(DecodeExchangeRequest(query).ok());
  EXPECT_FALSE(DecodePublishAck(EncodeError("x")).ok());
  EXPECT_FALSE(DecodeProbeResponse(EncodeProbeRequest()).ok());
}

TEST(ProtocolTest, DecodingTruncatedMessagesFails) {
  // Every cut, the trailing index_digest and in_sync fields included.
  const std::string request = EncodeExchangeRequest(ExchangeRequest{
      "a:1", 1, P("01"), Table({{1, {"b:2"}}}), 0, /*index_digest=*/7});
  for (size_t cut = 1; cut < request.size(); ++cut) {
    const std::string prefix = request.substr(0, cut);
    EXPECT_FALSE(DecodeExchangeRequest(prefix).ok()) << "cut at " << cut;
  }
  ExchangeResponse resp;
  resp.buddy = 1;
  resp.entries = {Entry("h:5", 77, "0110011", 3)};
  const std::string response = EncodeExchangeResponse(resp);
  for (size_t cut = 1; cut < response.size(); ++cut) {
    const std::string prefix = response.substr(0, cut);
    EXPECT_FALSE(DecodeExchangeResponse(prefix).ok()) << "cut at " << cut;
  }
}

TEST(ProtocolTest, TracedEnvelopeRoundTrip) {
  QueryRequest q;
  q.key = P("10110");
  q.consumed = 2;
  obs::TraceContext ctx{/*trace_id=*/0xDEAD, /*parent_span=*/0xBEEF,
                        /*depth=*/3};
  const std::string bytes = EncodeTraced(ctx, EncodeQueryRequest(q));
  EXPECT_EQ(PeekType(bytes).value(), MsgType::kTraced);

  Result<TracedEnvelope> env = DecodeTraced(bytes);
  ASSERT_TRUE(env.ok()) << env.status().message();
  EXPECT_EQ(env->ctx.trace_id, 0xDEADu);
  EXPECT_EQ(env->ctx.parent_span, 0xBEEFu);
  EXPECT_EQ(env->ctx.depth, 3u);
  // The inner message survives byte for byte and decodes as if it arrived bare.
  EXPECT_EQ(env->inner, EncodeQueryRequest(q));
  Result<QueryRequest> inner = DecodeQueryRequest(env->inner);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->key, q.key);
  EXPECT_EQ(inner->consumed, 2u);
}

TEST(ProtocolTest, TracedEnvelopeWrapsEveryRequestShape) {
  // The envelope appends the inner message raw (no length prefix), so wrapping
  // must work for any request, including ones with nested collections.
  ExchangeRequest ex{"a:1", 1, P("01"), Table({{1, {"b:2", "c:3"}}}), 0};
  obs::TraceContext ctx{7, 7, 0};
  for (const std::string& inner :
       {EncodePing(), EncodeProbeRequest(), EncodeStatsRequest(),
        EncodeExchangeRequest(ex)}) {
    Result<TracedEnvelope> env = DecodeTraced(EncodeTraced(ctx, inner));
    ASSERT_TRUE(env.ok()) << env.status().message();
    EXPECT_EQ(env->inner, inner);
  }
}

TEST(ProtocolTest, TracedEnvelopeRejectsMalformedInput) {
  const obs::TraceContext ctx{5, 5, 0};
  const std::string ping = EncodePing();

  // Zero trace id: a default (invalid) context must never reach the wire.
  EXPECT_FALSE(DecodeTraced(EncodeTraced(obs::TraceContext{}, ping)).ok());
  // Empty inner message.
  EXPECT_FALSE(DecodeTraced(EncodeTraced(ctx, "")).ok());
  // Nested envelope: one level only, recursion is refused.
  EXPECT_FALSE(DecodeTraced(EncodeTraced(ctx, EncodeTraced(ctx, ping))).ok());
  // Inner bytes with a garbage tag.
  EXPECT_FALSE(DecodeTraced(EncodeTraced(ctx, std::string(1, '\x63'))).ok());
  // Nonzero reserved word: flip the reserved u32 (the 4 bytes before the inner
  // message starts) in an otherwise valid envelope.
  std::string bytes = EncodeTraced(ctx, ping);
  const size_t inner_start = bytes.size() - ping.size();
  bytes[inner_start - 1] = '\x01';
  EXPECT_FALSE(DecodeTraced(bytes).ok());
  // Truncated at every prefix length.
  const std::string full = EncodeTraced(ctx, ping);
  for (size_t cut = 1; cut + 1 < full.size(); ++cut) {
    EXPECT_FALSE(DecodeTraced(full.substr(0, cut)).ok()) << "cut at " << cut;
  }
}

// ---- Pinned bytes ----
//
// One message of every type, with bytes captured from a bit-by-bit encoder.
// Each must encode to exactly these bytes, and the pinned bytes must decode to
// a message that encodes to them again.

using testing_util::Hex;
using testing_util::Unhex;

struct PinnedMessage {
  const char* name;
  std::string encoded;
  const char* hex;
  /// Decodes and encodes again; tag-only messages need none.
  std::function<Result<std::string>(const std::string&)> reencode;
};

template <typename M>
std::function<Result<std::string>(const std::string&)> Reencode(
    Result<M> (*decode)(const std::string&), std::string (*encode)(const M&)) {
  return [decode, encode](const std::string& bytes) -> Result<std::string> {
    PGRID_ASSIGN_OR_RETURN(M m, decode(bytes));
    return encode(m);
  };
}

TEST(ProtocolTest, EveryMessageTypeEncodesToPinnedBytes) {
  const WireEntry entry = Entry("node:2", 9, "0110011", 4);
  QueryRequest query{P("1001111001100100"), 3};
  QueryResponseFound found{"node:1", {entry}};
  QueryResponseForward forward{2, P("110"), {"node:3", "node:4", "node:5"}};
  PublishRequest publish{entry, 1};
  PublishAck ack{1, 7};
  ExchangeRequest exchange{"node:9", 42, P("01101"),
                           Table({{1, {"a:1"}}, {2, {"b:2", "c:3"}}}),
                           2, 0xfedcba9876543210ull};
  ExchangeResponse exchanged;
  exchanged.epoch = 9;
  exchanged.append_bits = P("1");
  exchanged.ref_updates = Table({{3, {"x:1"}}});
  exchanged.referrals = {"r:1"};
  exchanged.buddy = 1;
  exchanged.entries = {entry};
  EntryPushRequest push{{Entry("h:1", 1, "0"), Entry("h:2", 2, "1")}};
  EntryPushResponse rejected{{Entry("h:1", 1, "0")}};
  CommitRequest commit{7, 1};
  StatsResponse stats{"{}"};
  ProbeResponse probe{P("0110"), 42, 0xdeadbeefcafef00dull};
  const obs::TraceContext ctx{0xDEAD, 0xBEEF, 3};

  const std::vector<PinnedMessage> cases = {
      {"ping", EncodePing(), "01", nullptr},
      {"pong", EncodePong(), "02", nullptr},
      {"error", EncodeError("bad"),
       "0d03000000626164",
       Reencode(&DecodeError, &EncodeError)},
      {"query", EncodeQueryRequest(query),
       "0310000000792603000000",
       Reencode(&DecodeQueryRequest, &EncodeQueryRequest)},
      {"found", EncodeQueryResponseFound(found),
       "04060000006e6f64653a3101000000060000006e6f64653a3209000000000000"
       "0007000000660400000000000000",
       Reencode(&DecodeQueryResponseFound, &EncodeQueryResponseFound)},
      {"forward", EncodeQueryResponseForward(forward),
       "0502000000030000000303000000060000006e6f64653a33060000006e6f6465"
       "3a34060000006e6f64653a35",
       Reencode(&DecodeQueryResponseForward, &EncodeQueryResponseForward)},
      {"miss", EncodeQueryResponseMiss(), "06", nullptr},
      {"publish", EncodePublishRequest(publish),
       "07060000006e6f64653a32090000000000000007000000660400000000000000"
       "01",
       Reencode(&DecodePublishRequest, &EncodePublishRequest)},
      {"publish_ack", EncodePublishAck(ack),
       "080107000000",
       Reencode(&DecodePublishAck, &EncodePublishAck)},
      {"exchange", EncodeExchangeRequest(exchange),
       "09060000006e6f64653a392a0000000000000005000000160200000001000000"
       "0100000003000000613a31020000000200000003000000623a3203000000633a"
       "33020000001032547698badcfe",
       Reencode(&DecodeExchangeRequest, &EncodeExchangeRequest)},
      {"exchange_resp", EncodeExchangeResponse(exchanged),
       "0a0900000000000000010000000101000000030000000100000003000000783a"
       "310100000003000000723a310101000000060000006e6f64653a320900000000"
       "0000000700000066040000000000000000",
       Reencode(&DecodeExchangeResponse, &EncodeExchangeResponse)},
      {"entry_push", EncodeEntryPushRequest(push),
       "0b0200000003000000683a310100000000000000010000000001000000000000"
       "0003000000683a32020000000000000001000000010100000000000000",
       Reencode(&DecodeEntryPushRequest, &EncodeEntryPushRequest)},
      {"entry_push_resp", EncodeEntryPushResponse(rejected),
       "0c0100000003000000683a310100000000000000010000000001000000000000"
       "00",
       Reencode(&DecodeEntryPushResponse, &EncodeEntryPushResponse)},
      {"commit", EncodeCommitRequest(commit),
       "0e0700000001",
       Reencode(&DecodeCommitRequest, &EncodeCommitRequest)},
      {"commit_ack", EncodeCommitAck(), "0f", nullptr},
      {"stats", EncodeStatsRequest(), "10", nullptr},
      {"stats_resp", EncodeStatsResponse(stats),
       "11020000007b7d",
       Reencode(&DecodeStatsResponse, &EncodeStatsResponse)},
      {"probe", EncodeProbeRequest(), "12", nullptr},
      {"probe_resp", EncodeProbeResponse(probe),
       "1304000000062a0000000df0fecaefbeadde",
       Reencode(&DecodeProbeResponse, &EncodeProbeResponse)},
      {"traced", EncodeTraced(ctx, EncodeQueryRequest(query)),
       "14adde000000000000efbe000000000000030000000000000003100000007926"
       "03000000",
       [](const std::string& bytes) -> Result<std::string> {
         PGRID_ASSIGN_OR_RETURN(TracedEnvelope env, DecodeTraced(bytes));
         return EncodeTraced(env.ctx, env.inner);
       }},
  };
  std::set<MsgType> types;
  for (const PinnedMessage& c : cases) {
    EXPECT_EQ(Hex(c.encoded), c.hex) << c.name;
    const std::string pinned = Unhex(c.hex);
    Result<MsgType> type = PeekType(pinned);
    ASSERT_TRUE(type.ok()) << c.name;
    types.insert(*type);
    if (c.reencode == nullptr) {
      EXPECT_EQ(pinned.size(), 1u) << c.name;
      continue;
    }
    Result<std::string> again = c.reencode(pinned);
    ASSERT_TRUE(again.ok()) << c.name << ": " << again.status();
    EXPECT_EQ(Hex(*again), c.hex) << c.name;
  }
  EXPECT_EQ(types.size(), static_cast<size_t>(MsgType::kTraced)) << "a type is not pinned";
}

TEST(ProtocolTest, KeyPaddingBitsAreIgnoredOnDecode) {
  // Senders write the bits past a key's length in its last byte as 0; a
  // receiver ignores them, since KeyPath's ==, Hash() and <=> assume zeros.
  for (const char* bits : {"10110", "1001111001100100110", "1",
                           "10011110011001000110110001001111010110001000010111011110100"
                           "010100101001100000010101100011011000001010011101001111010001"
                           "10001001"}) {
    const KeyPath key = P(bits);
    const std::string clean = EncodeQueryRequest(QueryRequest{key, 3});
    // tag | u32 key length | key bytes | u32 consumed
    const size_t last_key_byte = 1 + 4 + (key.length() - 1) / 8;
    std::string dirty = clean;
    dirty[last_key_byte] |= static_cast<char>(0xff << (key.length() % 8));
    ASSERT_NE(dirty, clean) << bits;

    Result<QueryRequest> back = DecodeQueryRequest(dirty);
    ASSERT_TRUE(back.ok()) << bits;
    EXPECT_EQ(back->key, key) << bits;
    EXPECT_EQ(back->key.Hash(), key.Hash()) << bits;
    EXPECT_EQ(back->key <=> key, std::strong_ordering::equal) << bits;
    EXPECT_EQ(back->consumed, 3u) << bits;
    EXPECT_EQ(EncodeQueryRequest(*back), clean) << bits;
  }
}

TEST(ProtocolTest, HostileCountsFailAsTruncatedWithoutLargeAllocations) {
  // Each body claims 2^20 elements and ends right after the count.
  // tag | u32 entry count
  const std::string push = Unhex("0b" "00001000");
  // tag | empty initiator | u64 epoch | empty path | u32 level count
  const std::string exchange =
      Unhex("09" "00000000" "0000000000000000" "00000000" "00001000");
  ASSERT_EQ(push.size(), 5u);
  ASSERT_EQ(exchange.size(), 21u);
  Status push_status;
  Status exchange_status;
  size_t largest = 0;
  {
    AllocWatch watch;
    push_status = DecodeEntryPushRequest(push).status();
    exchange_status = DecodeExchangeRequest(exchange).status();
    largest = watch.largest();
  }
  for (const Status& s : {push_status, exchange_status}) {
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
    EXPECT_NE(s.message().find("truncated message"), std::string::npos) << s;
  }
  // A reserve sized by the claimed count would ask for 32-64 MiB here.
  EXPECT_LE(largest, size_t{64} << 10);
}

TEST(ProtocolTest, HostileAddressCountsReserveNoMoreThanTheBytesHold) {
  // Exchange messages claiming 2^20 reference levels, 2^20 addresses in one
  // level or 2^20 referrals, each followed by 1 KiB of zeros: room for 128
  // empty levels or 256 empty addresses, after which the bytes run out.
  const std::string padding(1024, '\0');
  // tag | empty initiator | u64 epoch | empty path
  const std::string request = Unhex("09" "00000000" "0000000000000000" "00000000");
  // tag | u64 epoch | empty append bits | no levels
  const std::string response = Unhex("0a" "0000000000000000" "00000000" "00000000");
  const std::string levels = request + Unhex("00001000") + padding;
  const std::string addresses =
      request + Unhex("01000000" "01000000" "00001000") + padding;
  const std::string referrals = response + Unhex("00001000") + padding;
  for (const std::string* bytes : {&levels, &addresses, &referrals}) {
    Status status;
    size_t largest = 0;
    {
      AllocWatch watch;
      status = bytes == &referrals ? DecodeExchangeResponse(*bytes).status()
                                   : DecodeExchangeRequest(*bytes).status();
      largest = watch.largest();
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("truncated message"), std::string::npos) << status;
    // The most views 1 KiB can hold; a reserve sized by the claimed count
    // would ask for 16 MiB.
    EXPECT_LE(largest, padding.size() / 4 * sizeof(std::string_view)) << status;
  }
}

// The exchange decoders' address lists view their payload, so a temporary
// payload does not compile.
template <typename Payload>
concept DecodesExchangeRequest =
    requires(Payload&& p) { DecodeExchangeRequest(std::forward<Payload>(p)); };
template <typename Payload>
concept DecodesExchangeResponse =
    requires(Payload&& p) { DecodeExchangeResponse(std::forward<Payload>(p)); };
static_assert(DecodesExchangeRequest<const std::string&>);
static_assert(DecodesExchangeResponse<std::string&>);
static_assert(!DecodesExchangeRequest<std::string>);
static_assert(!DecodesExchangeResponse<std::string>);

TEST(ProtocolTest, DecodedAddressListsViewThePayload) {
  ExchangeRequest m;
  m.initiator = "me:9";
  m.path = P("0110");
  m.refs = Table({{1, {"a:1"}}, {2, {"b:2", "long-address:40004"}}, {3, {}}});
  ExchangeResponse r;
  r.ref_updates = Table({{3, {"x:1", "y:2"}}, {4, {"long-address:40006"}}});
  r.referrals = {"r:1", "long-address:40007"};
  r.entries = {Entry("h:5", 77, "0110011", 3)};
  const std::string request = EncodeExchangeRequest(m);
  const std::string response = EncodeExchangeResponse(r);

  Result<ExchangeRequest> req = DecodeExchangeRequest(request);
  Result<ExchangeResponse> resp = DecodeExchangeResponse(response);
  ASSERT_TRUE(req.ok() && resp.ok());
  EXPECT_EQ(req->refs, m.refs);
  EXPECT_EQ(resp->ref_updates, r.ref_updates);
  EXPECT_EQ(resp->referrals, r.referrals);
  EXPECT_EQ(req->refs.all_addresses().size(), 3u);
  EXPECT_TRUE(AllInside(req->refs.all_addresses(), request));
  EXPECT_TRUE(AllInside(resp->ref_updates.all_addresses(), response));
  EXPECT_TRUE(AllInside(resp->referrals, response));
  // Levels keep their numbers and bounds in the flat list.
  ASSERT_EQ(req->refs.size(), 3u);
  EXPECT_EQ(req->refs.level(1), 2u);
  EXPECT_EQ(req->refs.addresses(1)[1], "long-address:40004");
  EXPECT_TRUE(req->refs.Find(3).empty());
  EXPECT_TRUE(req->refs.Find(7).empty());
  EXPECT_EQ(resp->ref_updates.Find(4)[0], "long-address:40006");
}

TEST(ProtocolTest, SizedEncodersAllocateOnce) {
  // Each message outgrows any inline string buffer; an encoder that reserves
  // its exact size allocates once, one that under-counts grows again.
  const WireEntry entry = Entry("127.0.0.1:40002", 9, "0110011001100110", 4);
  ExchangeRequest exchange{"127.0.0.1:40001", 42, P("01101"),
                           Table({{1, {"127.0.0.1:40003"}},
                                  {2, {"127.0.0.1:40004", "127.0.0.1:40005"}}}),
                           2, 7};
  ExchangeResponse exchanged;
  exchanged.append_bits = P("1");
  exchanged.ref_updates = Table({{3, {"127.0.0.1:40006"}}});
  exchanged.referrals = {"127.0.0.1:40007", "127.0.0.1:40008"};
  exchanged.entries = {entry, entry};
  const QueryResponseFound found{"127.0.0.1:40009", {entry}};
  const QueryResponseForward forward{2, P("110"), {"127.0.0.1:40007", "127.0.0.1:40008"}};
  const PublishRequest publish{entry, 1};
  const EntryPushRequest push{{entry, entry}};
  const EntryPushResponse rejected{{entry}};
  // The messages are built above, so the watch sees only the encoding.
  const std::vector<std::pair<const char*, std::function<std::string()>>> encoders = {
      {"exchange", [&] { return EncodeExchangeRequest(exchange); }},
      {"exchange_resp", [&] { return EncodeExchangeResponse(exchanged); }},
      {"found", [&] { return EncodeQueryResponseFound(found); }},
      {"forward", [&] { return EncodeQueryResponseForward(forward); }},
      {"publish", [&] { return EncodePublishRequest(publish); }},
      {"entry_push", [&] { return EncodeEntryPushRequest(push); }},
      {"entry_push_resp", [&] { return EncodeEntryPushResponse(rejected); }},
  };
  for (const auto& [name, encode] : encoders) {
    const size_t size = encode().size();
    ASSERT_GT(size, 32u) << name;
    uint64_t count = 0;
    size_t largest = 0;
    {
      AllocWatch watch;
      const std::string bytes = encode();
      count = watch.count();
      largest = watch.largest();
    }
    EXPECT_EQ(count, 1u) << name;
    // The one buffer is the message and its terminator, give or take an
    // allocator's rounding.
    EXPECT_GE(largest, size + 1) << name;
    EXPECT_LE(largest, size + 16) << name;
  }
}

}  // namespace
}  // namespace net
}  // namespace pgrid
