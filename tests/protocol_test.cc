#include "net/protocol.h"

#include <gtest/gtest.h>

namespace pgrid {
namespace net {
namespace {

KeyPath P(const char* bits) { return KeyPath::FromString(bits).value(); }

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
  m.refs = {WireRefLevel{1, {"a:1"}}, WireRefLevel{2, {"b:2", "c:3"}},
            WireRefLevel{3, {}}, WireRefLevel{4, {"d:4"}}};
  m.depth = 2;
  m.index_digest = 0xfedcba9876543210ull;
  auto back = DecodeExchangeRequest(EncodeExchangeRequest(m));
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
  m.ref_updates = {WireRefLevel{3, {"x:1", "y:2"}}};
  m.referrals = {"r:1", "r:2"};
  m.buddy = 1;
  m.entries = {Entry("h:5", 77, "0110011", 3)};
  auto back = DecodeExchangeResponse(EncodeExchangeResponse(m));
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
  back = DecodeExchangeResponse(EncodeExchangeResponse(m));
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
  EXPECT_FALSE(DecodeExchangeRequest(EncodeQueryRequest(QueryRequest{})).ok());
  EXPECT_FALSE(DecodePublishAck(EncodeError("x")).ok());
  EXPECT_FALSE(DecodeProbeResponse(EncodeProbeRequest()).ok());
}

TEST(ProtocolTest, DecodingTruncatedMessagesFails) {
  // Every cut, the trailing index_digest and in_sync fields included.
  const std::string request = EncodeExchangeRequest(ExchangeRequest{
      "a:1", 1, P("01"), {WireRefLevel{1, {"b:2"}}}, 0, /*index_digest=*/7});
  for (size_t cut = 1; cut < request.size(); ++cut) {
    EXPECT_FALSE(DecodeExchangeRequest(request.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  ExchangeResponse resp;
  resp.buddy = 1;
  resp.entries = {Entry("h:5", 77, "0110011", 3)};
  const std::string response = EncodeExchangeResponse(resp);
  for (size_t cut = 1; cut < response.size(); ++cut) {
    EXPECT_FALSE(DecodeExchangeResponse(response.substr(0, cut)).ok())
        << "cut at " << cut;
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
  ExchangeRequest ex{"a:1", 1, P("01"), {WireRefLevel{1, {"b:2", "c:3"}}}, 0};
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

}  // namespace
}  // namespace net
}  // namespace pgrid
