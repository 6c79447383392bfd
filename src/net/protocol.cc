#include "net/protocol.h"

#include <algorithm>

namespace pgrid {
namespace net {

namespace {

void WriteEntry(ByteWriter* w, const WireEntry& e) {
  w->WriteString(e.holder);
  w->WriteU64(e.item_id);
  w->WriteKeyPath(e.key);
  w->WriteU64(e.version);
}

size_t EntrySize(const WireEntry& e) {
  return ByteWriter::StringSize(e.holder) + 8 + ByteWriter::KeyPathSize(e.key) + 8;
}

Result<WireEntry> ReadEntry(ByteReader* r) {
  WireEntry e;
  PGRID_ASSIGN_OR_RETURN(e.holder, r->ReadString());
  PGRID_ASSIGN_OR_RETURN(e.item_id, r->ReadU64());
  PGRID_ASSIGN_OR_RETURN(e.key, r->ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(e.version, r->ReadU64());
  return e;
}

void WriteEntryList(ByteWriter* w, const std::vector<WireEntry>& v) {
  w->WriteU32(static_cast<uint32_t>(v.size()));
  for (const WireEntry& e : v) WriteEntry(w, e);
}

size_t EntryListSize(const std::vector<WireEntry>& v) {
  size_t n = 4;
  for (const WireEntry& e : v) n += EntrySize(e);
  return n;
}

Result<std::vector<WireEntry>> ReadEntryList(ByteReader* r) {
  PGRID_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32());
  if (count > kMaxWireCollection) {
    return Status::InvalidArgument("entry list too large");
  }
  std::vector<WireEntry> out;
  // Each entry takes at least 24 bytes (an empty holder and key).
  out.reserve(std::min<size_t>(count, r->remaining() / 24));
  for (uint32_t i = 0; i < count; ++i) {
    PGRID_ASSIGN_OR_RETURN(WireEntry e, ReadEntry(r));
    out.push_back(std::move(e));
  }
  return out;
}

void WriteRefTable(ByteWriter* w, const WireRefTable& t) {
  w->WriteU32(static_cast<uint32_t>(t.size()));
  for (size_t i = 0; i < t.size(); ++i) {
    w->WriteU32(t.level(i));
    w->WriteStringList(t.addresses(i));
  }
}

size_t RefTableSize(const WireRefTable& t) {
  // The level count, each level's number and address count, every address.
  size_t n = 4 + 8 * t.size();
  for (std::string_view a : t.all_addresses()) n += ByteWriter::StringSize(a);
  return n;
}

Result<WireRefTable> ReadRefTable(ByteReader* r) {
  PGRID_ASSIGN_OR_RETURN(uint32_t count, r->ReadU32());
  if (count > kMaxWireCollection) {
    return Status::InvalidArgument("ref level list too large");
  }
  WireRefTable t;
  // Room for four addresses a level, NodeConfig's default refmax, so most
  // tables allocate each list once; a fuller one grows. Neither list is given
  // more room than the bytes left could fill: a level takes at least 8 bytes
  // and an address at least 4.
  t.Reserve(std::min<size_t>(count, r->remaining() / 8),
            std::min<size_t>(4 * size_t{count}, r->remaining() / 4));
  for (uint32_t i = 0; i < count; ++i) {
    PGRID_ASSIGN_OR_RETURN(uint32_t level, r->ReadU32());
    PGRID_ASSIGN_OR_RETURN(uint32_t addresses, r->ReadU32());
    if (addresses > kMaxWireCollection) {
      return Status::InvalidArgument("ref level too large");
    }
    for (uint32_t j = 0; j < addresses; ++j) {
      PGRID_ASSIGN_OR_RETURN(std::string_view a, r->ReadStringView());
      t.Append(a);
    }
    t.CloseLevel(level);
  }
  return t;
}

/// A writer holding the type tag, with room for the `body_bytes` that follow
/// it. Messages that fit the string's inline buffer leave it at 0.
ByteWriter Tagged(MsgType type, size_t body_bytes = 0) {
  ByteWriter w;
  w.Reserve(1 + body_bytes);
  w.WriteU8(static_cast<uint8_t>(type));
  return w;
}

Status CheckTag(ByteReader* r, MsgType expected) {
  PGRID_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  if (tag != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument("unexpected message type " + std::to_string(tag));
  }
  return Status::OK();
}

}  // namespace

std::string EncodePing() { return Tagged(MsgType::kPing).Take(); }
std::string EncodePong() { return Tagged(MsgType::kPong).Take(); }

std::string EncodeError(const std::string& message) {
  ByteWriter w = Tagged(MsgType::kError);
  w.WriteString(message);
  return w.Take();
}

std::string EncodeQueryRequest(const QueryRequest& m) {
  ByteWriter w = Tagged(MsgType::kQueryReq);
  w.WriteKeyPath(m.key);
  w.WriteU32(m.consumed);
  return w.Take();
}

std::string EncodeQueryResponseFound(const QueryResponseFound& m) {
  ByteWriter w = Tagged(MsgType::kQueryRespFound,
                        ByteWriter::StringSize(m.responder) + EntryListSize(m.entries));
  w.WriteString(m.responder);
  WriteEntryList(&w, m.entries);
  return w.Take();
}

std::string EncodeQueryResponseForward(const QueryResponseForward& m) {
  ByteWriter w = Tagged(MsgType::kQueryRespForward,
                        4 + ByteWriter::KeyPathSize(m.remaining) +
                            ByteWriter::StringListSize(m.candidates));
  w.WriteU32(m.consumed);
  w.WriteKeyPath(m.remaining);
  w.WriteStringList(m.candidates);
  return w.Take();
}

std::string EncodeQueryResponseMiss() {
  return Tagged(MsgType::kQueryRespMiss).Take();
}

std::string EncodePublishRequest(const PublishRequest& m) {
  ByteWriter w = Tagged(MsgType::kPublishReq, EntrySize(m.entry) + 1);
  WriteEntry(&w, m.entry);
  w.WriteU8(m.forward_to_buddies);
  return w.Take();
}

std::string EncodePublishAck(const PublishAck& m) {
  ByteWriter w = Tagged(MsgType::kPublishAck);
  w.WriteU8(m.installed);
  w.WriteU32(m.buddies_notified);
  return w.Take();
}

std::string EncodeExchangeRequest(const ExchangeRequest& m) {
  ByteWriter w = Tagged(MsgType::kExchangeReq,
                        ByteWriter::StringSize(m.initiator) + 8 +
                            ByteWriter::KeyPathSize(m.path) + RefTableSize(m.refs) +
                            4 + 8);
  w.WriteString(m.initiator);
  w.WriteU64(m.epoch);
  w.WriteKeyPath(m.path);
  WriteRefTable(&w, m.refs);
  w.WriteU32(m.depth);
  w.WriteU64(m.index_digest);
  return w.Take();
}

std::string EncodeExchangeResponse(const ExchangeResponse& m) {
  ByteWriter w = Tagged(MsgType::kExchangeResp,
                        8 + ByteWriter::KeyPathSize(m.append_bits) +
                            RefTableSize(m.ref_updates) +
                            ByteWriter::StringListSize(m.referrals) + 1 +
                            EntryListSize(m.entries) + 1);
  w.WriteU64(m.epoch);
  w.WriteKeyPath(m.append_bits);
  WriteRefTable(&w, m.ref_updates);
  w.WriteStringList(m.referrals);
  w.WriteU8(m.buddy);
  WriteEntryList(&w, m.entries);
  w.WriteU8(m.in_sync);
  return w.Take();
}

std::string EncodeEntryPushRequest(const EntryPushRequest& m) {
  ByteWriter w = Tagged(MsgType::kEntryPushReq, EntryListSize(m.entries));
  WriteEntryList(&w, m.entries);
  return w.Take();
}

std::string EncodeEntryPushResponse(const EntryPushResponse& m) {
  ByteWriter w = Tagged(MsgType::kEntryPushResp, EntryListSize(m.rejected));
  WriteEntryList(&w, m.rejected);
  return w.Take();
}

std::string EncodeCommitRequest(const CommitRequest& m) {
  ByteWriter w = Tagged(MsgType::kCommitReq);
  w.WriteU32(m.level);
  w.WriteU8(m.bit);
  return w.Take();
}

std::string EncodeCommitAck() { return Tagged(MsgType::kCommitAck).Take(); }

std::string EncodeStatsRequest() { return Tagged(MsgType::kStatsReq).Take(); }

std::string EncodeStatsResponse(const StatsResponse& m) {
  ByteWriter w = Tagged(MsgType::kStatsResp);
  w.WriteString(m.json);
  return w.Take();
}

Result<StatsResponse> DecodeStatsResponse(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kStatsResp));
  StatsResponse m;
  PGRID_ASSIGN_OR_RETURN(m.json, r.ReadString());
  return m;
}

std::string EncodeProbeRequest() { return Tagged(MsgType::kProbeReq).Take(); }

std::string EncodeProbeResponse(const ProbeResponse& m) {
  ByteWriter w = Tagged(MsgType::kProbeResp);
  w.WriteKeyPath(m.path);
  w.WriteU32(m.entry_count);
  w.WriteU64(m.index_digest);
  return w.Take();
}

Result<ProbeResponse> DecodeProbeResponse(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kProbeResp));
  ProbeResponse m;
  PGRID_ASSIGN_OR_RETURN(m.path, r.ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(m.entry_count, r.ReadU32());
  PGRID_ASSIGN_OR_RETURN(m.index_digest, r.ReadU64());
  return m;
}

Result<CommitRequest> DecodeCommitRequest(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kCommitReq));
  CommitRequest m;
  PGRID_ASSIGN_OR_RETURN(m.level, r.ReadU32());
  PGRID_ASSIGN_OR_RETURN(m.bit, r.ReadU8());
  return m;
}

Result<MsgType> PeekType(const std::string& payload) {
  if (payload.empty()) return Status::InvalidArgument("empty message");
  const uint8_t tag = static_cast<uint8_t>(payload[0]);
  if (tag < static_cast<uint8_t>(MsgType::kPing) ||
      tag > static_cast<uint8_t>(MsgType::kTraced)) {
    return Status::InvalidArgument("unknown message type " + std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

std::string EncodeTraced(const obs::TraceContext& ctx, std::string_view inner) {
  ByteWriter w = Tagged(MsgType::kTraced);
  w.WriteU64(ctx.trace_id);
  w.WriteU64(ctx.parent_span);
  w.WriteU32(ctx.depth);
  w.WriteU32(0);  // reserved for future envelope extensions (baggage, flags)
  // The inner message is appended raw (no length prefix): it is simply the rest
  // of the payload, so wrapping never hits collection-size caps.
  std::string out = w.Take();
  out.append(inner);
  return out;
}

Result<TracedEnvelope> DecodeTraced(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kTraced));
  TracedEnvelope m;
  PGRID_ASSIGN_OR_RETURN(m.ctx.trace_id, r.ReadU64());
  PGRID_ASSIGN_OR_RETURN(m.ctx.parent_span, r.ReadU64());
  PGRID_ASSIGN_OR_RETURN(m.ctx.depth, r.ReadU32());
  PGRID_ASSIGN_OR_RETURN(uint32_t reserved, r.ReadU32());
  if (reserved != 0) {
    return Status::InvalidArgument("traced envelope: unsupported extension " +
                                   std::to_string(reserved));
  }
  if (m.ctx.trace_id == 0) {
    return Status::InvalidArgument("traced envelope: zero trace id");
  }
  m.inner = r.ReadRest();
  if (m.inner.empty()) {
    return Status::InvalidArgument("traced envelope: empty inner message");
  }
  const Result<MsgType> inner_type = PeekType(m.inner);
  if (!inner_type.ok()) return inner_type.status();
  if (*inner_type == MsgType::kTraced) {
    return Status::InvalidArgument("traced envelope: nested envelope");
  }
  return m;
}

Result<QueryRequest> DecodeQueryRequest(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kQueryReq));
  QueryRequest m;
  PGRID_ASSIGN_OR_RETURN(m.key, r.ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(m.consumed, r.ReadU32());
  return m;
}

Result<QueryResponseFound> DecodeQueryResponseFound(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kQueryRespFound));
  QueryResponseFound m;
  PGRID_ASSIGN_OR_RETURN(m.responder, r.ReadString());
  PGRID_ASSIGN_OR_RETURN(m.entries, ReadEntryList(&r));
  return m;
}

Result<QueryResponseForward> DecodeQueryResponseForward(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kQueryRespForward));
  QueryResponseForward m;
  PGRID_ASSIGN_OR_RETURN(m.consumed, r.ReadU32());
  PGRID_ASSIGN_OR_RETURN(m.remaining, r.ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(m.candidates, r.ReadStringList());
  return m;
}

Result<PublishRequest> DecodePublishRequest(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kPublishReq));
  PublishRequest m;
  PGRID_ASSIGN_OR_RETURN(m.entry, ReadEntry(&r));
  PGRID_ASSIGN_OR_RETURN(m.forward_to_buddies, r.ReadU8());
  return m;
}

Result<PublishAck> DecodePublishAck(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kPublishAck));
  PublishAck m;
  PGRID_ASSIGN_OR_RETURN(m.installed, r.ReadU8());
  PGRID_ASSIGN_OR_RETURN(m.buddies_notified, r.ReadU32());
  return m;
}

Result<ExchangeRequest> DecodeExchangeRequest(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kExchangeReq));
  ExchangeRequest m;
  PGRID_ASSIGN_OR_RETURN(m.initiator, r.ReadString());
  PGRID_ASSIGN_OR_RETURN(m.epoch, r.ReadU64());
  PGRID_ASSIGN_OR_RETURN(m.path, r.ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(m.refs, ReadRefTable(&r));
  PGRID_ASSIGN_OR_RETURN(m.depth, r.ReadU32());
  PGRID_ASSIGN_OR_RETURN(m.index_digest, r.ReadU64());
  return m;
}

Result<ExchangeResponse> DecodeExchangeResponse(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kExchangeResp));
  ExchangeResponse m;
  PGRID_ASSIGN_OR_RETURN(m.epoch, r.ReadU64());
  PGRID_ASSIGN_OR_RETURN(m.append_bits, r.ReadKeyPath());
  PGRID_ASSIGN_OR_RETURN(m.ref_updates, ReadRefTable(&r));
  PGRID_ASSIGN_OR_RETURN(m.referrals, r.ReadStringViewList());
  PGRID_ASSIGN_OR_RETURN(m.buddy, r.ReadU8());
  PGRID_ASSIGN_OR_RETURN(m.entries, ReadEntryList(&r));
  PGRID_ASSIGN_OR_RETURN(m.in_sync, r.ReadU8());
  return m;
}

Result<EntryPushRequest> DecodeEntryPushRequest(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kEntryPushReq));
  EntryPushRequest m;
  PGRID_ASSIGN_OR_RETURN(m.entries, ReadEntryList(&r));
  return m;
}

Result<EntryPushResponse> DecodeEntryPushResponse(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kEntryPushResp));
  EntryPushResponse m;
  PGRID_ASSIGN_OR_RETURN(m.rejected, ReadEntryList(&r));
  return m;
}

Result<std::string> DecodeError(const std::string& payload) {
  ByteReader r(payload);
  PGRID_RETURN_IF_ERROR(CheckTag(&r, MsgType::kError));
  return r.ReadString();
}

}  // namespace net
}  // namespace pgrid
