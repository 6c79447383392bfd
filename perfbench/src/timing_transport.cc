#include "timing_transport.h"

#include <utility>

#include "net/protocol.h"

namespace perfbench {

namespace net = pgrid::net;

namespace {

/// Payloads kept per tag for the codec timing; enough to cover the size mix.
constexpr size_t kCapturePerTag = 256;

HandlerKind KindOf(const std::string& request) {
  if (request.empty()) return HandlerKind::kOther;
  switch (static_cast<net::MsgType>(static_cast<uint8_t>(request[0]))) {
    case net::MsgType::kQueryReq: return HandlerKind::kQuery;
    case net::MsgType::kPublishReq: return HandlerKind::kPublish;
    case net::MsgType::kExchangeReq: return HandlerKind::kExchange;
    case net::MsgType::kCommitReq: return HandlerKind::kCommit;
    case net::MsgType::kEntryPushReq: return HandlerKind::kEntryPush;
    default: return HandlerKind::kOther;
  }
}

/// Decodes one payload with the matching public Decode* function; returns
/// false for tags without one.
bool DecodeOne(const std::string& p) {
  switch (static_cast<net::MsgType>(static_cast<uint8_t>(p[0]))) {
    case net::MsgType::kQueryReq: return net::DecodeQueryRequest(p).ok();
    case net::MsgType::kQueryRespFound: return net::DecodeQueryResponseFound(p).ok();
    case net::MsgType::kQueryRespForward: return net::DecodeQueryResponseForward(p).ok();
    case net::MsgType::kPublishReq: return net::DecodePublishRequest(p).ok();
    case net::MsgType::kPublishAck: return net::DecodePublishAck(p).ok();
    case net::MsgType::kExchangeReq: return net::DecodeExchangeRequest(p).ok();
    case net::MsgType::kExchangeResp: return net::DecodeExchangeResponse(p).ok();
    case net::MsgType::kEntryPushReq: return net::DecodeEntryPushRequest(p).ok();
    case net::MsgType::kEntryPushResp: return net::DecodeEntryPushResponse(p).ok();
    case net::MsgType::kCommitReq: return net::DecodeCommitRequest(p).ok();
    default: return false;
  }
}

}  // namespace

SelfTimer::Closed SelfTimer::Exit(uint64_t now_ns) {
  const Frame f = stack_.back();
  stack_.pop_back();
  Closed c;
  c.dur_ns = now_ns - f.start_ns;
  c.self_ns = c.dur_ns > f.child_ns ? c.dur_ns - f.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += c.dur_ns;
  return c;
}

const char* OpName(Op op) {
  static const char* const kNames[kNumOps] = {"search", "publish", "meet"};
  return kNames[static_cast<int>(op)];
}

const char* HandlerName(HandlerKind h) {
  static const char* const kNames[kNumHandlers] = {"query",  "publish",    "exchange",
                                                   "commit", "entry_push", "other"};
  return kNames[static_cast<int>(h)];
}

TimingTransport::TimingTransport(net::RpcTransport* inner,
                                 pgrid::obs::TraceRecorder* recorder, ClockFn clock)
    : inner_(inner), recorder_(recorder), clock_(clock) {}

pgrid::Status TimingTransport::Serve(const std::string& address, Handler handler) {
  return inner_->Serve(address, [this, handler = std::move(handler)](
                                    const std::string& from, const std::string& request) {
    if (current_op_ < 0) return handler(from, request);
    const HandlerKind kind = KindOf(request);
    Enter(std::string("serve.") + HandlerName(kind));
    std::string response = handler(from, request);
    const SelfTimer::Closed c = Leave();
    HandlerStats& s = handlers_[static_cast<int>(kind)];
    ++s.served;
    s.self_ns += c.self_ns;
    s.self_us.Add(static_cast<double>(c.self_ns) / 1e3);
    return response;
  });
}

void TimingTransport::StopServing(const std::string& address) {
  inner_->StopServing(address);
}

pgrid::Result<std::string> TimingTransport::Call(const std::string& to,
                                                 const std::string& from,
                                                 const std::string& request) {
  if (current_op_ < 0) return inner_->Call(to, from, request);
  Enter(std::string("call.") + HandlerName(KindOf(request)));
  pgrid::Result<std::string> response = inner_->Call(to, from, request);
  const SelfTimer::Closed c = Leave();
  transport_self_ns_ += c.self_ns;

  // Bookkeeping below runs inside the caller's frame; keep it out of the
  // caller's self time.
  const uint64_t t0 = clock_();
  OpStats& s = ops_[current_op_];
  ++s.calls;
  s.req_bytes += request.size();
  if (response.ok()) s.resp_bytes += response->size();
  const HandlerKind kind = KindOf(request);
  if (kind == HandlerKind::kExchange && response.ok()) {
    pgrid::Result<net::ExchangeResponse> r = net::DecodeExchangeResponse(*response);
    if (r.ok()) s.entries_shipped += r->entries.size();
  } else if (kind == HandlerKind::kEntryPush) {
    pgrid::Result<net::EntryPushRequest> r = net::DecodeEntryPushRequest(request);
    if (r.ok()) s.entries_shipped += r->entries.size();
  }
  Capture(request);
  if (response.ok()) Capture(*response);
  timer_.Exclude(clock_() - t0);
  return response;
}

void TimingTransport::BeginOp(Op op) {
  current_op_ = static_cast<int>(op);
  Enter(OpName(op));
}

void TimingTransport::EndOp() {
  const SelfTimer::Closed c = Leave();
  OpStats& s = ops_[current_op_];
  ++s.ops;
  s.self_ns += c.self_ns;
  s.self_us.Add(static_cast<double>(c.self_ns) / 1e3);
  current_op_ = -1;
}

void TimingTransport::Enter(const std::string& span) {
  const uint64_t t0 = clock_();
  OpenSpan(span);
  timer_.Exclude(clock_() - t0);
  timer_.Enter(clock_());
}

SelfTimer::Closed TimingTransport::Leave() {
  const SelfTimer::Closed c = timer_.Exit(clock_());
  const uint64_t t0 = clock_();
  CloseSpan();
  timer_.Exclude(clock_() - t0);
  return c;
}

void TimingTransport::OpenSpan(const std::string& name) {
  if (recorder_ == nullptr) return;
  SpanFrame f;
  if (spans_.empty()) {
    f.span_id = recorder_->BeginTrace(name);
    f.ctx = pgrid::obs::TraceContext{f.span_id, f.span_id, 0};
  } else {
    const pgrid::obs::TraceContext& parent = spans_.back().ctx;
    f.span_id = recorder_->BeginSpan(parent, name);
    f.ctx = pgrid::obs::TraceContext{parent.trace_id, f.span_id, parent.depth + 1};
  }
  spans_.push_back(f);
}

void TimingTransport::CloseSpan() {
  if (recorder_ == nullptr) return;
  recorder_->EndSpan(spans_.back().span_id);
  spans_.pop_back();
}

void TimingTransport::Capture(const std::string& payload) {
  if (payload.empty()) return;
  const uint8_t tag = static_cast<uint8_t>(payload[0]);
  if (tag >= captured_.size() || captured_[tag].size() >= kCapturePerTag) return;
  captured_[tag].push_back(payload);
}

double TimingTransport::CodecNsPerByte() const {
  std::vector<const std::string*> payloads;
  uint64_t bytes = 0;
  for (const std::vector<std::string>& per_tag : captured_) {
    for (const std::string& p : per_tag) {
      if (!DecodeOne(p)) continue;
      payloads.push_back(&p);
      bytes += p.size();
    }
  }
  if (bytes == 0) return 0.0;
  constexpr int kRounds = 20;
  const uint64_t start = NowNs();
  size_t ok = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string* p : payloads) ok += DecodeOne(*p) ? 1 : 0;
  }
  const uint64_t elapsed = NowNs() - start;
  return ok == 0 ? 0.0
                 : static_cast<double>(elapsed) / (static_cast<double>(bytes) * kRounds);
}

}  // namespace perfbench
