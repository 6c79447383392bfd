// The traced run's view of the node layer: an RpcTransport decorator that
// times every call and every served handler, plus the client operations the
// benchmark wraps around its public calls.
//
// InProcTransport runs each handler on the caller's thread, so calls nest:
// client op -> call -> handler -> call -> handler ... A stack of open frames
// gives each frame its parent, and each frame's self time is its duration minus
// the durations of the frames nested in it. A handler's self time is therefore
// its own work without the outbound calls it makes; a call's self time is the
// transport's own cost; a client op's self time is the node's client-side work.
//
// Only traffic inside a client operation is accounted; set-up traffic passes
// straight through. All calls must come from one thread (the node workloads
// have one client and InProcTransport serves on the caller's thread).

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace perfbench {

/// Nested-frame accounting: each Exit returns the frame's duration and its
/// self time (duration minus the durations of frames closed inside it).
class SelfTimer {
 public:
  struct Closed {
    uint64_t dur_ns = 0;
    uint64_t self_ns = 0;
  };

  void Enter(uint64_t now_ns) { stack_.push_back(Frame{now_ns, 0}); }
  Closed Exit(uint64_t now_ns);

  /// Removes `ns` from the open frame's self time (work the accounting itself
  /// did inside it).
  void Exclude(uint64_t ns) {
    if (!stack_.empty()) stack_.back().child_ns += ns;
  }
  size_t depth() const { return stack_.size(); }

 private:
  struct Frame {
    uint64_t start_ns;
    uint64_t child_ns;
  };
  std::vector<Frame> stack_;
};

/// The client operations of the node workloads.
enum class Op : int { kSearch = 0, kPublish, kMeet };
inline constexpr int kNumOps = 3;
const char* OpName(Op op);

/// Handler kinds, by request tag.
enum class HandlerKind : int { kQuery = 0, kPublish, kExchange, kCommit, kEntryPush, kOther };
inline constexpr int kNumHandlers = 6;
const char* HandlerName(HandlerKind h);

class TimingTransport : public pgrid::net::RpcTransport {
 public:
  using ClockFn = uint64_t (*)();

  /// `inner` must outlive this decorator. Spans go to `recorder` when it is
  /// non-null. `clock` is replaceable for tests.
  TimingTransport(pgrid::net::RpcTransport* inner, pgrid::obs::TraceRecorder* recorder,
                  ClockFn clock = NowNs);

  pgrid::Status Serve(const std::string& address, Handler handler) override;
  void StopServing(const std::string& address) override;
  pgrid::Result<std::string> Call(const std::string& to, const std::string& from,
                                  const std::string& request) override;

  /// Opens / closes one client operation (a public PGridNode call the
  /// benchmark makes). Calls made in between are charged to it.
  void BeginOp(Op op);
  void EndOp();

  struct OpStats {
    uint64_t ops = 0;
    uint64_t calls = 0;
    uint64_t req_bytes = 0;
    uint64_t resp_bytes = 0;
    uint64_t self_ns = 0;
    Samples self_us;
    /// Entries shipped to the initiator in exchange responses and entry pushes.
    uint64_t entries_shipped = 0;
  };
  struct HandlerStats {
    uint64_t served = 0;
    uint64_t self_ns = 0;
    Samples self_us;
  };

  const OpStats& op(Op op) const { return ops_[static_cast<int>(op)]; }
  const HandlerStats& handler(HandlerKind h) const { return handlers_[static_cast<int>(h)]; }

  /// Time inside Call that no handler accounts for: the transport's own cost.
  uint64_t transport_self_ns() const { return transport_self_ns_; }

  /// Decodes the captured traffic with the public Decode* functions and
  /// returns nanoseconds per payload byte (0 if nothing was captured).
  double CodecNsPerByte() const;

 private:
  /// Open frame of the span tree handed to the recorder.
  struct SpanFrame {
    uint64_t span_id = 0;
    pgrid::obs::TraceContext ctx;
  };

  /// Opens a frame (and its span); span bookkeeping is kept out of every
  /// frame's self time.
  void Enter(const std::string& span);
  SelfTimer::Closed Leave();
  void OpenSpan(const std::string& name);
  void CloseSpan();
  void Capture(const std::string& payload);

  pgrid::net::RpcTransport* inner_;
  pgrid::obs::TraceRecorder* recorder_;
  ClockFn clock_;
  SelfTimer timer_;
  std::vector<SpanFrame> spans_;
  int current_op_ = -1;
  std::array<OpStats, kNumOps> ops_;
  std::array<HandlerStats, kNumHandlers> handlers_;
  uint64_t transport_self_ns_ = 0;
  /// Captured payloads per tag byte, for CodecNsPerByte.
  std::array<std::vector<std::string>, 32> captured_;
};

}  // namespace perfbench
