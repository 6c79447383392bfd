// TCP socket transport: length-prefixed request/response frames.
//
// Addresses are "host:port" strings (IPv4). Each served address runs an acceptor
// thread; each accepted connection is handled on its own thread (read one request
// frame, invoke the handler, write one response frame, close). Call() opens a fresh
// connection per request -- simple, stateless, and adequate for the protocol's
// message sizes; a production deployment would pool connections.
//
// Frame layout: u32 total length, then u32 from-length + from bytes, then payload.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/transport.h"
#include "obs/metrics.h"

namespace pgrid {
namespace net {

/// RPC transport over TCP sockets.
class TcpTransport : public RpcTransport {
 public:
  /// `registry` is where the transport's RPC metrics live ("rpc.*" names); pass
  /// one shared with the node it carries so a single kStats scrape covers both,
  /// or null to let the transport own a private registry.
  explicit TcpTransport(obs::MetricsRegistry* registry = nullptr);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status Serve(const std::string& address, Handler handler) override;
  /// Closes the listener, then waits for every in-flight handler of `address`
  /// to return; a slow peer holds this up by at most the timeout per frame. It
  /// must not be called from one of that address's own handlers, which would
  /// wait for itself.
  void StopServing(const std::string& address) override;
  Result<std::string> Call(const std::string& to, const std::string& from,
                           const std::string& request) override;

  /// Binds an ephemeral port on `host` and serves `handler`; returns the concrete
  /// "host:port" address. The convenient form for tests.
  Result<std::string> ServeAnyPort(const std::string& host, Handler handler);

  /// Milliseconds allowed to connect, and to read or write each whole frame.
  void set_timeout_ms(int ms) { timeout_ms_ = ms; }

  /// The registry backing the transport's RPC metrics (shared or owned).
  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  struct Server;

  Status ServeInternal(const std::string& host, int port, Handler handler,
                       std::string* actual_address);

  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Server>> servers_;
  int timeout_ms_ = 5000;

  // Client-side RPC instruments, cached once at construction (see Call).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // set iff none was passed
  obs::MetricsRegistry* metrics_;
  obs::Counter* c_calls_;
  obs::Counter* c_connect_errors_;
  obs::Counter* c_timeouts_;
  obs::Counter* c_bytes_sent_;
  obs::Counter* c_bytes_received_;
  obs::Counter* c_requests_served_;
  obs::Histogram* h_call_latency_us_;
  obs::Histogram* h_request_bytes_;
  obs::Histogram* h_response_bytes_;
};

}  // namespace net
}  // namespace pgrid
