// Request/response transport abstraction for networked P-Grid nodes.
//
// P-Grid's interactions (query routing, exchanges, publishes) are all
// request/response, so the transport is a blocking RPC interface: a node serves a
// handler under its address, and anyone can Call(address, request) and wait for the
// reply. Implementations:
//   - InProcTransport:          a process-local bus for tests and examples; it
//                               injects no faults itself,
//   - TcpTransport:             real sockets on localhost/LAN (length-prefixed
//                               frames),
//   - FaultInjectingTransport:  a decorator applying a seeded fault-rule table
//                               (drops, delays, duplicates, errors, partitions)
//                               to any inner transport, the in-process bus
//                               included -- see fault_transport.h.
// Retries around Call are layered on top (retry.h), not inside the transports.
//
// Handlers may issue outbound Calls (multi-hop routing, recursive exchanges) but
// must never do so while holding locks that an inbound call could need -- see
// PGridNode for the locking discipline.

#pragma once

#include <functional>
#include <string>

#include "util/result.h"

namespace pgrid {
namespace net {

/// Blocking request/response transport.
class RpcTransport {
 public:
  /// Handles one request: (caller address, request bytes) -> response bytes.
  using Handler = std::function<std::string(const std::string& from,
                                            const std::string& request)>;

  virtual ~RpcTransport() = default;

  /// Starts serving `handler` under `address`. AlreadyExists if the address is
  /// taken; implementation-specific errors (e.g. bind failure) otherwise.
  virtual Status Serve(const std::string& address, Handler handler) = 0;

  /// Stops serving `address`. Idempotent.
  virtual void StopServing(const std::string& address) = 0;

  /// Sends `request` to the node at `to` and waits for its response.
  /// Unavailable if the target is not reachable (offline node, refused
  /// connection, dropped message).
  virtual Result<std::string> Call(const std::string& to, const std::string& from,
                                   const std::string& request) = 0;
};

}  // namespace net
}  // namespace pgrid
