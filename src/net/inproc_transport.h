// Process-local RPC transport: a registry of handlers keyed by address.
//
// Calls are executed synchronously on the caller's thread. The bus injects no
// faults: a caller that wants seeded loss, outages, partitions or scripted
// schedules wraps it in a FaultInjectingTransport (fault_transport.h) and
// starts its nodes on the decorator.

#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "net/transport.h"

namespace pgrid {
namespace net {

/// In-process transport: one mutex-guarded handler map.
class InProcTransport : public RpcTransport {
 public:
  Status Serve(const std::string& address, Handler handler) override;
  void StopServing(const std::string& address) override;
  Result<std::string> Call(const std::string& to, const std::string& from,
                           const std::string& request) override;

  /// Number of calls that reached a handler.
  uint64_t delivered_calls() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, Handler> handlers_;
  uint64_t delivered_ = 0;
};

}  // namespace net
}  // namespace pgrid
