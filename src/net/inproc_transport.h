// Process-local RPC transport: a registry of handlers keyed by address.
//
// Calls are executed synchronously on the caller's thread. Fault injection is
// not implemented here: the bus is wrapped in a FaultInjectingTransport, so
// every scenario the rule table can express (seeded loss, outages, partitions,
// scripted schedules) is available on an in-process cluster via faults().

#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "net/fault_transport.h"
#include "net/transport.h"

namespace pgrid {
namespace net {

/// In-process transport with rule-table fault injection.
class InProcTransport : public RpcTransport {
 public:
  /// `seed` seeds the fault layer's random draws.
  explicit InProcTransport(uint64_t seed = 0);

  Status Serve(const std::string& address, Handler handler) override;
  void StopServing(const std::string& address) override;
  Result<std::string> Call(const std::string& to, const std::string& from,
                           const std::string& request) override;

  /// Simulates an outage: calls to `address` fail until ClearOutage.
  void InjectOutage(const std::string& address);
  void ClearOutage(const std::string& address);

  /// The fault layer every call passes through; arm rules here for scripted
  /// scenarios (drops, delays, duplicates, errors, partitions).
  FaultInjectingTransport& faults() { return faults_; }

  /// Number of calls that reached a handler.
  uint64_t delivered_calls() const;

 private:
  /// The fault-free local bus the fault layer decorates.
  class Bus : public RpcTransport {
   public:
    Status Serve(const std::string& address, Handler handler) override;
    void StopServing(const std::string& address) override;
    Result<std::string> Call(const std::string& to, const std::string& from,
                             const std::string& request) override;
    uint64_t delivered_calls() const;

   private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, Handler> handlers_;
    uint64_t delivered_ = 0;
  };

  Bus bus_;
  FaultInjectingTransport faults_;
};

}  // namespace net
}  // namespace pgrid
