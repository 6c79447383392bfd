#include "net/inproc_transport.h"

namespace pgrid {
namespace net {

Status InProcTransport::Serve(const std::string& address, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = handlers_.emplace(address, std::move(handler));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("address " + address + " already served");
  }
  return Status::OK();
}

void InProcTransport::StopServing(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_.erase(address);
}

Result<std::string> InProcTransport::Call(const std::string& to,
                                          const std::string& from,
                                          const std::string& request) {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handlers_.find(to);
    if (it == handlers_.end()) {
      return Status::Unavailable("no node serving " + to);
    }
    handler = it->second;  // copy so the handler runs without the registry lock
    ++delivered_;
  }
  return handler(from, request);
}

uint64_t InProcTransport::delivered_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

}  // namespace net
}  // namespace pgrid
