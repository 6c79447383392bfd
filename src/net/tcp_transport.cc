#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "util/logging.h"

namespace pgrid {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Moves exactly `len` bytes by `deadline`: each time `fd` is ready for
/// `events`, `step(done)` sends or receives the bytes after `done` without
/// blocking. False on error, EOF or timeout.
template <typename Step>
bool MoveAll(int fd, short events, size_t len, Clock::time_point deadline, Step step) {
  for (size_t done = 0; done < len;) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now()).count();
    pollfd p{fd, events, 0};
    if (left <= 0 || (::poll(&p, 1, static_cast<int>(left)) < 0 && errno != EINTR)) {
      return false;
    }
    const ssize_t n = step(done);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
      return false;
    }
  }
  return true;
}

bool WriteAll(int fd, const char* data, size_t len, Clock::time_point deadline) {
  return MoveAll(fd, POLLOUT, len, deadline, [&](size_t done) {
    return ::send(fd, data + done, len - done, MSG_NOSIGNAL | MSG_DONTWAIT);
  });
}

bool ReadAll(int fd, char* data, size_t len, Clock::time_point deadline) {
  return MoveAll(fd, POLLIN, len, deadline, [&](size_t done) {
    return ::recv(fd, data + done, len - done, MSG_DONTWAIT);
  });
}

constexpr uint32_t kMaxFrame = 64u << 20;  // 64 MiB sanity cap

// Each whole frame gets `timeout_ms`: a per-recv/send socket timeout alone
// would let a peer that moves one byte at a time hold the thread forever.
bool WriteFrame(int fd, const std::string& payload, int timeout_ms) {
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  uint32_t len = static_cast<uint32_t>(payload.size());
  char hdr[4];
  std::memcpy(hdr, &len, 4);
  return WriteAll(fd, hdr, 4, deadline) &&
         WriteAll(fd, payload.data(), payload.size(), deadline);
}

bool ReadFrame(int fd, std::string* payload, int timeout_ms) {
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  char hdr[4];
  if (!ReadAll(fd, hdr, 4, deadline)) return false;
  uint32_t len;
  std::memcpy(&len, hdr, 4);
  if (len > kMaxFrame) return false;
  payload->resize(len);
  return len == 0 || ReadAll(fd, payload->data(), len, deadline);
}

Status ParseAddress(const std::string& address, std::string* host, int* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("address must be host:port, got " + address);
  }
  *host = address.substr(0, colon);
  *port = std::atoi(address.c_str() + colon + 1);
  if (*port < 0 || *port > 65535) {
    return Status::InvalidArgument("bad port in address " + address);
  }
  return Status::OK();
}

/// Bounds a blocking connect() on `fd`: Linux applies SO_SNDTIMEO to it.
/// Frames carry their own deadlines.
void SetConnectTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

struct TcpTransport::Server {
  int listen_fd = -1;
  std::thread acceptor;
  Handler handler;
  std::atomic<bool> stopping{false};
  std::atomic<int> active_connections{0};

  ~Server() {
    // StopServing already closed the socket and joined; this is a backstop.
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

TcpTransport::TcpTransport(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_metrics_.get();
  }
  metrics_ = registry;
  c_calls_ = metrics_->GetCounter("rpc.calls");
  c_connect_errors_ = metrics_->GetCounter("rpc.connect_errors");
  c_timeouts_ = metrics_->GetCounter("rpc.timeouts");
  c_bytes_sent_ = metrics_->GetCounter("rpc.bytes_sent");
  c_bytes_received_ = metrics_->GetCounter("rpc.bytes_received");
  c_requests_served_ = metrics_->GetCounter("rpc.requests_served");
  h_call_latency_us_ = metrics_->GetHistogram("rpc.call_latency_us", obs::LatencyBoundsUs());
  h_request_bytes_ = metrics_->GetHistogram("rpc.request_bytes", obs::SizeBoundsBytes());
  h_response_bytes_ = metrics_->GetHistogram("rpc.response_bytes", obs::SizeBoundsBytes());
}

TcpTransport::~TcpTransport() {
  std::vector<std::string> addresses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [addr, server] : servers_) addresses.push_back(addr);
  }
  for (const std::string& addr : addresses) StopServing(addr);
}

Status TcpTransport::Serve(const std::string& address, Handler handler) {
  std::string host;
  int port = 0;
  PGRID_RETURN_IF_ERROR(ParseAddress(address, &host, &port));
  std::string actual;
  return ServeInternal(host, port, std::move(handler), &actual);
}

Result<std::string> TcpTransport::ServeAnyPort(const std::string& host,
                                               Handler handler) {
  std::string actual;
  PGRID_RETURN_IF_ERROR(ServeInternal(host, 0, std::move(handler), &actual));
  return actual;
}

Status TcpTransport::ServeInternal(const std::string& host, int port, Handler handler,
                                   std::string* actual_address) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 host: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Unavailable("bind failed for " + host + ":" +
                               std::to_string(port));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::Internal("listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  *actual_address = host + ":" + std::to_string(ntohs(bound.sin_port));

  auto server = std::make_shared<Server>();
  server->listen_fd = fd;
  server->handler = std::move(handler);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (servers_.contains(*actual_address)) {
      ::close(fd);
      return Status::AlreadyExists("address " + *actual_address + " already served");
    }
    servers_[*actual_address] = server;
  }

  const int timeout_ms = timeout_ms_;
  // The served counter is safe to capture raw: StopServing (and thus the
  // transport destructor) joins the acceptor and waits for connection threads.
  obs::Counter* served = c_requests_served_;
  server->acceptor = std::thread([server, timeout_ms, served]() {
    while (!server->stopping.load()) {
      int conn = ::accept(server->listen_fd, nullptr, nullptr);
      if (conn < 0) {
        if (server->stopping.load()) break;
        continue;
      }
      int flag = 1;
      ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
      server->active_connections.fetch_add(1);
      std::thread([server, conn, served, timeout_ms]() {
        std::string frame;
        if (ReadFrame(conn, &frame, timeout_ms)) {
          // Frame: u32 from-length + from + request payload.
          std::string from, request;
          if (frame.size() >= 4) {
            uint32_t from_len;
            std::memcpy(&from_len, frame.data(), 4);
            if (4 + static_cast<size_t>(from_len) <= frame.size()) {
              from.assign(frame, 4, from_len);
              request.assign(frame, 4 + from_len, std::string::npos);
              std::string response = server->handler(from, request);
              served->Increment();
              WriteFrame(conn, response, timeout_ms);
            }
          }
        }
        ::close(conn);
        server->active_connections.fetch_sub(1);
        server->active_connections.notify_all();
      }).detach();
    }
  });
  return Status::OK();
}

void TcpTransport::StopServing(const std::string& address) {
  std::shared_ptr<Server> server;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = servers_.find(address);
    if (it == servers_.end()) return;
    server = it->second;
    servers_.erase(it);
  }
  server->stopping.store(true);
  ::shutdown(server->listen_fd, SHUT_RDWR);
  ::close(server->listen_fd);
  if (server->acceptor.joinable()) server->acceptor.join();
  server->listen_fd = -1;  // only after the join: the acceptor reads it
  // Wait for every in-flight handler. The acceptor is joined, so no new one
  // starts, and each remaining one reads and writes its frame by a deadline.
  for (int active = server->active_connections.load(); active > 0;
       active = server->active_connections.load()) {
    server->active_connections.wait(active);
  }
}

Result<std::string> TcpTransport::Call(const std::string& to, const std::string& from,
                                       const std::string& request) {
  c_calls_->Increment();
  const auto start = std::chrono::steady_clock::now();
  std::string host;
  int port = 0;
  PGRID_RETURN_IF_ERROR(ParseAddress(to, &host, &port));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  SetConnectTimeout(fd, timeout_ms_);
  int flag = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    c_connect_errors_->Increment();
    return Status::Unavailable("connect to " + to + " failed");
  }

  std::string frame;
  uint32_t from_len = static_cast<uint32_t>(from.size());
  frame.append(reinterpret_cast<const char*>(&from_len), 4);
  frame.append(from);
  frame.append(request);
  if (!WriteFrame(fd, frame, timeout_ms_)) {
    ::close(fd);
    c_timeouts_->Increment();
    return Status::Unavailable("send to " + to + " failed");
  }
  c_bytes_sent_->Increment(4 + frame.size());
  h_request_bytes_->Record(request.size());
  std::string response;
  if (!ReadFrame(fd, &response, timeout_ms_)) {
    ::close(fd);
    c_timeouts_->Increment();
    return Status::Unavailable("no response from " + to);
  }
  ::close(fd);
  c_bytes_received_->Increment(4 + response.size());
  h_response_bytes_->Record(response.size());
  h_call_latency_us_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return response;
}

}  // namespace net
}  // namespace pgrid
