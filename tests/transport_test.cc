#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"

namespace pgrid {
namespace net {
namespace {

RpcTransport::Handler Echo() {
  return [](const std::string& from, const std::string& req) {
    return from + "|" + req;
  };
}

// A loopback TCP socket: connected to `port`, or (port 0) listening on an
// ephemeral port, which is stored in *port. -1 on failure.
int RawSocket(int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  auto* raw = reinterpret_cast<sockaddr*>(&addr);
  socklen_t len = sizeof(addr);
  const bool ok = *port != 0 ? ::connect(fd, raw, len) == 0
                             : ::bind(fd, raw, len) == 0 && ::listen(fd, 1) == 0 &&
                                   ::getsockname(fd, raw, &len) == 0;
  if (!ok) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

// Announces a 1000-byte frame on `fd`, then sends it one byte every 100 ms for
// at most 4 s, until `stop` is set or the peer goes away.
void TrickleFrame(int fd, const std::atomic<bool>& stop) {
  const uint32_t len = 1000;
  if (::send(fd, &len, 4, MSG_NOSIGNAL) != 4) return;
  for (int i = 0; i < 40 && !stop.load(); ++i) {
    const char byte = 'x';
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

TEST(InProcTransportTest, CallReachesHandler) {
  InProcTransport t;
  ASSERT_TRUE(t.Serve("a", Echo()).ok());
  auto r = t.Call("a", "caller", "hello");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "caller|hello");
  EXPECT_EQ(t.delivered_calls(), 1u);
}

TEST(InProcTransportTest, UnknownAddressIsUnavailable) {
  InProcTransport t;
  auto r = t.Call("ghost", "x", "y");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST(InProcTransportTest, DuplicateServeRejected) {
  InProcTransport t;
  ASSERT_TRUE(t.Serve("a", Echo()).ok());
  EXPECT_EQ(t.Serve("a", Echo()).code(), StatusCode::kAlreadyExists);
}

TEST(InProcTransportTest, StopServingMakesAddressUnavailable) {
  InProcTransport t;
  ASSERT_TRUE(t.Serve("a", Echo()).ok());
  t.StopServing("a");
  EXPECT_TRUE(t.Call("a", "x", "y").status().IsUnavailable());
  // Address can be reused after stopping.
  EXPECT_TRUE(t.Serve("a", Echo()).ok());
}

// The bus injects no faults itself: outages and loss come from the fault layer
// a caller wraps around it.
TEST(InProcTransportTest, OutageInjection) {
  InProcTransport bus;
  FaultInjectingTransport t(&bus);
  ASSERT_TRUE(t.Serve("a", Echo()).ok());
  t.InjectOutage("a");
  EXPECT_TRUE(t.Call("a", "x", "y").status().IsUnavailable());
  t.ClearOutage("a");
  EXPECT_TRUE(t.Call("a", "x", "y").ok());
}

TEST(InProcTransportTest, LossyTransportDropsSomeCalls) {
  InProcTransport bus;
  FaultInjectingTransport t(&bus, /*seed=*/7);
  t.DropWithProbability("*", 0.5);
  ASSERT_TRUE(t.Serve("a", Echo()).ok());
  int ok = 0;
  for (int i = 0; i < 400; ++i) {
    if (t.Call("a", "x", "y").ok()) ++ok;
  }
  EXPECT_GT(ok, 120);
  EXPECT_LT(ok, 280);
}

TEST(InProcTransportTest, HandlerMayCallOtherNodes) {
  InProcTransport t;
  ASSERT_TRUE(t.Serve("b", Echo()).ok());
  ASSERT_TRUE(t
                  .Serve("a",
                         [&t](const std::string& from, const std::string& req) {
                           auto inner = t.Call("b", "a", req);
                           return from + ">" + inner.value_or("fail");
                         })
                  .ok());
  auto r = t.Call("a", "caller", "m");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "caller>a|m");
}

TEST(TcpTransportTest, CallOverLocalhost) {
  TcpTransport t;
  auto addr = t.ServeAnyPort("127.0.0.1", Echo());
  ASSERT_TRUE(addr.ok()) << addr.status();
  auto r = t.Call(*addr, "client:0", "ping");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "client:0|ping");
  t.StopServing(*addr);
}

TEST(TcpTransportTest, LargePayloadRoundTrip) {
  TcpTransport t;
  auto addr = t.ServeAnyPort("127.0.0.1", Echo());
  ASSERT_TRUE(addr.ok());
  std::string big(1 << 20, 'z');
  auto r = t.Call(*addr, "c", big);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), big.size() + 2);  // "c|" prefix
  t.StopServing(*addr);
}

TEST(TcpTransportTest, ConnectionRefusedIsUnavailable) {
  TcpTransport t;
  t.set_timeout_ms(500);
  auto r = t.Call("127.0.0.1:1", "c", "x");  // port 1: nothing listens
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST(TcpTransportTest, BadAddressIsInvalidArgument) {
  TcpTransport t;
  EXPECT_EQ(t.Call("no-port-here", "c", "x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Call("nonsense-host:80", "c", "x").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpTransportTest, StopServingClosesListener) {
  TcpTransport t;
  t.set_timeout_ms(500);
  auto addr = t.ServeAnyPort("127.0.0.1", Echo());
  ASSERT_TRUE(addr.ok());
  t.StopServing(*addr);
  EXPECT_FALSE(t.Call(*addr, "c", "x").ok());
}

// StopServing returns only after every in-flight handler has returned, so
// whatever a handler uses may be destroyed once it does.
TEST(TcpTransportTest, StopServingWaitsForInFlightHandlers) {
  TcpTransport t;
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  auto addr = t.ServeAnyPort(
      "127.0.0.1", [&started, &finished](const std::string&, const std::string&) {
        started.store(true);
        std::this_thread::sleep_for(std::chrono::seconds(2));
        finished.store(true);
        return std::string("late");
      });
  ASSERT_TRUE(addr.ok());
  std::thread caller([&t, &addr] { (void)t.Call(*addr, "c", "x"); });
  while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  t.StopServing(*addr);
  EXPECT_TRUE(finished.load());
  caller.join();
}

// A peer that sends its request one byte at a time holds its connection only
// until the frame's deadline, so it cannot hold StopServing past it either.
TEST(TcpTransportTest, StopServingIsNotHeldByATricklingPeer) {
  TcpTransport t;
  t.set_timeout_ms(500);
  auto addr = t.ServeAnyPort("127.0.0.1", Echo());
  ASSERT_TRUE(addr.ok());
  int port = std::stoi(addr->substr(addr->rfind(':') + 1));
  const int fd = RawSocket(&port);
  ASSERT_GE(fd, 0);
  std::atomic<bool> stop{false};
  std::thread trickler([fd, &stop] { TrickleFrame(fd, stop); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  t.StopServing(*addr);
  const auto waited = std::chrono::steady_clock::now() - start;
  stop.store(true);
  trickler.join();
  ::close(fd);
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
}

// The same deadline ends a call whose peer sends its response that slowly.
TEST(TcpTransportTest, CallFailsWhenTheResponseTrickles) {
  int port = 0;
  const int listener = RawSocket(&port);
  ASSERT_GE(listener, 0);
  std::atomic<bool> stop{false};
  std::thread peer([listener, &stop] {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    TrickleFrame(conn, stop);
    ::close(conn);
  });
  TcpTransport t;
  t.set_timeout_ms(500);
  const auto start = std::chrono::steady_clock::now();
  auto r = t.Call("127.0.0.1:" + std::to_string(port), "c", "x");
  const auto waited = std::chrono::steady_clock::now() - start;
  stop.store(true);
  peer.join();
  ::close(listener);
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_LT(waited, std::chrono::milliseconds(1500));
}

TEST(TcpTransportTest, ConcurrentCalls) {
  TcpTransport t;
  std::atomic<int> served{0};
  auto addr = t.ServeAnyPort("127.0.0.1",
                             [&served](const std::string&, const std::string& req) {
                               served.fetch_add(1);
                               return "ok:" + req;
                             });
  ASSERT_TRUE(addr.ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&t, &addr, &ok, i]() {
      for (int j = 0; j < 20; ++j) {
        auto r = t.Call(*addr, "c", std::to_string(i * 100 + j));
        if (r.ok() && r->rfind("ok:", 0) == 0) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 160);
  EXPECT_EQ(served.load(), 160);
  t.StopServing(*addr);
}

TEST(TcpTransportTest, TwoServersOnOneTransport) {
  TcpTransport t;
  auto a = t.ServeAnyPort("127.0.0.1", [](const std::string&, const std::string&) {
    return std::string("A");
  });
  auto b = t.ServeAnyPort("127.0.0.1", [](const std::string&, const std::string&) {
    return std::string("B");
  });
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(t.Call(*a, "c", "").value(), "A");
  EXPECT_EQ(t.Call(*b, "c", "").value(), "B");
  t.StopServing(*a);
  t.StopServing(*b);
}

}  // namespace
}  // namespace net
}  // namespace pgrid
