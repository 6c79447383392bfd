#include <gtest/gtest.h>

#include <atomic>
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
