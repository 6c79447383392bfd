// Satellite tests of the registry-backed node counters: concurrent handler
// traffic must be counted exactly, and the kStats protocol request must expose
// the same registry to remote scrapers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc_transport.h"
#include "net/node.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace pgrid {
namespace net {
namespace {

KeyPath P(const char* bits) { return KeyPath::FromString(bits).value(); }

TEST(NodeStatsTest, ConcurrentQueriesAreCountedExactly) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, /*seed=*/7);
  ASSERT_TRUE(node.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&transport]() {
      QueryRequest req;
      req.key = P("01");
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(
            transport.Call("node:0", "client", EncodeQueryRequest(req)).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(node.metrics().GetCounter("node.queries_served")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(NodeStatsTest, ConcurrentMixedTrafficSumsExactly) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, /*seed=*/7);
  ASSERT_TRUE(node.Start().ok());

  constexpr int kThreads = 6;
  constexpr int kPerThread = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&transport, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          QueryRequest req;
          req.key = P("1");
          ASSERT_TRUE(
              transport.Call("node:0", "client", EncodeQueryRequest(req)).ok());
        } else {
          PublishRequest req;
          req.entry.holder = "client";
          req.entry.item_id = static_cast<uint64_t>(t * kPerThread + i);
          req.entry.key = P("0");
          ASSERT_TRUE(
              transport.Call("node:0", "client", EncodePublishRequest(req)).ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  obs::MetricsRegistry& m = node.metrics();
  EXPECT_EQ(m.GetCounter("node.queries_served")->value(),
            static_cast<uint64_t>(kThreads / 2) * kPerThread);
  EXPECT_EQ(m.GetCounter("node.publishes_served")->value(),
            static_cast<uint64_t>(kThreads / 2) * kPerThread);
  // Every publish key overlaps the empty path, so each distinct entry was
  // adopted exactly once.
  EXPECT_EQ(m.GetCounter("node.entries_adopted")->value(),
            static_cast<uint64_t>(kThreads / 2) * kPerThread);
}

TEST(NodeStatsTest, StatsRequestReturnsRegistryJson) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode a("node:a", &transport, config, /*seed=*/1);
  PGridNode b("node:b", &transport, config, /*seed=*/2);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.MeetWith("node:b").ok());

  // Scrape b from a over the ordinary transport.
  Result<std::string> json = a.FetchPeerStats("node:b");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  // The scrape is b's own registry: it served one exchange and initiated none.
  EXPECT_NE(json->find("\"node.exchanges_served\": 1"), std::string::npos)
      << *json;
  EXPECT_NE(json->find("\"node.exchanges_initiated\": 0"), std::string::npos)
      << *json;
  EXPECT_NE(json->find("\"counters\""), std::string::npos);
  EXPECT_NE(json->find("\"histograms\""), std::string::npos);
}

TEST(NodeStatsTest, SharedRegistryIsScrapedWholesale) {
  // A node given an external registry exposes everything in it through kStats,
  // not just its own counters -- the pgrid_node deployment shares one registry
  // between the transport and the node.
  InProcTransport transport;
  obs::MetricsRegistry registry;
  registry.GetCounter("custom.counter")->Increment(99);
  NodeConfig config;
  PGridNode node("node:0", &transport, config, /*seed=*/3, &registry);
  ASSERT_TRUE(node.Start().ok());

  PGridNode client("node:c", &transport, config, /*seed=*/4);
  ASSERT_TRUE(client.Start().ok());
  Result<std::string> json = client.FetchPeerStats("node:0");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"custom.counter\": 99"), std::string::npos) << *json;
  // And the node's own counters live in the same (shared) registry object.
  EXPECT_EQ(&node.metrics(), &registry);
}

TEST(NodeStatsTest, MalformedStatsResponseIsRejected) {
  InProcTransport transport;
  ASSERT_TRUE(transport
                  .Serve("evil",
                         [](const std::string&, const std::string&) {
                           return std::string("not a stats response");
                         })
                  .ok());
  NodeConfig config;
  PGridNode node("node:0", &transport, config, /*seed=*/5);
  ASSERT_TRUE(node.Start().ok());
  Result<std::string> json = node.FetchPeerStats("evil");
  EXPECT_FALSE(json.ok());
}

}  // namespace
}  // namespace net
}  // namespace pgrid
