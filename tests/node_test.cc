#include "net/node.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/inproc_transport.h"
#include "net/tcp_transport.h"

namespace pgrid {
namespace net {
namespace {

KeyPath P(const char* bits) { return KeyPath::FromString(bits).value(); }

/// A small in-process cluster of nodes.
struct Cluster {
  InProcTransport transport;
  std::vector<std::unique_ptr<PGridNode>> nodes;
  Rng rng{12345};

  explicit Cluster(size_t n, NodeConfig config = {}, double loss = 0.0)
      : transport(/*seed=*/99) {
    if (loss > 0.0) transport.faults().DropWithProbability("*", loss);
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<PGridNode>("node:" + std::to_string(i),
                                                  &transport, config, 1000 + i));
      EXPECT_TRUE(nodes.back()->Start().ok());
    }
  }

  /// Random pairwise meetings, like the simulator's builder.
  void Mingle(size_t meetings) {
    for (size_t m = 0; m < meetings; ++m) {
      size_t a = rng.UniformIndex(nodes.size());
      size_t b = rng.UniformIndex(nodes.size());
      if (a == b) continue;
      (void)nodes[a]->MeetWith(nodes[b]->address());
    }
  }

  double AverageDepth() const {
    double sum = 0;
    for (const auto& n : nodes) sum += static_cast<double>(n->path().length());
    return sum / static_cast<double>(nodes.size());
  }
};

TEST(NodeTest, TwoNodesSplitTheKeySpace) {
  Cluster c(2);
  ASSERT_TRUE(c.nodes[0]->MeetWith("node:1").ok());
  KeyPath p0 = c.nodes[0]->path();
  KeyPath p1 = c.nodes[1]->path();
  ASSERT_EQ(p0.length(), 1u);
  ASSERT_EQ(p1.length(), 1u);
  EXPECT_NE(p0.bit(0), p1.bit(0));
  // Mutual references at level 1.
  EXPECT_EQ(c.nodes[0]->RefsAt(1), std::vector<std::string>{"node:1"});
  EXPECT_EQ(c.nodes[1]->RefsAt(1), std::vector<std::string>{"node:0"});
}

TEST(NodeTest, MeetWithSelfIsNoop) {
  Cluster c(1);
  EXPECT_TRUE(c.nodes[0]->MeetWith("node:0").ok());
  EXPECT_TRUE(c.nodes[0]->path().empty());
}

TEST(NodeTest, MeetWithUnreachablePeerFails) {
  Cluster c(1);
  Status s = c.nodes[0]->MeetWith("node:404");
  EXPECT_TRUE(s.IsUnavailable());
}

TEST(NodeTest, ClusterConvergesThroughRandomMeetings) {
  NodeConfig config;
  config.maxl = 4;
  config.refmax = 3;
  Cluster c(32, config);
  c.Mingle(4000);
  EXPECT_GE(c.AverageDepth(), 0.95 * 4);
  // Reference prefix property: every referenced node diverges at exactly the
  // reference level.
  for (const auto& node : c.nodes) {
    KeyPath path = node->path();
    for (size_t level = 1; level <= path.length(); ++level) {
      for (const std::string& addr : node->RefsAt(level)) {
        // Find the referenced node.
        const PGridNode* target = nullptr;
        for (const auto& other : c.nodes) {
          if (other->address() == addr) target = other.get();
        }
        ASSERT_NE(target, nullptr);
        KeyPath tpath = target->path();
        ASSERT_GE(tpath.length(), level);
        EXPECT_GE(path.CommonPrefixLength(tpath), level - 1);
        EXPECT_NE(tpath.bit(level - 1), path.bit(level - 1));
      }
    }
  }
}

TEST(NodeTest, SearchFindsPublishedItemFromEveryNode) {
  NodeConfig config;
  config.maxl = 4;
  config.refmax = 4;
  Cluster c(32, config);
  c.Mingle(4000);

  DataItem item;
  item.id = 7;
  item.key = P("01100110");
  item.payload = "the-file";
  item.version = 1;
  ASSERT_TRUE(c.nodes[5]->Publish(item).ok());

  size_t found = 0;
  for (const auto& node : c.nodes) {
    auto r = node->Search(item.key);
    if (!r.ok()) continue;
    for (const WireEntry& e : *r) {
      if (e.item_id == 7 && e.holder == "node:5") {
        ++found;
        break;
      }
    }
  }
  EXPECT_EQ(found, c.nodes.size());
}

TEST(NodeTest, PublishInstallsAtResponsiblePeerOnly) {
  NodeConfig config;
  config.maxl = 3;
  Cluster c(16, config);
  c.Mingle(2000);
  DataItem item;
  item.id = 9;
  item.key = P("111111");
  item.version = 1;
  ASSERT_TRUE(c.nodes[0]->Publish(item).ok());
  // Whoever indexes the entry must be responsible for its key.
  size_t holders = 0;
  for (const auto& node : c.nodes) {
    for (const WireEntry& e : node->entries()) {
      if (e.item_id == 9) {
        ++holders;
        EXPECT_TRUE(PathsOverlap(node->path(), item.key))
            << node->address() << " path " << node->path();
      }
    }
  }
  EXPECT_GE(holders, 1u);
}

TEST(NodeTest, RepeatedMeetingsCreateBuddiesAndSyncEntries) {
  NodeConfig config;
  config.maxl = 1;  // tiny space: replicas guaranteed
  Cluster c(4, config);
  c.Mingle(200);
  // With maxl = 1 and 4 nodes there must exist same-path pairs, and meetings
  // between them record buddies.
  size_t with_buddies = 0;
  for (const auto& node : c.nodes) {
    for (const std::string& buddy : node->buddies()) {
      ++with_buddies;
      for (const auto& other : c.nodes) {
        if (other->address() == buddy) {
          EXPECT_EQ(other->path(), node->path());
        }
      }
    }
  }
  EXPECT_GT(with_buddies, 0u);
}

/// Passes every call through to `inner` and records the request's type and
/// the response.
class RecordingTransport : public RpcTransport {
 public:
  struct Record {
    MsgType type;
    std::string response;
  };

  explicit RecordingTransport(RpcTransport* inner) : inner_(inner) {}

  Status Serve(const std::string& address, Handler handler) override {
    return inner_->Serve(address, std::move(handler));
  }
  void StopServing(const std::string& address) override { inner_->StopServing(address); }
  Result<std::string> Call(const std::string& to, const std::string& from,
                           const std::string& request) override {
    Result<std::string> response = inner_->Call(to, from, request);
    calls.push_back({PeekType(request).value(), response.ok() ? *response : ""});
    return response;
  }

  std::vector<Record> calls;

 private:
  RpcTransport* inner_;
};

uint64_t CounterValue(PGridNode& node, const std::string& name) {
  return node.metrics().GetCounter(name)->value();
}

// Replicas compare index digests before they sync: a replica meeting whose two
// indexes agree ships nothing either way, and one that follows a divergence
// ships the index as before.
TEST(NodeTest, ReplicaMeetingsShipIndexesOnlyWhenTheyDiffer) {
  InProcTransport bus;
  RecordingTransport wire(&bus);
  NodeConfig config;
  config.maxl = 1;
  PGridNode a("node:a", &wire, config, 1);
  PGridNode b("node:b", &wire, config, 2);
  PGridNode c("node:c", &wire, config, 3);
  ASSERT_TRUE(a.Start().ok() && b.Start().ok() && c.Start().ok());
  ASSERT_TRUE(a.MeetWith("node:b").ok());  // case 1: a and b split the space
  ASSERT_TRUE(c.MeetWith("node:a").ok());  // case 2: c takes b's side
  ASSERT_EQ(c.path(), b.path());
  ASSERT_TRUE(b.buddies().empty());

  // The same eight entries at both, installed without a buddy fan-out.
  const auto install = [&bus](const std::string& at, uint64_t item, const KeyPath& key,
                              uint64_t version) {
    const WireEntry entry{"node:a", item, key, version};
    Result<std::string> ack =
        bus.Call(at, "node:a", EncodePublishRequest({entry, /*forward_to_buddies=*/0}));
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(DecodePublishAck(*ack).value().installed, 1);
  };
  const auto key_of = [&b](uint64_t item) {
    return b.path().Concat(KeyPath::FromUint64(item, 4));
  };
  for (uint64_t item = 1; item <= 8; ++item) {
    install("node:b", item, key_of(item), 1);
    install("node:c", item, key_of(item), 1);
  }
  ASSERT_EQ(b.entries(), c.entries());

  // A new buddy pair already in sync: nothing shipped, and no push back.
  wire.calls.clear();
  ASSERT_TRUE(c.MeetWith("node:b").ok());
  EXPECT_EQ(b.buddies(), std::vector<std::string>{"node:c"});
  EXPECT_EQ(c.buddies(), std::vector<std::string>{"node:b"});
  ASSERT_EQ(wire.calls.size(), 1u);  // the exchange; no EntryPush, no commit
  ASSERT_EQ(wire.calls[0].type, MsgType::kExchangeReq);
  ExchangeResponse resp = DecodeExchangeResponse(wire.calls[0].response).value();
  EXPECT_EQ(resp.buddy, 1);
  EXPECT_EQ(resp.in_sync, 1);
  EXPECT_TRUE(resp.entries.empty());
  EXPECT_EQ(CounterValue(b, "node.replica_syncs_skipped"), 1u);

  // A further meeting of the pair, the other way round: still in sync.
  wire.calls.clear();
  ASSERT_TRUE(b.MeetWith("node:c").ok());
  ASSERT_EQ(wire.calls.size(), 1u);
  resp = DecodeExchangeResponse(wire.calls[0].response).value();
  EXPECT_EQ(resp.in_sync, 1);
  EXPECT_TRUE(resp.entries.empty());
  EXPECT_EQ(CounterValue(c, "node.replica_syncs_skipped"), 1u);
  for (PGridNode* node : {&a, &b, &c}) {
    EXPECT_EQ(CounterValue(*node, "node.meet_entries_shipped"), 0u) << node->address();
  }

  // A version bump at c only: the next meeting ships c's index to b.
  install("node:c", 3, key_of(3), 2);
  ASSERT_NE(b.entries(), c.entries());
  wire.calls.clear();
  ASSERT_TRUE(b.MeetWith("node:c").ok());
  ASSERT_EQ(wire.calls.size(), 1u);
  resp = DecodeExchangeResponse(wire.calls[0].response).value();
  EXPECT_EQ(resp.in_sync, 0);
  EXPECT_EQ(resp.entries.size(), 8u);
  EXPECT_EQ(CounterValue(c, "node.meet_entries_shipped"), 8u);
  EXPECT_EQ(CounterValue(c, "node.replica_syncs_skipped"), 1u);
  EXPECT_EQ(b.entries(), c.entries());
}

TEST(NodeTest, BuddyPublishFanout) {
  NodeConfig config;
  config.maxl = 1;
  Cluster c(6, config);
  c.Mingle(400);
  DataItem item;
  item.id = 11;
  item.key = P("0110");
  item.version = 1;
  ASSERT_TRUE(c.nodes[0]->Publish(item).ok());
  // Every replica that is a buddy of the installing peer should have the entry.
  size_t holders = 0;
  for (const auto& node : c.nodes) {
    for (const WireEntry& e : node->entries()) {
      if (e.item_id == 11) ++holders;
    }
  }
  EXPECT_GE(holders, 2u);  // responsible peer + at least one buddy
}

TEST(NodeTest, EntriesMigrateOnSplitAndNothingIsLost) {
  NodeConfig config;
  config.maxl = 3;
  Cluster c(8, config);
  // Publish before any meetings: entries sit at node 0 (responsible for
  // everything while its path is empty).
  for (uint64_t i = 1; i <= 8; ++i) {
    DataItem item;
    item.id = i;
    item.key = KeyPath::FromUint64(i - 1, 3).Concat(P("101"));
    item.version = 1;
    ASSERT_TRUE(c.nodes[0]->Publish(item).ok());
  }
  c.Mingle(1500);
  // Every entry must still exist somewhere (index or foreign buffer).
  std::set<uint64_t> alive;
  for (const auto& node : c.nodes) {
    for (const WireEntry& e : node->entries()) alive.insert(e.item_id);
    for (const WireEntry& e : node->foreign_entries()) alive.insert(e.item_id);
  }
  EXPECT_EQ(alive.size(), 8u);
  // And every indexed copy must respect responsibility.
  for (const auto& node : c.nodes) {
    for (const WireEntry& e : node->entries()) {
      EXPECT_TRUE(PathsOverlap(node->path(), e.key));
    }
  }
}

TEST(NodeTest, SearchSurvivesMessageLoss) {
  // The whole lifecycle runs over a transport that drops 20% of all calls:
  // construction is slower but still converges, and searches succeed thanks to
  // reference redundancy and depth-first backtracking.
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 4;
  Cluster c(24, config, /*loss=*/0.2);
  c.Mingle(6000);
  EXPECT_GE(c.AverageDepth(), 2.0);
  DataItem item;
  item.id = 21;
  item.key = P("010101");
  item.version = 1;
  Status published = Status::Unavailable("not yet");
  for (int attempt = 0; attempt < 20 && !published.ok(); ++attempt) {
    published = c.nodes[1]->Publish(item);
  }
  ASSERT_TRUE(published.ok()) << published;
  size_t ok = 0;
  const size_t trials = 50;
  for (size_t t = 0; t < trials; ++t) {
    auto r = c.nodes[t % c.nodes.size()]->Search(item.key);
    if (r.ok()) ++ok;
  }
  EXPECT_GT(ok, trials / 2);
}

TEST(NodeTest, OutageOfResponsibleRegionFailsSearchGracefully) {
  NodeConfig config;
  config.maxl = 2;
  config.refmax = 2;
  Cluster c(8, config);
  c.Mingle(800);
  DataItem item;
  item.id = 31;
  item.key = P("1111");
  item.version = 1;
  ASSERT_TRUE(c.nodes[0]->Publish(item).ok());
  // Take down every node responsible for the key's region.
  std::string searcher;
  for (const auto& node : c.nodes) {
    if (PathsOverlap(node->path(), item.key)) {
      c.transport.InjectOutage(node->address());
    } else if (searcher.empty()) {
      searcher = node->address();
    }
  }
  ASSERT_FALSE(searcher.empty());
  for (const auto& node : c.nodes) {
    if (node->address() == searcher) {
      auto r = node->Search(item.key);
      EXPECT_FALSE(r.ok());  // graceful NotFound, not a hang or crash
    }
  }
}

TEST(NodeTest, StatsCountActivity) {
  Cluster c(4);
  c.Mingle(100);
  uint64_t initiated = 0, served = 0;
  for (const auto& node : c.nodes) {
    initiated += node->metrics().GetCounter("node.exchanges_initiated")->value();
    served += node->metrics().GetCounter("node.exchanges_served")->value();
  }
  EXPECT_GT(initiated, 0u);
  EXPECT_GT(served, 0u);
}

TEST(NodeTcpTest, ClusterOverRealSockets) {
  TcpTransport transport;
  transport.set_timeout_ms(2000);
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 3;

  // Create nodes on ephemeral ports: serve an echo first to learn the port is not
  // possible (the node must serve its own handler), so bind via ServeAnyPort with
  // the node handler through a two-phase construction: pick addresses first.
  std::vector<std::unique_ptr<PGridNode>> nodes;
  std::vector<std::string> addresses;
  for (int i = 0; i < 8; ++i) {
    // Reserve a concrete port by asking the OS, then hand it to the node.
    auto probe = transport.ServeAnyPort(
        "127.0.0.1", [](const std::string&, const std::string&) { return ""; });
    ASSERT_TRUE(probe.ok());
    transport.StopServing(*probe);
    auto node = std::make_unique<PGridNode>(*probe, &transport, config, 7000 + i);
    ASSERT_TRUE(node->Start().ok());
    addresses.push_back(*probe);
    nodes.push_back(std::move(node));
  }

  Rng rng(555);
  for (int m = 0; m < 600; ++m) {
    size_t a = rng.UniformIndex(nodes.size());
    size_t b = rng.UniformIndex(nodes.size());
    if (a == b) continue;
    (void)nodes[a]->MeetWith(addresses[b]);
  }
  double avg = 0;
  for (const auto& n : nodes) avg += static_cast<double>(n->path().length());
  avg /= static_cast<double>(nodes.size());
  EXPECT_GE(avg, 2.0);

  DataItem item;
  item.id = 99;
  item.key = P("101010");
  item.version = 1;
  ASSERT_TRUE(nodes[0]->Publish(item).ok());
  size_t found = 0;
  for (const auto& n : nodes) {
    auto r = n->Search(item.key);
    if (r.ok()) {
      for (const WireEntry& e : *r) {
        if (e.item_id == 99) ++found;
      }
    }
  }
  EXPECT_GE(found, nodes.size() / 2);
  for (auto& n : nodes) n->Stop();
}

}  // namespace
}  // namespace net
}  // namespace pgrid
