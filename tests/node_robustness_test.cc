// Adversarial and concurrency tests for the networked node: malformed input must
// produce error responses (never crashes or hangs), and concurrent operations over
// real sockets must keep the node's state consistent.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/node.h"
#include "net/tcp_transport.h"

namespace pgrid {
namespace net {
namespace {

TEST(NodeRobustnessTest, GarbageBytesGetErrorResponses) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, 1);
  ASSERT_TRUE(node.Start().ok());

  Rng rng(7);
  for (int t = 0; t < 500; ++t) {
    std::string garbage;
    const size_t len = rng.UniformInt(0, 64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    auto response = transport.Call("node:0", "fuzzer", garbage);
    ASSERT_TRUE(response.ok());  // the transport delivered; the node must answer
    // Whatever came back must itself be decodable as *some* message type (usually
    // kError) -- the node never responds with garbage of its own.
    if (!response->empty()) {
      EXPECT_TRUE(PeekType(*response).ok())
          << "undecodable response to fuzz input of length " << len;
    }
  }
  // The node is still alive and functional.
  EXPECT_EQ(transport.Call("node:0", "x", EncodePing()).value(), EncodePong());
}

TEST(NodeRobustnessTest, TruncatedProtocolMessagesAreRejected) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, 2);
  ASSERT_TRUE(node.Start().ok());

  ExchangeRequest req;
  req.initiator = "node:1";
  req.path = KeyPath::FromString("0110").value();
  req.refs.AddLevel(1, std::vector<std::string_view>{"node:2"});
  const std::string full = EncodeExchangeRequest(req);
  for (size_t cut = 1; cut < full.size(); ++cut) {
    auto response = transport.Call("node:0", "node:1", full.substr(0, cut));
    ASSERT_TRUE(response.ok());
    auto type = PeekType(*response);
    // Either an explicit error or (at cut == 1, a bare valid tag) some decodable
    // reply; never a crash.
    if (type.ok() && *type != MsgType::kError) continue;
    ASSERT_TRUE(type.ok());
  }
  EXPECT_TRUE(node.path().empty());  // no partial state was applied
}

TEST(NodeRobustnessTest, SelfExchangeRequestIsRejected) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, 3);
  ASSERT_TRUE(node.Start().ok());
  ExchangeRequest req;
  req.initiator = "node:0";  // claims to be the node itself
  auto response = transport.Call("node:0", "node:0", EncodeExchangeRequest(req));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(PeekType(*response).value(), MsgType::kError);
}

TEST(NodeRobustnessTest, OversizedAppendDirectiveIsIgnored) {
  // A malicious/buggy responder cannot push a node's path past maxl: craft the
  // situation by letting a node with depth maxl receive directives indirectly.
  // Direct unit check: apply an exchange against a peer that returns append bits
  // beyond maxl is covered by MeetWithDepth's bound; here we verify the handler
  // side never *produces* appends past maxl either.
  InProcTransport transport;
  NodeConfig config;
  config.maxl = 1;
  PGridNode a("node:a", &transport, config, 4);
  PGridNode b("node:b", &transport, config, 5);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.MeetWith("node:b").ok());
    ASSERT_TRUE(b.MeetWith("node:a").ok());
  }
  EXPECT_LE(a.path().length(), 1u);
  EXPECT_LE(b.path().length(), 1u);
}

/// Passes calls through to `inner`; runs `before_exchange` once, just before
/// the first exchange request it carries is delivered.
class HookTransport : public RpcTransport {
 public:
  explicit HookTransport(RpcTransport* inner) : inner_(inner) {}

  Status Serve(const std::string& address, Handler handler) override {
    return inner_->Serve(address, std::move(handler));
  }
  void StopServing(const std::string& address) override { inner_->StopServing(address); }
  Result<std::string> Call(const std::string& to, const std::string& from,
                           const std::string& request) override {
    if (before_exchange && PeekType(request).value() == MsgType::kExchangeReq) {
      std::function<void()> hook = std::move(before_exchange);
      before_exchange = nullptr;
      hook();
    }
    return inner_->Call(to, from, request);
  }

  std::function<void()> before_exchange;

 private:
  RpcTransport* inner_;
};

// An initiator that discards a stale exchange response still takes the
// entries in it: the responder has already drained them from its own index.
// Here a ghost meeting moves the initiator's epoch while its request is in
// flight; the responder splits and hands over the half of its 16 entries that
// now belongs to the initiator's side.
TEST(NodeRobustnessTest, DiscardedExchangeResponseKeepsItsEntries) {
  InProcTransport bus;
  HookTransport hooked(&bus);
  NodeConfig config;
  config.maxl = 4;
  PGridNode initiator("node:i", &hooked, config, 11);
  PGridNode responder("node:r", &bus, config, 12);
  PGridNode ghost("node:g", &bus, config, 13);
  ASSERT_TRUE(initiator.Start().ok() && responder.Start().ok() && ghost.Start().ok());
  for (uint64_t id = 1; id <= 16; ++id) {
    DataItem item;
    item.id = id;
    item.key = KeyPath::FromUint64(id - 1, 4);  // 8 keys on each half
    item.version = 1;
    ASSERT_TRUE(responder.Publish(item).ok());
  }
  ASSERT_EQ(responder.entries().size(), 16u);

  hooked.before_exchange = [&ghost] { ASSERT_TRUE(ghost.MeetWith("node:i").ok()); };
  ASSERT_TRUE(initiator.MeetWith("node:r").ok());
  EXPECT_EQ(initiator.path().length(), 1u);  // the ghost's bit only
  EXPECT_EQ(responder.path().length(), 1u);
  EXPECT_EQ(responder.entries().size(), 8u);

  std::set<uint64_t> alive;
  for (const PGridNode* node : {&initiator, &responder, &ghost}) {
    for (const WireEntry& e : node->entries()) alive.insert(e.item_id);
    for (const WireEntry& e : node->foreign_entries()) alive.insert(e.item_id);
  }
  EXPECT_EQ(alive.size(), 16u);
}

TEST(NodeRobustnessTest, ConcurrentMeetingsOverTcpKeepStateConsistent) {
  TcpTransport transport;
  transport.set_timeout_ms(3000);
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 3;

  std::vector<std::unique_ptr<PGridNode>> nodes;
  std::vector<std::string> addresses;
  for (int i = 0; i < 6; ++i) {
    auto probe = transport.ServeAnyPort(
        "127.0.0.1", [](const std::string&, const std::string&) { return ""; });
    ASSERT_TRUE(probe.ok());
    transport.StopServing(*probe);
    auto node = std::make_unique<PGridNode>(*probe, &transport, config, 9000 + i);
    ASSERT_TRUE(node->Start().ok());
    addresses.push_back(*probe);
    nodes.push_back(std::move(node));
  }

  // Several threads drive meetings concurrently; epochs make racing directives
  // safe to drop.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(100 + t);
      for (int m = 0; m < 60; ++m) {
        size_t a = rng.UniformIndex(nodes.size());
        size_t b = rng.UniformIndex(nodes.size());
        if (a == b) continue;
        Status s = nodes[a]->MeetWith(addresses[b]);
        if (!s.ok() && !s.IsUnavailable()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Paths stayed within bounds and reference targets diverge at the right level.
  for (const auto& node : nodes) {
    KeyPath path = node->path();
    EXPECT_LE(path.length(), 3u);
    for (size_t level = 1; level <= path.length(); ++level) {
      for (const std::string& addr : node->RefsAt(level)) {
        for (const auto& other : nodes) {
          if (other->address() != addr) continue;
          KeyPath tpath = other->path();
          if (tpath.length() >= level) {
            EXPECT_NE(tpath.bit(level - 1), path.bit(level - 1))
                << node->address() << " level " << level << " -> " << addr;
          }
        }
      }
    }
  }
  for (auto& n : nodes) n->Stop();
}

TEST(NodeRobustnessTest, ExchangeThatGrowsTheAddressBookKeepsEveryAddress) {
  // The responder unions and samples reference lists as views of its address
  // book and of the request, then interns the sample it keeps. Here that
  // sample mixes its own references with dozens of new addresses, so the
  // book outgrows its storage while the views into it are still in use.
  InProcTransport transport;
  NodeConfig config;
  config.refmax = 40;
  PGridNode node("node:0", &transport, config, 22);
  ASSERT_TRUE(node.Start().ok());

  // A case-1 split gives the node a path bit; three committers take level 1.
  // Their addresses are as long as the node's own, so a comparison with it
  // reads their bytes.
  ExchangeRequest split;
  split.initiator = "node:1";
  Result<std::string> raw =
      transport.Call("node:0", "node:1", EncodeExchangeRequest(split));
  ASSERT_TRUE(raw.ok());
  const KeyPath path = node.path();
  ASSERT_EQ(path.length(), 1u);
  const std::vector<std::string> own = {"node:1", "node:2", "node:3"};
  for (const std::string& ghost : own) {
    const CommitRequest commit{1, static_cast<uint8_t>(ComplementBit(path.bit(0)))};
    Result<std::string> ack =
        transport.Call("node:0", ghost, EncodeCommitRequest(commit));
    ASSERT_TRUE(ack.ok());
    ASSERT_EQ(PeekType(*ack).value(), MsgType::kCommitAck);
  }
  ASSERT_EQ(node.RefsAt(1), own);

  // A replica of the node's path sends 60 level-1 references it has never seen.
  std::vector<std::string> sent;
  for (int i = 0; i < 60; ++i) sent.push_back("new:" + std::to_string(i));
  ExchangeRequest req;
  req.initiator = "init:0";
  req.path = path;
  req.refs.AddLevel(1, std::vector<std::string_view>(sent.begin(), sent.end()));
  raw = transport.Call("node:0", "init:0", EncodeExchangeRequest(req));
  ASSERT_TRUE(raw.ok());
  Result<ExchangeResponse> resp = DecodeExchangeResponse(*raw);
  ASSERT_TRUE(resp.ok()) << resp.status();

  std::set<std::string> known(own.begin(), own.end());
  known.insert(sent.begin(), sent.end());
  const Span<std::string_view> answered = resp->ref_updates.Find(1);
  EXPECT_EQ(answered.size(), config.refmax);
  for (std::string_view a : answered) EXPECT_EQ(known.count(std::string(a)), 1u) << a;

  // The kept sample lists one of the node's own references after a new
  // address: interning it in list order would read that reference's view
  // after the book had grown.
  const std::vector<std::string> kept = node.RefsAt(1);
  ASSERT_EQ(kept.size(), config.refmax);
  for (const std::string& a : kept) EXPECT_EQ(known.count(a), 1u) << a;
  const auto is_own = [&own](const std::string& a) {
    return std::find(own.begin(), own.end(), a) != own.end();
  };
  const auto first_new = std::find_if_not(kept.begin(), kept.end(), is_own);
  EXPECT_TRUE(std::any_of(first_new, kept.end(), is_own));
  EXPECT_EQ(transport.Call("node:0", "x", EncodePing()).value(), EncodePong());
}

TEST(NodeRobustnessTest, NoReferenceWithoutCommit) {
  // The two-phase exchange: if the initiator never confirms its appended bit, the
  // responder must not reference it (the initiator may have discarded the
  // directive after an epoch race).
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, 20);
  ASSERT_TRUE(node.Start().ok());
  ExchangeRequest req;
  req.initiator = "node:ghost";  // a client that will never commit
  auto raw = transport.Call("node:0", "node:ghost", EncodeExchangeRequest(req));
  ASSERT_TRUE(raw.ok());
  auto resp = DecodeExchangeResponse(*raw);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->append_bits.length(), 1u);  // case 1 directive was issued
  // The responder specialized itself but holds no reference to the ghost.
  EXPECT_EQ(node.path().length(), 1u);
  EXPECT_TRUE(node.RefsAt(1).empty());
}

TEST(NodeRobustnessTest, CommitInstallsValidatedReference) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, 21);
  ASSERT_TRUE(node.Start().ok());
  ExchangeRequest req;
  req.initiator = "node:ghost";
  auto raw = transport.Call("node:0", "node:ghost", EncodeExchangeRequest(req));
  ASSERT_TRUE(raw.ok());
  auto resp = DecodeExchangeResponse(*raw);
  ASSERT_TRUE(resp.ok());
  const uint8_t promised_bit = static_cast<uint8_t>(resp->append_bits.bit(0));

  // Committing the WRONG bit is rejected.
  CommitRequest bad;
  bad.level = 1;
  bad.bit = static_cast<uint8_t>(ComplementBit(promised_bit));
  auto bad_resp = transport.Call("node:0", "node:ghost", EncodeCommitRequest(bad));
  ASSERT_TRUE(bad_resp.ok());
  EXPECT_EQ(PeekType(*bad_resp).value(), MsgType::kError);
  EXPECT_TRUE(node.RefsAt(1).empty());

  // Committing an out-of-range level is rejected.
  CommitRequest oob;
  oob.level = 9;
  oob.bit = promised_bit;
  auto oob_resp = transport.Call("node:0", "node:ghost", EncodeCommitRequest(oob));
  ASSERT_TRUE(oob_resp.ok());
  EXPECT_EQ(PeekType(*oob_resp).value(), MsgType::kError);

  // The honest commit installs the reference.
  CommitRequest good;
  good.level = 1;
  good.bit = promised_bit;
  auto good_resp = transport.Call("node:0", "node:ghost", EncodeCommitRequest(good));
  ASSERT_TRUE(good_resp.ok());
  EXPECT_EQ(PeekType(*good_resp).value(), MsgType::kCommitAck);
  EXPECT_EQ(node.RefsAt(1), std::vector<std::string>{"node:ghost"});
}

TEST(NodeRobustnessTest, NetworkPartitionDegradesGracefullyAndHeals) {
  // Split a converged cluster into two halves that cannot reach each other; each
  // half keeps answering what it can, fails cleanly on the rest, and full service
  // returns when the partition heals.
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 4;
  std::vector<std::unique_ptr<PGridNode>> nodes;
  const size_t n = 24;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<PGridNode>("node:" + std::to_string(i),
                                                &faults, config, 3000 + i));
    ASSERT_TRUE(nodes.back()->Start().ok());
  }
  Rng rng(17);
  for (int m = 0; m < 4000; ++m) {
    size_t a = rng.UniformIndex(n), b = rng.UniformIndex(n);
    if (a != b) (void)nodes[a]->MeetWith(nodes[b]->address());
  }
  DataItem item;
  item.id = 5;
  item.key = KeyPath::FromString("010101").value();
  item.version = 1;
  ASSERT_TRUE(nodes[0]->Publish(item).ok());

  // Partition: the second half becomes unreachable.
  for (size_t i = n / 2; i < n; ++i) faults.InjectOutage(nodes[i]->address());

  size_t ok = 0, clean_failures = 0;
  for (size_t i = 0; i < n / 2; ++i) {
    auto r = nodes[i]->Search(item.key);
    if (r.ok()) {
      ++ok;
    } else if (r.status().IsNotFound()) {
      ++clean_failures;  // graceful: exhausted candidates, no hang or crash
    }
  }
  EXPECT_EQ(ok + clean_failures, n / 2);

  // Heal and verify full service returns.
  for (size_t i = n / 2; i < n; ++i) faults.ClearOutage(nodes[i]->address());
  size_t healed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (nodes[i]->Search(item.key).ok()) ++healed;
  }
  EXPECT_EQ(healed, n);
}

TEST(NodeRobustnessTest, EvictionNeedsConsecutiveFailuresNotOne) {
  InProcTransport transport;
  NodeConfig config;
  config.maxl = 3;
  // Level 1 is full with the single partner, so a maintenance round sends
  // exactly one outbound call (the probe) and rounds count consecutive
  // failures one by one.
  config.refmax = 1;
  ASSERT_EQ(config.suspicion_threshold, 3u);
  PGridNode a("node:a", &transport, config, 71);
  PGridNode b("node:b", &transport, config, 72);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.MeetWith("node:b").ok());
  ASSERT_EQ(a.KnownPeers().size(), 1u);

  // A flaky round (one failure, then reachable again) must not evict.
  b.Stop();
  (void)a.MaintainReferences();
  EXPECT_EQ(a.KnownPeers().size(), 1u) << "one failure is suspicion, not proof";
  ASSERT_TRUE(b.Start().ok());
  (void)a.MaintainReferences();  // success resets the streak
  EXPECT_EQ(a.KnownPeers().size(), 1u);

  // A genuinely dead peer drains out after `suspicion_threshold` consecutive
  // failed rounds -- and not a round earlier.
  b.Stop();
  (void)a.MaintainReferences();
  (void)a.MaintainReferences();
  EXPECT_EQ(a.KnownPeers().size(), 1u);
  (void)a.MaintainReferences();
  EXPECT_TRUE(a.KnownPeers().empty());
}

TEST(NodeRobustnessTest, MaintenanceEvictsDeadPeerFromEveryNeighbor) {
  // A converged cluster loses one node: maintenance rounds at the survivors
  // must drain the dead address out of all reference levels and buddy lists.
  InProcTransport transport;
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 3;
  const size_t n = 12;
  std::vector<std::unique_ptr<PGridNode>> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<PGridNode>("node:" + std::to_string(i),
                                                &transport, config, 4200 + i));
    ASSERT_TRUE(nodes.back()->Start().ok());
  }
  Rng rng(23);
  for (int m = 0; m < 3000; ++m) {
    size_t a = rng.UniformIndex(n), b = rng.UniformIndex(n);
    if (a != b) (void)nodes[a]->MeetWith(nodes[b]->address());
  }
  const std::string victim = nodes[n - 1]->address();
  nodes[n - 1]->Stop();

  for (int round = 0; round < 6; ++round) {
    for (size_t i = 0; i + 1 < n; ++i) (void)nodes[i]->MaintainReferences();
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    const auto known = nodes[i]->KnownPeers();
    EXPECT_EQ(std::count(known.begin(), known.end(), victim), 0)
        << "node " << i << " still knows the dead peer";
  }
}

TEST(NodeRobustnessTest, MaintenanceRecruitsVerifiedRefsAfterEviction) {
  // Losing a node opens gaps in its neighbors' reference levels; the targeted
  // recruitment lookups must refill them from the survivors, adopting only
  // references that satisfy the reference property.
  InProcTransport transport;
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 4;
  const size_t n = 24;
  std::vector<std::unique_ptr<PGridNode>> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<PGridNode>("node:" + std::to_string(i),
                                                &transport, config, 4200 + i));
    ASSERT_TRUE(nodes.back()->Start().ok());
  }
  Rng rng(23);
  for (int m = 0; m < 600; ++m) {
    size_t a = rng.UniformIndex(n), b = rng.UniformIndex(n);
    if (a != b) (void)nodes[a]->MeetWith(nodes[b]->address());
  }
  nodes[n - 1]->Stop();

  size_t recruited = 0;
  for (int round = 0; round < 8; ++round) {
    for (size_t i = 0; i + 1 < n; ++i) {
      recruited += nodes[i]->MaintainReferences();
    }
  }
  EXPECT_GT(recruited, 0u) << "evicted levels should refill from survivors";
  // Every reference -- pre-existing or freshly recruited -- satisfies the
  // reference property against the target's actual path.
  for (const auto& node : nodes) {
    const KeyPath path = node->path();
    for (size_t level = 1; level <= path.length(); ++level) {
      for (const std::string& addr : node->RefsAt(level)) {
        for (const auto& other : nodes) {
          if (other->address() != addr) continue;
          const KeyPath tpath = other->path();
          ASSERT_GE(tpath.length(), level) << addr;
          EXPECT_GE(path.CommonPrefixLength(tpath), level - 1);
          EXPECT_NE(tpath.bit(level - 1), path.bit(level - 1))
              << node->address() << " level " << level << " -> " << addr;
        }
      }
    }
  }
}

TEST(NodeRobustnessTest, ZeroSuspicionThresholdDisablesEviction) {
  InProcTransport transport;
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 1;
  config.suspicion_threshold = 0;
  PGridNode a("node:a", &transport, config, 81);
  PGridNode b("node:b", &transport, config, 82);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.MeetWith("node:b").ok());
  b.Stop();
  for (int round = 0; round < 10; ++round) (void)a.MaintainReferences();
  EXPECT_EQ(a.KnownPeers().size(), 1u)
      << "failure detection off: references must be left alone";
}

TEST(NodeRobustnessTest, RetryRecoversScriptedDropsWithExactArithmetic) {
  // Two peers, one meeting: both specialize to depth 1 and reference each
  // other. Script "drop the first 2 calls to node:b" and check the scenario's
  // arithmetic on both sides of the retry knob.
  struct Pair {
    std::unique_ptr<InProcTransport> bus;
    std::unique_ptr<FaultInjectingTransport> faults;
    std::unique_ptr<PGridNode> a, b;
  };
  auto build = [](size_t attempts) {
    Pair p;
    p.bus = std::make_unique<InProcTransport>();
    p.faults = std::make_unique<FaultInjectingTransport>(p.bus.get());
    NodeConfig config;
    config.maxl = 1;
    config.retry.max_attempts = attempts;
    config.retry.initial_backoff_ms = 1;
    config.retry.sleep_between_attempts = false;
    p.a = std::make_unique<PGridNode>("node:a", p.faults.get(), config, 31);
    p.b = std::make_unique<PGridNode>("node:b", p.faults.get(), config, 32);
    EXPECT_TRUE(p.a->Start().ok());
    EXPECT_TRUE(p.b->Start().ok());
    EXPECT_TRUE(p.a->MeetWith("node:b").ok());
    EXPECT_EQ(p.a->path().length(), 1u);
    EXPECT_EQ(p.b->path().length(), 1u);
    EXPECT_EQ(p.a->RefsAt(1), std::vector<std::string>{"node:b"});
    return p;
  };

  // With retries: the two scripted drops are absorbed, the search succeeds, and
  // the counters show exactly 2 retries and no offline skip.
  {
    Pair p = build(/*attempts=*/3);
    const KeyPath target = p.b->path();  // the key b is responsible for
    ASSERT_NE(p.a->path().bit(0), target.bit(0));
    p.faults->DropFirst("node:b", 2);
    auto r = p.a->Search(target);
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(p.a->metrics().GetCounter("rpc.retries")->value(), 2u);
    EXPECT_EQ(p.a->metrics().GetCounter("node.route_offline_skips")->value(), 0u);
    EXPECT_EQ(p.a->metrics().GetCounter("rpc.retry_exhausted")->value(), 0u);
  }

  // The no-retry baseline fails the same scenario: the single shot is dropped,
  // the only candidate is skipped as offline, routing exhausts.
  {
    Pair p = build(/*attempts=*/1);
    const KeyPath target = p.b->path();
    p.faults->DropFirst("node:b", 2);
    auto r = p.a->Search(target);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotFound());
    EXPECT_EQ(p.a->metrics().GetCounter("rpc.retries")->value(), 0u);
    EXPECT_EQ(p.a->metrics().GetCounter("node.route_offline_skips")->value(), 1u);
  }
}

TEST(NodeRobustnessTest, TimeWindowedPartitionHealsOnSchedule) {
  // Like NetworkPartitionDegradesGracefullyAndHeals, but the partition is a
  // scheduled rule on the fault layer: it heals when the virtual clock leaves
  // the window, with no Clear* intervention.
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 4;
  std::vector<std::unique_ptr<PGridNode>> nodes;
  const size_t n = 16;
  std::vector<std::string> half_a, half_b;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<PGridNode>("node:" + std::to_string(i),
                                                &faults, config, 7000 + i));
    ASSERT_TRUE(nodes.back()->Start().ok());
    (i < n / 2 ? half_a : half_b).push_back(nodes.back()->address());
  }
  Rng rng(23);
  for (int m = 0; m < 3000; ++m) {
    size_t a = rng.UniformIndex(n), b = rng.UniformIndex(n);
    if (a != b) (void)nodes[a]->MeetWith(nodes[b]->address());
  }
  DataItem item;
  item.id = 9;
  item.key = KeyPath::FromString("011").value();
  item.version = 1;
  ASSERT_TRUE(nodes[0]->Publish(item).ok());

  // Partition the halves for a window starting now.
  const uint64_t now = faults.virtual_now();
  faults.PartitionGroups({half_a, half_b}, now, now + 1'000'000);

  size_t ok = 0, clean_failures = 0;
  for (size_t i = 0; i < n / 2; ++i) {
    auto r = nodes[i]->Search(item.key);
    if (r.ok()) {
      ++ok;
    } else if (r.status().IsNotFound()) {
      ++clean_failures;
    }
  }
  EXPECT_EQ(ok + clean_failures, n / 2);  // degraded but never hung or crashed

  // The schedule runs out; service is whole again without touching the rules.
  faults.AdvanceTime(2'000'000);
  size_t healed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (nodes[i]->Search(item.key).ok()) ++healed;
  }
  EXPECT_EQ(healed, n);
}

TEST(NodeRobustnessTest, ChronicallySlowPeerDrainsViaProbeTimeout) {
  // Gray failure at the node layer: node:b answers every call, but slower than
  // the configured probe timeout. Slow successes feed the failure detector
  // like failures, so after `suspicion_threshold` consecutive slow calls the
  // peer drains out of the reference levels -- and node.slow_calls records
  // that they were slow deliveries, not drops.
  InProcTransport bus;
  FaultInjectingTransport faults(&bus);
  obs::MetricsRegistry registry;
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 1;
  config.probe_timeout_ms = 5;
  ASSERT_EQ(config.suspicion_threshold, 3u);
  PGridNode a("node:a", &faults, config, 91, &registry);
  PGridNode b("node:b", &faults, config, 92);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(a.MeetWith("node:b").ok());
  ASSERT_EQ(a.KnownPeers().size(), 1u);

  FaultRule slow;
  slow.to = "node:b";
  slow.action = FaultAction::kDelay;
  slow.delay_sleep_ms = 20;  // well past the 5ms budget
  faults.AddRule(slow);

  // Two slow probes: suspected, still referenced.
  EXPECT_TRUE(a.Probe("node:b").ok());
  EXPECT_TRUE(a.Probe("node:b").ok());
  EXPECT_EQ(a.KnownPeers().size(), 1u);
  // The third crosses the threshold: evicted despite never failing a call.
  EXPECT_TRUE(a.Probe("node:b").ok());
  EXPECT_TRUE(a.KnownPeers().empty());
  EXPECT_GE(registry.GetCounter("node.slow_calls")->value(), 3u);
}

TEST(NodeRobustnessTest, EvictionCooldownShedsReferencesOneAtATime) {
  // Two peers go over the suspicion threshold in the same detection window;
  // with eviction_cooldown = 1 the node sheds only one of them per window --
  // a slow network cannot mass-evict the whole reference set at once.
  InProcTransport transport;
  NodeConfig config;
  config.maxl = 3;
  config.refmax = 4;
  config.eviction_cooldown = 1;
  ASSERT_EQ(config.suspicion_threshold, 3u);
  PGridNode a("node:a", &transport, config, 95);
  PGridNode b("node:b", &transport, config, 96);
  PGridNode c("node:c", &transport, config, 97);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ASSERT_TRUE(c.Start().ok());
  ASSERT_TRUE(a.MeetWith("node:b").ok());
  ASSERT_TRUE(a.MeetWith("node:c").ok());
  ASSERT_EQ(a.KnownPeers().size(), 2u);

  b.Stop();
  c.Stop();
  // Both cross the threshold on the third round of probes: the first crossing
  // evicts, the second is suppressed by the cooldown.
  for (int round = 0; round < 3; ++round) {
    (void)a.Probe("node:b");
    (void)a.Probe("node:c");
  }
  EXPECT_EQ(a.KnownPeers().size(), 1u)
      << "cooldown must shed one reference per window, not both";
  // The survivor's streak restarted; three more failed probes evict it too.
  const std::string survivor = a.KnownPeers().front();
  for (int round = 0; round < 3; ++round) (void)a.Probe(survivor);
  EXPECT_TRUE(a.KnownPeers().empty());
}

TEST(NodeRobustnessTest, EntryPushWithHostileLengthsIsRejected) {
  InProcTransport transport;
  NodeConfig config;
  PGridNode node("node:0", &transport, config, 6);
  ASSERT_TRUE(node.Start().ok());
  // Hand-craft an EntryPush claiming 2^31 entries.
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(MsgType::kEntryPushReq));
  w.WriteU32(1u << 31);
  auto response = transport.Call("node:0", "x", w.Take());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(PeekType(*response).value(), MsgType::kError);
  EXPECT_TRUE(node.entries().empty());
}

}  // namespace
}  // namespace net
}  // namespace pgrid
