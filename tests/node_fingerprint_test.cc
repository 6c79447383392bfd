// Pins the structure a seeded PGridNode community builds.
//
// 32 in-process nodes with the node_read shape (maxl 5, refmax 3, recmax 2,
// fan-out 2) run 60 meetings per node, publish 2,000 items, then run 2,000
// mixed searches, republishes and meetings, all from fixed seeds. Every node's
// externally visible state -- address, path, references per level in order,
// buddies in order, sorted entries and foreign entries, protocol counters and
// the probe's index digest -- is folded into one value and compared against a
// constant. A change to how the node keeps its state must leave every draw of
// the node's random stream, and so this value, unchanged. The durable case
// runs the same community with storage on and folds the state of every node
// after it was restarted from disk. A third case runs the community through a
// fault layer with no rule armed, which must be invisible to the nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "net/fault_transport.h"
#include "net/inproc_transport.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace pgrid {
namespace net {
namespace {

constexpr size_t kNodes = 32;
constexpr size_t kKeyBits = 16;
constexpr size_t kMeetingsPerNode = 60;
constexpr size_t kItems = 2000;
constexpr size_t kMixedOps = 2000;
constexpr uint64_t kSeed = 7;

// The fold of a community built by the code before PGridNode kept its state in
// a PeerState (address strings, its own leaf index and persistence format).
constexpr uint64_t kExpectedFingerprint = 0xfa7a72f0189ced15ull;

/// FNV-1a over the values fed to it.
class Fold {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  void Entries(std::vector<WireEntry> entries) {
    std::sort(entries.begin(), entries.end(), [](const WireEntry& a, const WireEntry& b) {
      return std::make_tuple(a.holder, a.item_id, a.key.ToString(), a.version) <
             std::make_tuple(b.holder, b.item_id, b.key.ToString(), b.version);
    });
    U64(entries.size());
    for (const WireEntry& e : entries) {
      Str(e.holder);
      U64(e.item_id);
      Str(e.key.ToString());
      U64(e.version);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string Address(size_t i) { return "node:" + std::to_string(i); }

NodeConfig Config(const std::string& store_dir) {
  NodeConfig c;
  c.maxl = 5;
  c.refmax = 3;
  c.recmax = 2;
  c.recursion_fanout = 2;
  c.storage.dir = store_dir;
  return c;
}

/// The community. Each node keeps its counters in a registry of its own that
/// outlives the node, so a restarted node reports the counters of the node it
/// replaced. Nodes call each other on the bare bus, or through a fault layer
/// over it that has no rule armed.
struct Community {
  explicit Community(const std::string& store_dir, bool through_fault_layer = false)
      : config(Config(store_dir)),
        transport(through_fault_layer ? static_cast<RpcTransport*>(&faults) : &bus) {
    for (size_t i = 0; i < kNodes; ++i) {
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
      Restart(i);
    }
  }

  void Restart(size_t i) {
    if (nodes.size() <= i) nodes.resize(i + 1);
    if (nodes[i] != nullptr) nodes[i]->Stop();
    nodes[i].reset();
    nodes[i] = std::make_unique<PGridNode>(Address(i), transport, config,
                                           DeriveStreamSeed(kSeed, 100 + i),
                                           registries[i].get());
    const Status started = nodes[i]->Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  NodeConfig config;
  InProcTransport bus;
  FaultInjectingTransport faults{&bus};
  RpcTransport* transport;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<std::unique_ptr<PGridNode>> nodes;
};

struct Item {
  DataItem data;
  size_t origin = 0;
};

void RunWorkload(Community* c) {
  Rng rng(DeriveStreamSeed(kSeed, 1));
  for (size_t m = 0; m < kMeetingsPerNode * kNodes; ++m) {
    const size_t a = rng.UniformIndex(kNodes);
    const size_t b = (a + 1 + rng.UniformIndex(kNodes - 1)) % kNodes;
    EXPECT_TRUE(c->nodes[a]->MeetWith(Address(b)).ok());
  }
  std::vector<Item> items;
  for (size_t i = 0; i < kItems; ++i) {
    Item item;
    item.data.id = i + 1;
    item.data.key = KeyPath::Random(&rng, kKeyBits);
    item.data.payload = "item-" + std::to_string(i + 1);
    item.data.version = 1;
    item.origin = rng.UniformIndex(kNodes);
    EXPECT_TRUE(c->nodes[item.origin]->Publish(item.data).ok());
    items.push_back(std::move(item));
  }
  for (size_t op = 0; op < kMixedOps; ++op) {
    const double kind = rng.UniformDouble();
    if (kind < 0.80) {
      const Item& item = items[rng.UniformIndex(items.size())];
      EXPECT_TRUE(c->nodes[rng.UniformIndex(kNodes)]->Search(item.data.key).ok());
    } else if (kind < 0.95) {
      Item& item = items[rng.UniformIndex(items.size())];
      ++item.data.version;
      EXPECT_TRUE(c->nodes[item.origin]->Publish(item.data).ok());
    } else {
      const size_t a = rng.UniformIndex(kNodes);
      const size_t b = (a + 1 + rng.UniformIndex(kNodes - 1)) % kNodes;
      EXPECT_TRUE(c->nodes[a]->MeetWith(Address(b)).ok());
    }
  }
}

uint64_t Fingerprint(Community* c) {
  Fold f;
  for (const auto& node : c->nodes) {
    f.Str(node->address());
    const KeyPath path = node->path();
    f.Str(path.ToString());
    for (size_t level = 1; level <= path.length(); ++level) {
      const std::vector<std::string> refs = node->RefsAt(level);
      f.U64(refs.size());
      for (const std::string& r : refs) f.Str(r);
    }
    const std::vector<std::string> buddies = node->buddies();
    f.U64(buddies.size());
    for (const std::string& b : buddies) f.Str(b);
    f.Entries(node->entries());
    f.Entries(node->foreign_entries());
    for (const char* name :
         {"node.exchanges_initiated", "node.exchanges_served", "node.queries_served",
          "node.publishes_served", "node.entries_adopted"}) {
      f.U64(node->metrics().GetCounter(name)->value());
    }
    Result<ProbeResponse> probe = node->Probe(node->address());
    EXPECT_TRUE(probe.ok()) << probe.status();
    if (probe.ok()) f.U64(probe->index_digest);
  }
  return f.value();
}

TEST(NodeFingerprintTest, StorageOff) {
  Community c("");
  RunWorkload(&c);
  const uint64_t fp = Fingerprint(&c);
  EXPECT_EQ(fp, kExpectedFingerprint) << "fingerprint 0x" << std::hex << fp;
}

TEST(NodeFingerprintTest, StorageOffThroughIdleFaultLayer) {
  Community c("", /*through_fault_layer=*/true);
  RunWorkload(&c);
  const uint64_t fp = Fingerprint(&c);
  EXPECT_EQ(fp, kExpectedFingerprint) << "fingerprint 0x" << std::hex << fp;
  // Every call crossed the layer and none was held back.
  EXPECT_GT(c.bus.delivered_calls(), 0u);
  EXPECT_EQ(c.faults.delivered_calls(), c.bus.delivered_calls());
  EXPECT_EQ(c.faults.dropped_calls(), 0u);
}

TEST(NodeFingerprintTest, StorageOnAfterRestart) {
  const std::string dir = ::testing::TempDir() + "/node_fingerprint_store";
  std::filesystem::remove_all(dir);
  Community c(dir);
  RunWorkload(&c);
  for (size_t i = 0; i < kNodes; ++i) {
    c.Restart(i);
    EXPECT_TRUE(c.nodes[i]->recovered_from_disk()) << Address(i);
  }
  const uint64_t fp = Fingerprint(&c);
  EXPECT_EQ(fp, kExpectedFingerprint) << "fingerprint 0x" << std::hex << fp;
  for (auto& node : c.nodes) node->Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace net
}  // namespace pgrid
