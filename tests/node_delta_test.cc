// Mark completeness of PGridNode's delta commits (storage/peer_delta.h).
//
// A durable node commits only the slices of its state it marked as changed,
// so a mutation that forgets its mark is lost on the next restart -- silently,
// because the live node still has it. This test runs a seeded in-process
// community with storage on through every kind of state change the node
// makes: meetings (replica meetings included), new publishes and
// republishes, a node stopped long enough for the others to evict it from
// their references and buddy lists, reference maintenance rounds, and one
// restart. After every operation it recovers every node's store through a
// second PersistenceManager and compares it with the live node: path,
// references per level in order, buddies in order, sorted index entries,
// foreign entries in order, and the items the node published. Compaction
// every 3 commits runs the node's compaction path too.
//
// The same checks hold the node's running index digest to the index: after
// every operation each serving node's probe digest must equal sim::IndexDigest
// recomputed from its entries, with storage on (where Start() re-seeds the sum
// from a recovered index) and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/inproc_transport.h"
#include "net/node.h"
#include "sim/digest.h"
#include "storage/persist.h"
#include "util/rng.h"

namespace pgrid {
namespace net {
namespace {

namespace fs = std::filesystem;

constexpr size_t kNodes = 12;
constexpr size_t kMaxl = 3;
constexpr uint64_t kSeed = 5;

std::string Address(size_t i) { return "node:" + std::to_string(i); }

/// The directory a node keeps its store in (docs/storage.md).
std::string NodeStoreDir(const std::string& root, size_t i) {
  return root + "/node-node_" + std::to_string(i);
}

std::string EntryLine(const std::string& holder, ItemId item, const KeyPath& key,
                      uint64_t version) {
  return holder + " " + std::to_string(item) + " " + key.ToString() + " v" +
         std::to_string(version);
}

/// The durable part of a node's state, rendered with addresses.
struct View {
  std::string path;
  std::vector<std::vector<std::string>> refs;
  std::vector<std::string> buddies;
  std::vector<std::string> entries;  // sorted
  std::vector<std::string> foreign;  // in order
  std::vector<std::string> items;    // sorted by id

  std::string ToString() const {
    std::ostringstream out;
    out << "path " << path << "\n";
    for (size_t level = 0; level < refs.size(); ++level) {
      out << "refs " << level + 1 << ":";
      for (const std::string& r : refs[level]) out << " " << r;
      out << "\n";
    }
    out << "buddies:";
    for (const std::string& b : buddies) out << " " << b;
    out << "\n";
    for (const std::string& e : entries) out << "entry " << e << "\n";
    for (const std::string& e : foreign) out << "foreign " << e << "\n";
    for (const std::string& i : items) out << "item " << i << "\n";
    return out.str();
  }
};

std::string ItemLine(const DataItem& item) {
  return std::to_string(item.id) + " " + item.key.ToString() + " " + item.payload + " v" +
         std::to_string(item.version);
}

View LiveView(const PGridNode& node, const std::map<ItemId, DataItem>& published) {
  View v;
  const KeyPath path = node.path();
  v.path = path.ToString();
  for (size_t level = 1; level <= path.length(); ++level) v.refs.push_back(node.RefsAt(level));
  v.buddies = node.buddies();
  for (const WireEntry& e : node.entries()) {
    v.entries.push_back(EntryLine(e.holder, e.item_id, e.key, e.version));
  }
  std::sort(v.entries.begin(), v.entries.end());
  for (const WireEntry& e : node.foreign_entries()) {
    v.foreign.push_back(EntryLine(e.holder, e.item_id, e.key, e.version));
  }
  for (const auto& [id, item] : published) v.items.push_back(ItemLine(item));
  return v;
}

/// Recovers node `i`'s store through a manager of its own.
Result<View> StoredView(const std::string& root, size_t i) {
  storage::StorageConfig config;
  config.dir = NodeStoreDir(root, i);
  storage::PersistenceManager reader(config, kMaxl);
  std::vector<std::string> names;
  PGRID_ASSIGN_OR_RETURN(PeerState peer, reader.Recover(0, &names));
  const auto name = [&names](PeerId id) { return names[id]; };
  View v;
  v.path = peer.path().ToString();
  for (size_t level = 1; level <= peer.depth(); ++level) {
    std::vector<std::string> refs;
    for (PeerId id : peer.RefsAt(level)) refs.push_back(name(id));
    v.refs.push_back(std::move(refs));
  }
  for (PeerId id : peer.buddies()) v.buddies.push_back(name(id));
  peer.index().ForEach([&](const IndexEntry& e) {
    v.entries.push_back(EntryLine(name(e.holder), e.item_id, e.key, e.version));
  });
  std::sort(v.entries.begin(), v.entries.end());
  for (const IndexEntry& e : peer.foreign_entries()) {
    v.foreign.push_back(EntryLine(name(e.holder), e.item_id, e.key, e.version));
  }
  std::map<ItemId, DataItem> items;
  for (const auto& [id, item] : peer.store()) items[id] = item;
  for (const auto& [id, item] : items) v.items.push_back(ItemLine(item));
  return v;
}

class Community {
 public:
  /// Nodes keep their stores under `root`; an empty root turns storage off.
  Community(std::string root, size_t nodes) : root_(std::move(root)) {
    if (!root_.empty()) fs::remove_all(root_);
    config_.maxl = kMaxl;
    config_.refmax = 2;
    config_.recmax = 2;
    config_.recursion_fanout = 2;
    config_.storage.dir = root_;
    config_.storage.compact_every = 3;
    published_.resize(nodes);
    stopped_.resize(nodes);
    for (size_t i = 0; i < nodes; ++i) Restart(i);
  }

  ~Community() {
    for (auto& node : nodes_) {
      if (node != nullptr) node->Stop();
    }
    nodes_.clear();
    if (!root_.empty()) fs::remove_all(root_);
  }

  /// Replaces node `i` by a new object that recovers from its store.
  void Restart(size_t i) {
    if (nodes_.size() <= i) nodes_.resize(i + 1);
    if (nodes_[i] != nullptr) nodes_[i]->Stop();
    nodes_[i].reset();
    nodes_[i] = std::make_unique<PGridNode>(Address(i), &transport_, config_,
                                            DeriveStreamSeed(kSeed, 100 + i + 50 * restarts_++));
    const Status started = nodes_[i]->Start();
    ASSERT_TRUE(started.ok()) << started;
    stopped_[i] = false;
  }

  void Stop(size_t i) {
    nodes_[i]->Stop();
    stopped_[i] = true;
  }

  bool stopped(size_t i) const { return stopped_[i]; }

  PGridNode& node(size_t i) { return *nodes_[i]; }

  void Publish(size_t origin, DataItem item) {
    published_[origin][item.id] = item;
    (void)nodes_[origin]->Publish(item);
  }

  /// Every node's recovered store equals its live state, and every serving
  /// node's digest its index.
  void ExpectStoresMatch(const std::string& after) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      Result<View> stored = StoredView(root_, i);
      ASSERT_TRUE(stored.ok()) << after << ": " << Address(i) << ": " << stored.status();
      const std::string live = LiveView(*nodes_[i], published_[i]).ToString();
      ASSERT_EQ(stored->ToString(), live) << "after " << after << ", " << Address(i);
    }
    ExpectDigestsMatch(after);
  }

  /// The digest each serving node answers a probe with equals sim::IndexDigest
  /// of its entries, holders folded as addresses. The probe is sent straight
  /// to the handler, so it feeds no node's failure detector.
  void ExpectDigestsMatch(const std::string& after) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (stopped_[i]) continue;
      Result<std::string> raw = transport_.Call(Address(i), "checker", EncodeProbeRequest());
      ASSERT_TRUE(raw.ok()) << after << ": " << Address(i) << ": " << raw.status();
      Result<ProbeResponse> probe = DecodeProbeResponse(*raw);
      ASSERT_TRUE(probe.ok()) << after << ": " << Address(i) << ": " << probe.status();
      std::vector<std::string> holders;
      LeafIndex index;
      for (const WireEntry& e : nodes_[i]->entries()) {
        if (holders.empty() || holders.back() != e.holder) holders.push_back(e.holder);
        index.InsertOrRefresh(IndexEntry{static_cast<PeerId>(holders.size() - 1), e.item_id,
                                         e.key, e.version});
      }
      const uint64_t recomputed = sim::IndexDigest(
          index, [&holders](sim::Digest& d, PeerId id) { d.Str(holders[id]); });
      ASSERT_EQ(probe->index_digest, recomputed) << "after " << after << ", " << Address(i);
      ASSERT_EQ(probe->entry_count, index.size()) << "after " << after << ", " << Address(i);
    }
  }

  /// Sum of counter `name` over all nodes.
  uint64_t Total(const std::string& name) {
    uint64_t total = 0;
    for (auto& node : nodes_) total += node->metrics().GetCounter(name)->value();
    return total;
  }

 private:
  std::string root_;
  NodeConfig config_;
  InProcTransport transport_{0.0, /*seed=*/17};
  std::vector<std::unique_ptr<PGridNode>> nodes_;
  std::vector<std::map<ItemId, DataItem>> published_;
  std::vector<bool> stopped_;
  uint64_t restarts_ = 0;
};

DataItem MakeItem(ItemId id, Rng* rng, uint64_t version = 1) {
  DataItem item;
  item.id = id;
  item.key = KeyPath::Random(rng, 8);
  item.payload = "item-" + std::to_string(id);
  item.version = version;
  return item;
}

TEST(NodeDeltaTest, EveryOperationLeavesARecoverableStore) {
  Community c(::testing::TempDir() + "/node_delta_store", kNodes);
  Rng rng(DeriveStreamSeed(kSeed, 1));
  std::vector<std::pair<size_t, DataItem>> items;  // (origin, latest version)
  const auto live_node = [&] {
    size_t i = rng.UniformIndex(kNodes);
    while (c.stopped(i)) i = rng.UniformIndex(kNodes);
    return i;
  };
  const auto meet = [&] {
    const size_t a = live_node();
    const size_t b = (a + 1 + rng.UniformIndex(kNodes - 1)) % kNodes;
    (void)c.node(a).MeetWith(Address(b));
    return "meeting " + Address(a) + " -> " + Address(b);
  };
  const auto publish_new = [&] {
    const size_t origin = live_node();
    DataItem item = MakeItem(items.size() + 1, &rng);
    items.emplace_back(origin, item);
    c.Publish(origin, item);
    return "publish of item " + std::to_string(item.id);
  };
  const auto republish = [&] {
    auto& [origin, item] = items[rng.UniformIndex(items.size())];
    ++item.version;
    if (c.stopped(origin)) return std::string("skipped republish");
    c.Publish(origin, item);
    return "republish of item " + std::to_string(item.id);
  };

  // Items published while the paths are still short get drained, handed on
  // and parked as the grid specializes.
  for (int op = 0; op < 160; ++op) {
    const std::string what = op % 4 == 0 ? publish_new() : meet();
    ASSERT_NO_FATAL_FAILURE(c.ExpectStoresMatch(what));
  }
  for (int op = 0; op < 200; ++op) {
    const double pick = rng.UniformDouble();
    const std::string what = pick < 0.5 ? meet() : pick < 0.75 ? publish_new() : republish();
    ASSERT_NO_FATAL_FAILURE(c.ExpectStoresMatch(what));
  }

  // Stop a node that some other node keeps as a buddy, so its eviction
  // removes buddy entries as well as references.
  size_t victim = kNodes;
  for (size_t i = 0; i < kNodes && victim == kNodes; ++i) {
    for (const std::string& b : c.node(i).buddies()) {
      victim = std::stoul(b.substr(b.find(':') + 1));
      break;
    }
  }
  ASSERT_LT(victim, kNodes) << "no replica pair formed";
  c.Stop(victim);
  const auto knows_victim = [&] {
    for (size_t i = 0; i < kNodes; ++i) {
      if (i == victim) continue;
      const std::vector<std::string> known = c.node(i).KnownPeers();
      if (std::count(known.begin(), known.end(), Address(victim)) > 0) return true;
    }
    return false;
  };
  for (int round = 0; round < 8 && knows_victim(); ++round) {
    for (size_t i = 0; i < kNodes; ++i) {
      if (c.stopped(i)) continue;
      c.node(i).MaintainReferences();
      ASSERT_NO_FATAL_FAILURE(
          c.ExpectStoresMatch("maintenance of " + Address(i) + " in round " +
                              std::to_string(round)));
    }
  }
  EXPECT_FALSE(knows_victim()) << Address(victim) << " was never evicted everywhere";
  for (int op = 0; op < 80; ++op) {
    const double pick = rng.UniformDouble();
    const std::string what = pick < 0.5 ? meet() : pick < 0.75 ? publish_new() : republish();
    ASSERT_NO_FATAL_FAILURE(c.ExpectStoresMatch(what));
  }

  // The victim comes back from its store and rejoins.
  ASSERT_NO_FATAL_FAILURE(c.Restart(victim));
  EXPECT_TRUE(c.node(victim).recovered_from_disk());
  ASSERT_NO_FATAL_FAILURE(c.ExpectStoresMatch("the restart"));
  for (int op = 0; op < 120; ++op) {
    const double pick = rng.UniformDouble();
    std::string what;
    if (pick < 0.1) {
      const size_t i = live_node();
      c.node(i).MaintainReferences();
      what = "maintenance of " + Address(i);
    } else {
      what = pick < 0.55 ? meet() : pick < 0.75 ? publish_new() : republish();
    }
    ASSERT_NO_FATAL_FAILURE(c.ExpectStoresMatch(what));
  }
}

// The running digest with storage off, where Start() installs no recovered
// state: meetings (replica meetings included), new publishes and republishes,
// with each node's digest checked against its entries after every operation.
TEST(NodeDeltaTest, RunningDigestMatchesTheIndexWithStorageOff) {
  Community c("", kNodes);
  Rng rng(DeriveStreamSeed(kSeed, 4));
  std::vector<std::pair<size_t, DataItem>> items;  // (origin, latest version)
  for (int op = 0; op < 400; ++op) {
    const double pick = items.empty() ? 0.6 : rng.UniformDouble();
    std::string what;
    if (pick < 0.5) {
      const size_t a = rng.UniformIndex(kNodes);
      const size_t b = (a + 1 + rng.UniformIndex(kNodes - 1)) % kNodes;
      (void)c.node(a).MeetWith(Address(b));
      what = "meeting " + Address(a) + " -> " + Address(b);
    } else if (pick < 0.75) {
      const size_t origin = rng.UniformIndex(kNodes);
      items.emplace_back(origin, MakeItem(items.size() + 1, &rng));
      c.Publish(origin, items.back().second);
      what = "publish of item " + std::to_string(items.size());
    } else {
      auto& [origin, item] = items[rng.UniformIndex(items.size())];
      ++item.version;
      c.Publish(origin, item);
      what = "republish of item " + std::to_string(item.id);
    }
    ASSERT_NO_FATAL_FAILURE(c.ExpectDigestsMatch(what));
  }
  // Both sides of the gate ran.
  EXPECT_GT(c.Total("node.replica_syncs_skipped"), 0u);
  EXPECT_GT(c.Total("node.meet_entries_shipped"), 0u);
}

// Entries parked without a drain in the same commit. A node whose path is
// still empty holds every entry it published; when it meets a node two levels
// deeper it specializes one level, and entries that belong neither to it nor
// to the deeper node end up in its foreign buffer -- as the responder, in the
// exchange handler; as the initiator, when the deeper node hands its push
// back. Nothing else marks the foreign buffer in those commits.
TEST(NodeDeltaTest, EntriesParkedByADeeperMeetingAreStored) {
  Community c(::testing::TempDir() + "/node_delta_park", 5);
  const size_t initiator = 0, responder = 1, deep = 2, other = 3, twin = 4;
  Rng rng(DeriveStreamSeed(kSeed, 2));
  for (ItemId id = 1; id <= 64; ++id) {
    c.Publish(id % 2 == 0 ? initiator : responder, MakeItem(id, &rng));
    ASSERT_NO_FATAL_FAILURE(c.ExpectStoresMatch("publish of item " + std::to_string(id)));
  }
  // `deep` and `twin` split one level, then meet with equal paths and split
  // again: both end two levels deep.
  const std::vector<std::pair<size_t, size_t>> meetings = {
      {deep, other}, {twin, other}, {deep, twin}, {initiator, deep}, {deep, responder}};
  for (const auto& [a, b] : meetings) {
    ASSERT_TRUE(c.node(a).MeetWith(Address(b)).ok());
    ASSERT_NO_FATAL_FAILURE(
        c.ExpectStoresMatch("meeting " + Address(a) + " -> " + Address(b)));
  }
  EXPECT_EQ(c.node(deep).path().length(), 2u);
  EXPECT_FALSE(c.node(initiator).foreign_entries().empty());
  EXPECT_FALSE(c.node(responder).foreign_entries().empty());
}

// Commits from several threads at once: each encodes under the node's state
// lock and writes under its persistence lock, and a mutation that races a
// commit is picked up by the commit its own thread makes after it. Once every
// thread is done, every store holds its node's state. (Under ThreadSanitizer
// this is also the race check of the commit path.)
TEST(NodeDeltaTest, ConcurrentOperationsLeaveRecoverableStores) {
  constexpr size_t kConcurrentNodes = 8;
  constexpr size_t kThreads = 4;
  Community c(::testing::TempDir() + "/node_delta_concurrent", kConcurrentNodes);
  Rng rng(DeriveStreamSeed(kSeed, 3));
  for (int m = 0; m < 40; ++m) {
    const size_t a = rng.UniformIndex(kConcurrentNodes);
    (void)c.node(a).MeetWith(Address((a + 1 + rng.UniformIndex(kConcurrentNodes - 1)) %
                                     kConcurrentNodes));
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      Rng local(DeriveStreamSeed(kSeed, 10 + t));
      for (int op = 0; op < 120; ++op) {
        if (op % 3 == 0) {
          // Each thread publishes from its own nodes only.
          const size_t origin = t + kThreads * local.UniformIndex(kConcurrentNodes / kThreads);
          c.Publish(origin, MakeItem(1000 * (t + 1) + local.UniformIndex(40), &local,
                                     /*version=*/op + 1));
        } else {
          const size_t a = local.UniformIndex(kConcurrentNodes);
          const size_t b = (a + 1 + local.UniformIndex(kConcurrentNodes - 1)) % kConcurrentNodes;
          (void)c.node(a).MeetWith(Address(b));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  c.ExpectStoresMatch("concurrent operations");
}

}  // namespace
}  // namespace net
}  // namespace pgrid
