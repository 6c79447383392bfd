// Durable storage of networked nodes: the PersistenceManager with a name table
// (storage/persist.h) and PGridNode's restart path over it (net/node.h).
//
// A node names peers by dense ids into its address book and persists the book
// as the store's name table. These tests pin the table's round trips (commit
// a larger table, recover the same names; save -> recover -> save stays
// byte-identical; a WAL replayed over the snapshot that already folded it in
// converges), the kFsync round trip, the node's storage.* metrics, that
// Start() refuses a store whose ids or table do not belong to the node
// instead of installing it, and that a recovered entry the path does not
// cover leaves the index at the next meeting.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/inproc_transport.h"
#include "net/node.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "storage/peer_codec.h"
#include "storage/persist.h"
#include "storage/wal.h"

namespace pgrid {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

KeyPath Key(const char* bits) { return KeyPath::FromString(bits).value(); }

/// Everything a PeerState holds, rendered canonically.
std::string Describe(const PeerState& p) {
  std::ostringstream out;
  out << "path " << p.path().ToString() << "\n";
  for (size_t level = 1; level <= p.depth(); ++level) {
    out << "refs " << level << ":";
    for (PeerId r : p.RefsAt(level)) out << " " << r;
    out << "\n";
  }
  out << "buddies:";
  for (PeerId b : p.buddies()) out << " " << b;
  out << "\n";
  for (const IndexEntry& e : storage::CanonicalEntries(p.index())) {
    out << "entry " << e.holder << " " << e.item_id << " " << e.key.ToString() << " "
        << e.version << "\n";
  }
  for (const IndexEntry& e : p.foreign_entries()) {
    out << "foreign " << e.holder << " " << e.item_id << " " << e.key.ToString()
        << "\n";
  }
  for (ItemId id = 0; id < 100; ++id) {
    if (const DataItem* item = p.store().Get(id)) {
      out << "item " << id << " " << item->payload << " " << item->version << "\n";
    }
  }
  return out.str();
}

/// A node-shaped peer: id 0 is the peer itself, the others index `kNames`.
const std::vector<std::string> kNames = {"self:0", "a:1", "b:2", "c:3"};

PeerState SamplePeer() {
  PeerState p(0);
  p.AppendPathBit(1);
  p.AppendPathBit(0);
  p.SetRefsAt(1, {1, 2});
  p.SetRefsAt(2, {3});
  p.AddBuddy(2);
  p.index().InsertOrRefresh({0, 11, Key("1001"), 1});
  p.index().InsertOrRefresh({3, 12, Key("10"), 2});
  p.foreign_entries().push_back({1, 13, Key("0111"), 1});
  DataItem item;
  item.id = 11;
  item.key = Key("1001");
  item.payload = "eleven";
  item.version = 1;
  p.store().Upsert(item);
  return p;
}

/// SamplePeer after it met two more peers: a buddy (id 4) and an entry holder
/// (id 5) that `kNames` does not hold.
PeerState GrownPeer() {
  PeerState p = SamplePeer();
  p.AddBuddy(4);
  p.index().InsertOrRefresh({5, 14, Key("101"), 1});
  return p;
}

std::vector<std::string> GrownNames() {
  std::vector<std::string> names = kNames;
  names.push_back("d:4");
  names.push_back("e:5");
  return names;
}

/// What GrownPeer changed in SamplePeer.
storage::PeerDelta GrownDelta() {
  storage::PeerDelta delta;
  delta.MarkBuddies();
  delta.MarkIndex(5, 14);
  return delta;
}

TEST(NodeStoreTest, CommitOfALargerTableRecoversTheSameNames) {
  storage::StorageConfig config;
  config.dir = FreshDir("node_store_names");
  config.compact_every = 0;
  storage::PersistenceManager manager(config, /*maxl=*/4);
  ASSERT_TRUE(manager.Attach(SamplePeer(), kNames).ok());

  const PeerState grown = GrownPeer();
  Result<storage::CommitInfo> info = manager.Commit(grown, GrownDelta(), GrownNames());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->records, 3u);  // the two names, the buddy list, the new entry
  // Nothing changed since: no record, not even for the names.
  info = manager.Commit(grown, storage::PeerDelta(), GrownNames());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->records, 0u);

  std::vector<std::string> names;
  Result<PeerState> recovered = manager.Recover(0, &names);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(names, GrownNames());
  EXPECT_EQ(Describe(*recovered), Describe(grown));
}

TEST(NodeStoreTest, SaveRecoverSaveIsByteIdenticalWithANameTable) {
  storage::StorageConfig config;
  config.dir = FreshDir("node_store_canonical_a");
  storage::PersistenceManager first(config, 4);
  storage::StorageConfig config2 = config;
  config2.dir = FreshDir("node_store_canonical_b");
  storage::PersistenceManager second(config2, 4);

  // The state and the names reach the first store through the WAL, and the
  // compaction writes what recovery rebuilt from it.
  ASSERT_TRUE(first.Attach(PeerState(0), {"self:0"}).ok());
  const PeerState grown = GrownPeer();
  ASSERT_TRUE(first.Commit(grown, storage::PeerDelta::All(grown), GrownNames()).ok());
  std::vector<std::string> replayed_names;
  Result<PeerState> replayed = first.Recover(0, &replayed_names);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ASSERT_TRUE(first.Compact(*replayed, replayed_names).ok());
  std::vector<std::string> names;
  Result<PeerState> recovered = first.Recover(0, &names);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ASSERT_TRUE(second.Attach(*recovered, names).ok());
  EXPECT_EQ(ReadFileBytes(first.SnapshotPath(0)), ReadFileBytes(second.SnapshotPath(0)));
}

TEST(NodeStoreTest, WalReplayedOverTheSnapshotThatFoldedItInConverges) {
  storage::StorageConfig config;
  config.dir = FreshDir("node_store_refold");
  config.compact_every = 0;
  storage::PersistenceManager manager(config, 4);
  ASSERT_TRUE(manager.Attach(PeerState(0), {"self:0"}).ok());
  const PeerState grown = GrownPeer();
  ASSERT_TRUE(manager.Commit(grown, storage::PeerDelta::All(grown), GrownNames()).ok());
  const std::string wal = ReadFileBytes(manager.WalPath(0));
  // A crash after the compaction's snapshot rename but before its WAL
  // truncation leaves the new snapshot next to the old WAL.
  ASSERT_TRUE(manager.Compact(grown, GrownNames()).ok());
  manager.Detach(0);
  {
    std::ofstream out(manager.WalPath(0), std::ios::binary | std::ios::trunc);
    out.write(wal.data(), static_cast<std::streamsize>(wal.size()));
  }
  std::vector<std::string> names;
  Result<PeerState> recovered = manager.Recover(0, &names);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(names, GrownNames());
  EXPECT_EQ(Describe(*recovered), Describe(GrownPeer()));
}

TEST(NodeStoreTest, FsyncModeRoundTrips) {
  // Every commit compacts, so each one writes a snapshot and syncs the store
  // directory before it truncates the WAL. (No test here can cut power: this
  // covers that the synced path works, not that it survives a crash.)
  storage::StorageConfig config;
  config.dir = FreshDir("node_store_fsync");
  config.sync_mode = storage::SyncMode::kFsync;
  config.compact_every = 1;
  storage::PersistenceManager manager(config, 4);
  ASSERT_TRUE(manager.Attach(SamplePeer(), kNames).ok());
  Result<storage::CommitInfo> info = manager.Commit(GrownPeer(), GrownDelta(), GrownNames());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_TRUE(info->compacted);
  PeerState later = GrownPeer();
  later.RemoveBuddy(2);
  storage::PeerDelta buddies;
  buddies.MarkBuddies();
  info = manager.Commit(later, buddies, GrownNames());
  ASSERT_TRUE(info.ok()) << info.status();

  std::vector<std::string> names;
  Result<PeerState> recovered = manager.Recover(0, &names);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(names, GrownNames());
  EXPECT_EQ(Describe(*recovered), Describe(later));
}

// ---- PGridNode refuses stores that are not its own ----

net::NodeConfig StoreConfig(const std::string& dir) {
  net::NodeConfig config;
  config.maxl = 3;
  config.refmax = 2;
  config.storage.dir = dir;
  return config;
}

/// Runs two nodes until "node:1" has a path, references and an entry on disk.
void WriteStore(net::InProcTransport* transport, const net::NodeConfig& config) {
  net::PGridNode a("node:1", transport, config, 1);
  net::PGridNode b("node:2", transport, config, 2);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a.MeetWith("node:2").ok());
  DataItem item;
  item.id = 5;
  item.key = Key("0101");
  item.version = 1;
  ASSERT_TRUE(a.Publish(item).ok());
  ASSERT_FALSE(a.path().empty());
}

TEST(NodeStoreTest, StartRejectsAWalRecordNamingAnIdOutsideTheTable) {
  const std::string dir = FreshDir("node_store_bad_id");
  net::InProcTransport transport;
  const net::NodeConfig config = StoreConfig(dir);
  WriteStore(&transport, config);
  {
    // Control: the store as written recovers.
    net::PGridNode node("node:1", &transport, config, 3);
    ASSERT_TRUE(node.Start().ok());
    EXPECT_TRUE(node.recovered_from_disk());
  }

  // Append a record that passes its CRC but makes id 99 a buddy, while the
  // table holds three names. The layout is kSetBuddies from
  // storage/persist.cc: u8 type 3, u32 count, u32 ids.
  net::ByteWriter body;
  body.WriteU8(3);
  body.WriteU32(1);
  body.WriteU32(99);
  storage::WalWriter wal;
  ASSERT_TRUE(wal.Open(dir + "/node-node_1/peer-0.wal", storage::SyncMode::kFlush,
                       /*truncate=*/false)
                  .ok());
  ASSERT_TRUE(wal.Append(body.data()).ok());
  wal.Close();

  net::PGridNode node("node:1", &transport, config, 3);
  const Status started = node.Start();
  EXPECT_FALSE(started.ok());
  EXPECT_NE(started.ToString().find("outside the name table"), std::string::npos)
      << started;
  EXPECT_FALSE(node.recovered_from_disk());
  EXPECT_TRUE(node.path().empty());
  EXPECT_TRUE(node.buddies().empty());
}

TEST(NodeStoreTest, StartRejectsAStoreRecoveredUnderAnotherAddress) {
  const std::string dir = FreshDir("node_store_other_address");
  net::InProcTransport transport;
  const net::NodeConfig config = StoreConfig(dir);
  WriteStore(&transport, config);

  // "node_1" maps to the same store directory as "node:1", but the store's
  // name table says id 0 is "node:1".
  net::PGridNode impostor("node_1", &transport, config, 3);
  const Status started = impostor.Start();
  EXPECT_FALSE(started.ok());
  EXPECT_FALSE(impostor.recovered_from_disk());
  EXPECT_TRUE(impostor.path().empty());
  EXPECT_TRUE(impostor.entries().empty());

  net::PGridNode owner("node:1", &transport, config, 3);
  ASSERT_TRUE(owner.Start().ok());
  EXPECT_TRUE(owner.recovered_from_disk());
  EXPECT_FALSE(owner.path().empty());
}

// ---- a recovered index is drained like any other ----

TEST(NodeStoreTest, AnEntryTheRecoveredPathDoesNotCoverLeavesAtTheNextMeeting) {
  // A WAL cut inside a commit can recover an index entry that the recovered
  // path does not cover. The node restarts in place at the depth its last
  // drain saw, so only a drain that always looks can find that entry.
  const std::string dir = FreshDir("node_store_uncovered_entry");
  net::InProcTransport transport;
  const net::NodeConfig config = StoreConfig(dir);
  net::PGridNode a("node:1", &transport, config, 1);
  net::PGridNode b("node:2", &transport, config, 2);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(a.MeetWith("node:2").ok());
  const KeyPath path = a.path();
  ASSERT_FALSE(path.empty());
  a.Stop();

  // Plant an entry of item 77 under a key that leaves the path at its first bit.
  {
    storage::StorageConfig store = config.storage;
    store.dir += "/node-node_1";
    storage::PersistenceManager manager(store, config.maxl);
    std::vector<std::string> names;
    Result<PeerState> state = manager.Recover(0, &names);
    ASSERT_TRUE(state.ok()) << state.status();
    KeyPath uncovered;
    uncovered.PushBack(ComplementBit(path.bit(0)));
    uncovered.PushBack(1);
    ASSERT_FALSE(PathsOverlap(path, uncovered));
    state->index().InsertOrRefresh({0, 77, uncovered, 1});
    ASSERT_TRUE(manager.Attach(*state, names).ok());
  }
  const auto holds_77 = [](const std::vector<net::WireEntry>& entries) {
    return std::any_of(entries.begin(), entries.end(),
                       [](const net::WireEntry& e) { return e.item_id == 77; });
  };
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(a.recovered_from_disk());
  ASSERT_EQ(a.path(), path);
  ASSERT_TRUE(holds_77(a.entries()));

  ASSERT_TRUE(a.MeetWith("node:2").ok());
  EXPECT_FALSE(holds_77(a.entries()));
  EXPECT_TRUE(holds_77(b.entries()) || holds_77(b.foreign_entries()) ||
              holds_77(a.foreign_entries()));
}

// ---- the node's storage.* metrics ----

TEST(NodeStoreTest, StorageMetricsCountWhatTheCommitsWrote) {
  const std::string dir = FreshDir("node_store_metrics");
  net::InProcTransport transport;
  net::NodeConfig config = StoreConfig(dir);
  config.storage.compact_every = 0;
  net::PGridNode node("node:1", &transport, config, 1);
  ASSERT_TRUE(node.Start().ok());
  const std::string wal = dir + "/node-node_1/peer-0.wal";
  const uint64_t before = fs::file_size(wal);

  DataItem item;
  item.id = 5;
  item.key = Key("0101");
  item.payload = "five";
  item.version = 1;
  ASSERT_TRUE(node.Publish(item).ok());
  obs::MetricsRegistry& m = node.metrics();
  EXPECT_GT(fs::file_size(wal), before);
  EXPECT_EQ(m.GetCounter("storage.commit_bytes")->value(), fs::file_size(wal) - before);
  // A lone node is responsible for every key: the publish commits the stored
  // item, then the index entry it installs at itself.
  EXPECT_EQ(m.GetCounter("storage.commits")->value(), 2u);
  EXPECT_EQ(m.GetCounter("storage.commit_records")->value(), 2u);
  EXPECT_EQ(m.GetHistogram("storage.commit_us", obs::LatencyBoundsUs())->count(), 2u);
  EXPECT_EQ(m.GetCounter("storage.compactions")->value(), 0u);

  // With a compaction after every commit, each commit counts one.
  const std::string dir2 = FreshDir("node_store_metrics_compacting");
  net::NodeConfig compacting = StoreConfig(dir2);
  compacting.storage.compact_every = 1;
  net::PGridNode other("node:2", &transport, compacting, 2);
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(other.Publish(item).ok());
  EXPECT_EQ(other.metrics().GetCounter("storage.commits")->value(), 2u);
  EXPECT_EQ(other.metrics().GetCounter("storage.compactions")->value(), 2u);
}

}  // namespace
}  // namespace pgrid
