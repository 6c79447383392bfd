#include "net/wire.h"

#include <gtest/gtest.h>

#include <compare>
#include <filesystem>
#include <fstream>

#include "storage/peer_codec.h"
#include "storage/persist.h"
#include "tests/hex.h"
#include "util/rng.h"

namespace pgrid {
namespace net {
namespace {

TEST(WireTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteString("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, EmptyStringAndZeroValues) {
  ByteWriter w;
  w.WriteU32(0);
  w.WriteString("");
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU32().value(), 0u);
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, StringWithEmbeddedNulBytes) {
  std::string s("a\0b\0c", 5);
  ByteWriter w;
  w.WriteString(s);
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadString().value(), s);
}

TEST(WireTest, TruncatedReadsFail) {
  ByteWriter w;
  w.WriteU32(42);
  {
    ByteReader r(std::string_view(w.data()).substr(0, 2));
    EXPECT_FALSE(r.ReadU32().ok());
  }
  {
    ByteReader r("");
    EXPECT_FALSE(r.ReadU8().ok());
    EXPECT_FALSE(r.ReadU64().ok());
    EXPECT_FALSE(r.ReadString().ok());
    EXPECT_FALSE(r.ReadKeyPath().ok());
  }
}

TEST(WireTest, StringLengthPrefixBeyondDataFails) {
  ByteWriter w;
  w.WriteU32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.data());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(WireTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  ByteWriter w;
  w.WriteU32(0xFFFFFFFF);
  ByteReader r(w.data());
  Status s = r.ReadString().status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("cap"), std::string::npos);
}

TEST(WireTest, KeyPathRoundTripVariousLengths) {
  Rng rng(1);
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u, 200u}) {
    KeyPath k = KeyPath::Random(&rng, len);
    ByteWriter w;
    w.WriteKeyPath(k);
    ByteReader r(w.data());
    Result<KeyPath> back = r.ReadKeyPath();
    ASSERT_TRUE(back.ok()) << "len " << len;
    EXPECT_EQ(*back, k) << "len " << len;
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WireTest, KeyPathEncodingIsCompact) {
  ByteWriter w;
  w.WriteKeyPath(KeyPath::FromUint64(0b10110101, 8));
  // 4 bytes length + 1 byte payload.
  EXPECT_EQ(w.data().size(), 5u);
}

TEST(WireTest, KeyPathTruncatedPayloadFails) {
  ByteWriter w;
  w.WriteKeyPath(KeyPath::FromUint64(0xFF, 8));
  ByteReader r(std::string_view(w.data()).substr(0, 4));  // length but no bits
  EXPECT_FALSE(r.ReadKeyPath().ok());
}

TEST(WireTest, StringListRoundTrip) {
  ByteWriter w;
  w.WriteStringList({"a", "", "long-address:1234", "x"});
  ByteReader r(w.data());
  auto back = r.ReadStringList();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, (std::vector<std::string>{"a", "", "long-address:1234", "x"}));
}

TEST(WireTest, SequentialMixedDecode) {
  Rng rng(2);
  KeyPath k = KeyPath::Random(&rng, 33);
  ByteWriter w;
  w.WriteString("node-a");
  w.WriteKeyPath(k);
  w.WriteU64(77);
  w.WriteStringList({"p", "q"});
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadString().value(), "node-a");
  EXPECT_EQ(r.ReadKeyPath().value(), k);
  EXPECT_EQ(r.ReadU64().value(), 77u);
  EXPECT_EQ(r.ReadStringList().value().size(), 2u);
  EXPECT_TRUE(r.AtEnd());
}

// ---- Pinned bytes ----
//
// The expected bytes below were captured from a bit-by-bit encoder. Round
// trips alone would pass a change of bit order made on both sides; these pins
// keep every store and message written by an older build readable.

using testing_util::Hex;
using testing_util::Unhex;

// The first `length` bits of a fixed 130-bit pattern (no period of 8, so a
// byte or bit order mistake shows).
KeyPath PatternKey(size_t length) {
  static constexpr std::string_view kBits =
      "10011110011001000110110001001111010110001000010111011110100010100"
      "10100110000001010110001101100000101001110100111101000110001001110";
  return KeyPath::FromString(kBits.substr(0, length)).value();
}

// Sets the bits past a key path's length in its last byte; `at` is the offset
// of the key path's u32 length prefix in `bytes`.
void SetPaddingBits(std::string* bytes, size_t at) {
  ByteReader r(std::string_view(*bytes).substr(at));
  const uint32_t bits = r.ReadU32().value();
  ASSERT_NE(bits % 8, 0u) << "no padding bits to set";
  (*bytes)[at + 4 + (bits - 1) / 8] |= static_cast<char>(0xff << (bits % 8));
}

TEST(WireGoldenTest, FixedWidthIntegers) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteU32(0);
  w.WriteU64(~uint64_t{0});
  const char* kPinned = "abefbeaddeefcdab896745230100000000ffffffffffffffff";
  EXPECT_EQ(Hex(w.data()), kPinned);
  const std::string pinned = Unhex(kPinned);
  ByteReader r(pinned);
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.ReadU32().value(), 0u);
  EXPECT_EQ(r.ReadU64().value(), ~uint64_t{0});
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireGoldenTest, KeyPaths) {
  const std::vector<std::pair<size_t, const char*>> cases = {
      {0, "00000000"},
      {1, "0100000001"},
      {7, "0700000079"},
      {8, "0800000079"},
      {9, "090000007900"},
      {63, "3f000000792636f21aa17b51"},
      {64, "40000000792636f21aa17b51"},
      {65, "41000000792636f21aa17b5100"},
      {130, "82000000792636f21aa17b51ca408d0dcae5c5c801"},
  };
  for (const auto& [length, pinned_hex] : cases) {
    const KeyPath key = PatternKey(length);
    ByteWriter w;
    w.WriteKeyPath(key);
    EXPECT_EQ(Hex(w.data()), pinned_hex) << "length " << length;
    const std::string pinned = Unhex(pinned_hex);
    ByteReader r(pinned);
    Result<KeyPath> back = r.ReadKeyPath();
    ASSERT_TRUE(back.ok()) << "length " << length;
    EXPECT_EQ(*back, key) << "length " << length;
    EXPECT_TRUE(r.AtEnd()) << "length " << length;
  }
}

// A peer-core block (storage/peer_codec.h) holding inline and heap key paths.
PeerState GoldenPeer() {
  PeerState peer(3);
  const KeyPath path = PatternKey(5);
  for (size_t i = 0; i < path.length(); ++i) peer.AppendPathBit(path.bit(i));
  peer.SetRefsAt(1, {7, 9});
  peer.SetRefsAt(2, {4});
  peer.SetRefsAt(4, {12});
  peer.AddBuddy(5);
  peer.AddBuddy(11);
  peer.index().InsertOrRefresh({2, 40, PatternKey(9), 3});
  peer.index().InsertOrRefresh({1, 41, PatternKey(65), 1});
  peer.foreign_entries().push_back({6, 42, KeyPath::FromString("0110").value(), 2});
  return peer;
}

constexpr storage::PeerCoreBounds kGoldenBounds{/*maxl=*/8, /*peer_id_bound=*/16};

std::string EncodePeerCore(const PeerState& peer) {
  ByteWriter w;
  storage::WritePeerCore(&w, peer);
  return w.Take();
}

TEST(WireGoldenTest, PeerCoreBlock) {
  const char* kPinned =
      "0500000019020000000700000009000000010000000400000000000000010000"
      "000c0000000000000002000000050000000b0000000200000001000000290000"
      "000000000041000000792636f21aa17b51000100000000000000020000002800"
      "000000000000090000007900030000000000000001000000060000002a000000"
      "0000000004000000060200000000000000";
  const PeerState peer = GoldenPeer();
  EXPECT_EQ(Hex(EncodePeerCore(peer)), kPinned);

  const std::string pinned = Unhex(kPinned);
  ByteReader r(pinned);
  PeerState back(3);
  size_t path_bits = 0;
  ASSERT_TRUE(storage::ReadPeerCore(&r, kGoldenBounds, &back, &path_bits).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(path_bits, 5u);
  EXPECT_EQ(back.path(), peer.path());
  EXPECT_EQ(storage::CanonicalEntries(back.index()), storage::CanonicalEntries(peer.index()));
  ASSERT_EQ(back.foreign_entries().size(), 1u);
  EXPECT_EQ(back.foreign_entries()[0], peer.foreign_entries()[0]);
  EXPECT_EQ(Hex(EncodePeerCore(back)), kPinned);
}

TEST(WireGoldenTest, PeerCorePaddingBitsAreIgnored) {
  // Senders write the bits past a key's length as 0; a reader must ignore
  // them, since KeyPath's ==, Hash() and <=> assume they are zero.
  PeerState peer(3);
  const KeyPath path = PatternKey(5);
  for (size_t i = 0; i < path.length(); ++i) peer.AppendPathBit(path.bit(i));
  const IndexEntry entry{2, 40, PatternKey(9), 3};
  peer.index().InsertOrRefresh(entry);
  const std::string clean = EncodePeerCore(peer);
  // path | 5 empty ref levels | no buddies | entry count | the entry | no foreign
  const size_t entry_at = 5 + 5 * 4 + 4 + 4;
  std::string dirty = clean;
  SetPaddingBits(&dirty, 0);
  SetPaddingBits(&dirty, entry_at + 4 + 8);
  ASSERT_NE(dirty, clean);

  ByteReader r(dirty);
  PeerState back(3);
  ASSERT_TRUE(storage::ReadPeerCore(&r, kGoldenBounds, &back, nullptr).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.path(), path);
  EXPECT_EQ(back.path().Hash(), path.Hash());
  EXPECT_EQ(back.path() <=> path, std::strong_ordering::equal);
  const std::vector<IndexEntry> entries = back.index().All();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], entry);
  EXPECT_EQ(entries[0].key.Hash(), entry.key.Hash());
  EXPECT_EQ(entries[0].key <=> entry.key, std::strong_ordering::equal);
  EXPECT_EQ(EncodePeerCore(back), clean);
}

TEST(WireGoldenTest, WalCommitRecord) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/wire_golden_wal";
  fs::remove_all(dir);
  storage::StorageConfig config;
  config.dir = dir;
  config.compact_every = 0;
  storage::PersistenceManager manager(config, /*maxl=*/8);
  PeerState peer(0);
  std::vector<std::string> names = {"node:0", "node:1"};
  ASSERT_TRUE(manager.Attach(peer, names).ok());

  // One commit: the name table and the path grow, a reference level and the
  // buddies change, and an index entry and a stored item arrive.
  storage::PeerDelta delta;
  names.push_back("node:2");
  peer.AppendPathBit(1);
  delta.MarkPath();
  peer.SetRefsAt(1, {2});
  delta.MarkRefs(1);
  peer.AddBuddy(1);
  delta.MarkBuddies();
  peer.index().InsertOrRefresh({2, 40, PatternKey(9), 3});
  delta.MarkIndex(2, 40);
  peer.store().Upsert(DataItem{41, PatternKey(65), "payload", 2});
  delta.MarkItem(41);
  Result<storage::CommitBatch> batch = manager.Encode(peer, delta, names);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const char* kPinned =
      "13000000d0c634af090200000001000000060000006e6f64653a320600000020"
      "6bf9300101000000010d000000b3772e92020100000001000000020000000900"
      "0000904f92ab0301000000010000001b000000ab902875040200000028000000"
      "000000000900000079000300000000000000290000006e68cc9e072900000000"
      "00000041000000792636f21aa17b5100070000007061796c6f61640200000000"
      "000000";
  EXPECT_EQ(Hex(batch->frames.bytes()), kPinned);

  // The pinned frames, appended to the WAL as a write would append them,
  // recover to the same state.
  manager.Detach(0);
  {
    std::ofstream wal(manager.WalPath(0), std::ios::binary | std::ios::app);
    wal << Unhex(kPinned);
  }
  std::vector<std::string> recovered_names;
  Result<PeerState> back = manager.Recover(0, &recovered_names);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(recovered_names, names);
  EXPECT_EQ(back->path(), peer.path());
  EXPECT_EQ(back->RefsAt(1).ToVector(), std::vector<PeerId>{2});
  EXPECT_EQ(back->buddies().ToVector(), std::vector<PeerId>{1});
  EXPECT_EQ(back->index().All(), peer.index().All());
  const DataItem* item = back->store().Get(41);
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->key, PatternKey(65));
  EXPECT_EQ(item->payload, "payload");
  EXPECT_EQ(item->version, 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace net
}  // namespace pgrid
