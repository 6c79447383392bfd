// Crash-point battery for the WAL layer (storage/wal.h).
//
// The recovery contract is "longest valid prefix": wherever the file is cut or
// whatever byte is flipped, ReadWal must return exactly the records that were
// wholly and correctly written before the damage, report where the valid
// prefix ends, and flag the torn tail. The battery below generates crash
// points programmatically -- a truncation at every record boundary, inside
// every frame header, and inside every body, plus bit-flips in every length
// field, CRC field, and body -- and asserts that contract for each one, then
// proves TruncateWal + append yields a cleanly extendable log again. The
// battery runs twice: over a log written one record per append, and over the
// same records written in batches (one write per batch, the way a durable
// commit writes them).

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/crc32.h"

namespace pgrid {
namespace storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// Record bodies of deliberately varied sizes: empty, tiny, medium, large
// enough to span several cache lines, and one with embedded NULs and the
// WAL magic (the framing must not care what the body looks like).
std::vector<std::string> ReferenceBodies() {
  std::vector<std::string> bodies;
  bodies.push_back("");
  bodies.push_back("a");
  bodies.push_back("hello wal");
  bodies.push_back(std::string(257, 'x'));
  bodies.push_back(std::string("PGWL\0\1\2\3 embedded", 18));
  bodies.push_back(std::string(1024, '\xab'));
  return bodies;
}

// Batch sizes that split ReferenceBodies() into one batch of one record, one
// of two, and one of three.
const std::vector<size_t> kBatchSizes = {1, 2, 3};

// Writes the reference WAL and returns the byte offset one past each record:
// boundaries[i] is where record i ends (boundaries[0] == kWalHeaderBytes,
// i.e. "zero records end at the header"). With `batch_sizes` the records go
// out in batches of those sizes (which must add up to bodies.size()), else
// one append each.
std::vector<uint64_t> WriteReferenceWal(const std::string& path,
                                        const std::vector<std::string>& bodies,
                                        const std::vector<size_t>& batch_sizes = {}) {
  WalWriter writer;
  EXPECT_TRUE(writer.Open(path, SyncMode::kFlush, /*truncate=*/true).ok());
  std::vector<uint64_t> boundaries;
  boundaries.push_back(kWalHeaderBytes);
  for (const std::string& body : bodies) boundaries.push_back(boundaries.back() + 8 + body.size());
  if (batch_sizes.empty()) {
    for (const std::string& body : bodies) EXPECT_TRUE(writer.Append(body).ok());
  } else {
    size_t next = 0;
    for (size_t size : batch_sizes) {
      WalBatch batch;
      for (size_t i = 0; i < size; ++i) EXPECT_TRUE(batch.Add(bodies[next++]).ok());
      EXPECT_TRUE(writer.Append(batch).ok());
    }
    EXPECT_EQ(next, bodies.size());
  }
  EXPECT_EQ(writer.appended(), bodies.size());
  writer.Close();
  return boundaries;
}

// One entry of the crash battery: mutate a pristine copy of the WAL, then
// expect exactly the first `expect_records` bodies back.
struct CrashPoint {
  std::string name;
  size_t truncate_at = 0;   // cut the file to this many bytes (if truncating)
  size_t flip_byte = 0;     // XOR 0x01 into this byte (if !truncate)
  bool truncate = true;
  size_t expect_records = 0;
  bool expect_torn = false;
};

class WalCrashBattery : public ::testing::Test {
 protected:
  void SetUp() override {
    bodies_ = ReferenceBodies();
    // Files are named after the test: ctest runs the battery's tests in
    // parallel processes.
    name_ = std::string("wal_crash_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ref_path_ = TempPath(name_ + ".reference.wal");
    boundaries_ = WriteReferenceWal(ref_path_, bodies_);
    pristine_ = ReadFileBytes(ref_path_);
    ASSERT_EQ(pristine_.size(), boundaries_.back());
  }

  // Builds the full programmatic crash-point table (> 20 points).
  std::vector<CrashPoint> BuildTable() const {
    std::vector<CrashPoint> table;
    const size_t n = bodies_.size();
    // Truncation at every exact record boundary: a clean prefix, no torn tail.
    for (size_t i = 0; i <= n; ++i) {
      table.push_back({"cut@boundary" + std::to_string(i), boundaries_[i], 0,
                       true, i, false});
    }
    // Truncation inside every frame header (mid-length and mid-CRC): the
    // half-written header is a torn tail, the prefix before it survives.
    for (size_t i = 0; i < n; ++i) {
      table.push_back({"cut@len" + std::to_string(i),
                       boundaries_[i] + 2, 0, true, i, true});
      table.push_back({"cut@crc" + std::to_string(i),
                       boundaries_[i] + 6, 0, true, i, true});
    }
    // Truncation mid-body for every non-empty body.
    for (size_t i = 0; i < n; ++i) {
      if (bodies_[i].empty()) continue;
      table.push_back({"cut@body" + std::to_string(i),
                       boundaries_[i] + 8 + bodies_[i].size() / 2, 0, true, i,
                       true});
    }
    // Bit-flips: in every length field, CRC field, and (non-empty) body. Each
    // invalidates its record; everything before it must still be returned and
    // everything after it discarded (a flipped length desyncs the framing, so
    // later intact records are unreachable by design).
    for (size_t i = 0; i < n; ++i) {
      table.push_back({"flip@len" + std::to_string(i), 0,
                       boundaries_[i] + 1, false, i, true});
      table.push_back({"flip@crc" + std::to_string(i), 0,
                       boundaries_[i] + 5, false, i, true});
      if (!bodies_[i].empty()) {
        table.push_back({"flip@body" + std::to_string(i), 0,
                         boundaries_[i] + 8 + bodies_[i].size() / 2, false, i,
                         true});
      }
    }
    return table;
  }

  // Rewrites the reference log in batches; the crash points stay the same,
  // because the bytes must.
  void WriteBatched() {
    ASSERT_EQ(WriteReferenceWal(ref_path_, bodies_, kBatchSizes), boundaries_);
    ASSERT_EQ(ReadFileBytes(ref_path_), pristine_);
  }

  void CheckEveryCrashPoint() const;
  void CheckTruncateThenAppend() const;

  // Applies one crash point to a fresh copy and returns the damaged bytes.
  std::string Damage(const CrashPoint& cp) const {
    std::string bytes = pristine_;
    if (cp.truncate) {
      bytes.resize(cp.truncate_at);
    } else {
      bytes[cp.flip_byte] = static_cast<char>(bytes[cp.flip_byte] ^ 0x01);
    }
    return bytes;
  }

  std::vector<std::string> bodies_;
  std::vector<uint64_t> boundaries_;
  std::string name_;
  std::string ref_path_;
  std::string pristine_;
};

void WalCrashBattery::CheckEveryCrashPoint() const {
  const std::vector<CrashPoint> table = BuildTable();
  ASSERT_GE(table.size(), 20u);
  const std::string path = TempPath(name_ + ".case.wal");
  for (const CrashPoint& cp : table) {
    SCOPED_TRACE(cp.name);
    WriteFileBytes(path, Damage(cp));
    Result<WalContents> read = ReadWal(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->records.size(), cp.expect_records);
    for (size_t i = 0; i < cp.expect_records; ++i) {
      EXPECT_EQ(read->records[i], bodies_[i]) << "record " << i;
    }
    EXPECT_EQ(read->valid_bytes, boundaries_[cp.expect_records]);
    EXPECT_EQ(read->torn_tail, cp.expect_torn);
  }
}

void WalCrashBattery::CheckTruncateThenAppend() const {
  const std::string path = TempPath(name_ + ".case.wal");
  for (const CrashPoint& cp : BuildTable()) {
    if (!cp.expect_torn) continue;
    SCOPED_TRACE(cp.name);
    WriteFileBytes(path, Damage(cp));
    Result<WalContents> read = ReadWal(path);
    ASSERT_TRUE(read.ok());
    ASSERT_TRUE(TruncateWal(path, read->valid_bytes).ok());

    // After truncation the log is a clean prefix...
    Result<WalContents> clean = ReadWal(path);
    ASSERT_TRUE(clean.ok());
    EXPECT_FALSE(clean->torn_tail);
    EXPECT_EQ(clean->records.size(), cp.expect_records);

    // ...and append mode extends it without disturbing the old records.
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, SyncMode::kFlush, /*truncate=*/false).ok());
    ASSERT_TRUE(writer.Append("appended-after-recovery").ok());
    writer.Close();
    Result<WalContents> extended = ReadWal(path);
    ASSERT_TRUE(extended.ok());
    ASSERT_EQ(extended->records.size(), cp.expect_records + 1);
    EXPECT_EQ(extended->records.back(), "appended-after-recovery");
    EXPECT_FALSE(extended->torn_tail);
  }
}

TEST_F(WalCrashBattery, EveryCrashPointRecoversTheExactValidPrefix) {
  CheckEveryCrashPoint();
}

TEST_F(WalCrashBattery, TruncateThenAppendExtendsACleanPrefix) {
  CheckTruncateThenAppend();
}

TEST_F(WalCrashBattery, EveryCrashPointOfABatchedLogRecoversTheExactValidPrefix) {
  ASSERT_NO_FATAL_FAILURE(WriteBatched());
  CheckEveryCrashPoint();
}

TEST_F(WalCrashBattery, TruncateThenAppendExtendsABatchedLog) {
  ASSERT_NO_FATAL_FAILURE(WriteBatched());
  CheckTruncateThenAppend();
}

// ---- header and framing edge cases ----

TEST(WalTest, MissingFileIsNotFound) {
  Result<WalContents> read = ReadWal(TempPath("wal_never_written.wal"));
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(WalTest, EmptyLogHasHeaderOnlyAndZeroRecords) {
  const std::string path = TempPath("wal_empty.wal");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, SyncMode::kNone, /*truncate=*/true).ok());
  writer.Close();
  Result<WalContents> read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->valid_bytes, kWalHeaderBytes);
  EXPECT_FALSE(read->torn_tail);
}

TEST(WalTest, ShortOrForeignHeaderIsInvalidArgument) {
  const std::string path = TempPath("wal_bad_header.wal");
  WriteFileBytes(path, "PGW");  // shorter than the 8-byte header
  Result<WalContents> short_read = ReadWal(path);
  EXPECT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kInvalidArgument);

  WriteFileBytes(path, "NOTAWAL!record soup");
  Result<WalContents> foreign = ReadWal(path);
  EXPECT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalTest, AppendModeRefusesAForeignFile) {
  const std::string path = TempPath("wal_foreign_append.wal");
  WriteFileBytes(path, "this is not a wal at all");
  WalWriter writer;
  Status status = writer.Open(path, SyncMode::kNone, /*truncate=*/false);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(writer.is_open());
}

TEST(WalTest, ImplausibleLengthPrefixIsCorruptionNotAnAllocation) {
  // A frame whose length field exceeds kMaxWalRecordBytes must be treated as
  // the first invalid byte, not as a request to allocate 4 GiB.
  const std::string path = TempPath("wal_huge_len.wal");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path, SyncMode::kFlush, /*truncate=*/true).ok());
  ASSERT_TRUE(writer.Append("good record").ok());
  writer.Close();

  std::string bytes = ReadFileBytes(path);
  const uint32_t huge = kMaxWalRecordBytes + 1;
  std::string frame(reinterpret_cast<const char*>(&huge), 4);
  frame += std::string(4, '\0');  // arbitrary CRC; never reached
  frame += "tail";
  WriteFileBytes(path, bytes + frame);

  Result<WalContents> read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0], "good record");
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->valid_bytes, bytes.size());
}

TEST(WalTest, ReopenAppendContinuesTheLog) {
  const std::string path = TempPath("wal_reopen.wal");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, SyncMode::kFlush, /*truncate=*/true).ok());
    ASSERT_TRUE(writer.Append("first").ok());
    EXPECT_EQ(writer.appended(), 1u);
  }
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path, SyncMode::kFsync, /*truncate=*/false).ok());
    ASSERT_TRUE(writer.Append("second").ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  Result<WalContents> read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0], "first");
  EXPECT_EQ(read->records[1], "second");
}

TEST(WalTest, AppendRequiresAnOpenWriter) {
  WalWriter writer;
  EXPECT_FALSE(writer.Append("nope").ok());
  WalBatch batch;
  ASSERT_TRUE(batch.Add("nope").ok());
  EXPECT_FALSE(writer.Append(batch).ok());
  EXPECT_FALSE(writer.is_open());
}

TEST(WalTest, ABatchOfKFramesIsByteIdenticalToKSingleAppends) {
  const std::vector<std::string> bodies = ReferenceBodies();
  const std::string single = TempPath("wal_batch_single.wal");
  const std::string batched = TempPath("wal_batch_batched.wal");
  WriteReferenceWal(single, bodies);
  WriteReferenceWal(batched, bodies, {bodies.size()});
  EXPECT_EQ(ReadFileBytes(batched), ReadFileBytes(single));

  WalBatch batch;
  for (const std::string& body : bodies) ASSERT_TRUE(batch.Add(body).ok());
  EXPECT_EQ(batch.records(), bodies.size());
  EXPECT_EQ(batch.bytes(), ReadFileBytes(single).substr(kWalHeaderBytes));

  // An empty batch writes nothing.
  WalWriter writer;
  ASSERT_TRUE(writer.Open(batched, SyncMode::kFlush, /*truncate=*/false).ok());
  ASSERT_TRUE(writer.Append(WalBatch()).ok());
  EXPECT_EQ(writer.appended(), 0u);
  writer.Close();
  EXPECT_EQ(ReadFileBytes(batched), ReadFileBytes(single));
}

// ---- CRC-32 primitive ----

TEST(Crc32Test, MatchesTheIeeeCheckVector) {
  // The canonical CRC-32 (reflected, poly 0xEDB88320) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data(64, 'q');
  const uint32_t base = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    std::string flipped = data;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x10);
    EXPECT_NE(Crc32(flipped), base) << "byte " << byte;
  }
}

}  // namespace
}  // namespace storage
}  // namespace pgrid
