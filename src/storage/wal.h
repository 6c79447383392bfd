// Append-only write-ahead log with per-record CRC framing (docs/storage.md).
//
// File layout:
//
//   "PGWL" | u32 format version | record*
//   record = u32 body length | u32 crc32(body) | body bytes
//
// All integers little-endian. The body is opaque to this layer; the durable
// layer above (storage/persist.h) encodes typed state-delta records into it.
//
// Recovery contract: ReadWal() parses the longest valid prefix and reports how
// far it got. A record whose header is short, whose length is implausible, or
// whose CRC does not match the body marks the first invalid byte; everything
// before it is returned, everything from it on is a torn tail to be truncated
// (TruncateWal). This is the standard "crash anywhere, recover the last
// consistent prefix" WAL discipline; tests/wal_test.cc drives a crash-point
// battery over every boundary.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "storage/storage_config.h"
#include "util/result.h"

namespace pgrid {
namespace storage {

/// Bytes of WAL file header: magic + format version.
inline constexpr size_t kWalHeaderBytes = 8;

/// Upper bound on one record body; larger length prefixes are treated as
/// corruption (a garbage length must not trigger a giant allocation).
inline constexpr uint32_t kMaxWalRecordBytes = 1u << 28;

/// CRC-framed records collected for one write (WalWriter::Append(const
/// WalBatch&)). The frames are laid out exactly as single appends would lay
/// them out, back to back.
class WalBatch {
 public:
  /// Frames `body` behind the records already added. InvalidArgument if it is
  /// larger than kMaxWalRecordBytes.
  Status Add(std::string_view body);

  uint64_t records() const { return records_; }
  bool empty() const { return records_ == 0; }

  /// The framed records, as they go to the file.
  const std::string& bytes() const { return frames_; }

 private:
  std::string frames_;
  uint64_t records_ = 0;
};

/// Appends CRC-framed records to one WAL file.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending. With `truncate` the file is recreated with a
  /// fresh header; otherwise an existing file is validated (magic + version)
  /// and appended to, and a missing file is created. A failed open leaves the
  /// writer closed.
  Status Open(const std::string& path, SyncMode mode, bool truncate);

  /// Appends one record and applies the sync mode. The writer must be open.
  Status Append(std::string_view body);

  /// Appends every record of `batch` with one write and applies the sync mode
  /// once. A crash or error inside the write leaves a prefix of the batch's
  /// frames, possibly ending in a torn one, which ReadWal cuts at the last
  /// whole frame. No-op for an empty batch.
  Status Append(const WalBatch& batch);

  /// Forces buffered records to the OS (and the disk under kFsync).
  Status Sync();

  void Close();

  bool is_open() const { return file_ != nullptr; }

  /// Records appended through this writer since Open.
  uint64_t appended() const { return appended_; }

 private:
  std::FILE* file_ = nullptr;
  SyncMode mode_ = SyncMode::kNone;
  uint64_t appended_ = 0;
};

/// Result of scanning a WAL file.
struct WalContents {
  /// Record bodies of the longest valid prefix, in append order.
  std::vector<std::string> records;

  /// File offset one past the last valid record (>= kWalHeaderBytes). Bytes at
  /// and beyond this offset failed validation.
  uint64_t valid_bytes = 0;

  /// True iff bytes past `valid_bytes` existed (a torn or corrupt tail).
  bool torn_tail = false;
};

/// Parses the longest valid prefix of the WAL at `path`. NotFound if the file
/// does not exist; InvalidArgument if even the 8-byte header is bad (a WAL
/// whose header is gone is indistinguishable from a foreign file, so it is an
/// error rather than an empty log).
Result<WalContents> ReadWal(const std::string& path);

/// Truncates the file to `valid_bytes` (as reported by ReadWal), dropping the
/// torn tail so subsequent appends extend a clean prefix.
Status TruncateWal(const std::string& path, uint64_t valid_bytes);

}  // namespace storage
}  // namespace pgrid
