#include "storage/wal.h"

#include <cerrno>
#include <cstring>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

#include "storage/crc32.h"

namespace pgrid {
namespace storage {

namespace {

constexpr char kWalMagic[4] = {'P', 'G', 'W', 'L'};
constexpr uint32_t kWalVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status FsyncFile(std::FILE* f) {
#ifdef _WIN32
  (void)f;
  return Status::OK();
#else
  if (fsync(fileno(f)) != 0) {
    return Status::Internal(std::string("fsync failed: ") + std::strerror(errno));
  }
  return Status::OK();
#endif
}

}  // namespace

Status WalWriter::Open(const std::string& path, SyncMode mode, bool truncate) {
  Close();
  mode_ = mode;
  appended_ = 0;
  if (!truncate) {
    // Append mode: validate an existing header so we never extend a file that
    // is not a WAL (appends after a bogus header would be unrecoverable).
    if (std::FILE* existing = std::fopen(path.c_str(), "rb")) {
      char header[kWalHeaderBytes];
      const size_t got = std::fread(header, 1, sizeof(header), existing);
      std::fclose(existing);
      if (got < sizeof(header) ||
          std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0 ||
          GetU32(header + 4) != kWalVersion) {
        return Status::InvalidArgument(path + " is not a P-Grid WAL");
      }
      file_ = std::fopen(path.c_str(), "ab");
      if (file_ == nullptr) {
        return Status::Internal("cannot open " + path + " for appending");
      }
      return Status::OK();
    }
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  std::string header;
  header.append(kWalMagic, sizeof(kWalMagic));
  PutU32(&header, kWalVersion);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    Close();
    return Status::Internal("write of WAL header to " + path + " failed");
  }
  Status synced = Sync();
  if (!synced.ok()) Close();
  return synced;
}

Status WalBatch::Add(std::string_view body) {
  if (body.size() > kMaxWalRecordBytes) {
    return Status::InvalidArgument("WAL record exceeds the size cap");
  }
  PutU32(&frames_, static_cast<uint32_t>(body.size()));
  PutU32(&frames_, Crc32(body));
  frames_.append(body);
  ++records_;
  return Status::OK();
}

Status WalWriter::Append(std::string_view body) {
  WalBatch one;
  PGRID_RETURN_IF_ERROR(one.Add(body));
  return Append(one);
}

Status WalWriter::Append(const WalBatch& batch) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL is not open");
  if (batch.empty()) return Status::OK();
  const std::string& frames = batch.bytes();
  if (std::fwrite(frames.data(), 1, frames.size(), file_) != frames.size()) {
    return Status::Internal("WAL append failed");
  }
  appended_ += batch.records();
  if (mode_ != SyncMode::kNone) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL is not open");
  if (std::fflush(file_) != 0) return Status::Internal("WAL flush failed");
  if (mode_ == SyncMode::kFsync) return FsyncFile(file_);
  return Status::OK();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<WalContents> ReadWal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, got);
  std::fclose(f);

  if (data.size() < kWalHeaderBytes ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0 ||
      GetU32(data.data() + 4) != kWalVersion) {
    return Status::InvalidArgument(path + " is not a P-Grid WAL");
  }

  WalContents out;
  size_t pos = kWalHeaderBytes;
  // Scan record frames until the first one that does not validate; that byte
  // offset is the recovery point.
  while (pos < data.size()) {
    if (data.size() - pos < 8) break;  // short header: torn mid-frame write
    const uint32_t len = GetU32(data.data() + pos);
    const uint32_t crc = GetU32(data.data() + pos + 4);
    if (len > kMaxWalRecordBytes) break;          // implausible length
    if (data.size() - pos - 8 < len) break;        // short body
    const std::string_view body(data.data() + pos + 8, len);
    if (Crc32(body) != crc) break;                 // bit rot / torn body
    out.records.emplace_back(body);
    pos += 8 + len;
  }
  out.valid_bytes = pos;
  out.torn_tail = pos < data.size();
  return out;
}

Status TruncateWal(const std::string& path, uint64_t valid_bytes) {
#ifdef _WIN32
  return Status::Internal("WAL truncation is not supported on this platform");
#else
  if (truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal("truncate of " + path +
                            " failed: " + std::strerror(errno));
  }
  return Status::OK();
#endif
}

}  // namespace storage
}  // namespace pgrid
