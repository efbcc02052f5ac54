#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace nblb {

namespace {

// On-disk record framing:
//   [0] u32 body_len
//   [4] u32 crc32(body)
//   [8] body: u64 lsn, u8 op, u64 key, u32 payload_len, payload bytes
// A commit's frames are packed back-to-back, from the durable tail or from
// the next page boundary (see wal.h). Bytes past the tail are zero, so
// body_len == 0 marks the end of a commit's records.
constexpr size_t kFrameHeaderSize = 8;
constexpr size_t kBodyFixedSize = 8 + 1 + 8 + 4;
/// Anything past this is garbage, not a record (rows are page-bounded).
constexpr uint32_t kMaxBodyLen = 1u << 20;
/// Cap on iovecs per pwritev (the kernel's IOV_MAX is typically 1024).
constexpr size_t kMaxIov = IOV_MAX < 1024 ? IOV_MAX : 1024;

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " failed for " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

std::string Wal::PathFor(const std::string& db_path) {
  return db_path + ".wal";
}

Wal::Wal(std::string path, WalOptions options)
    : path_(std::move(path)), options_(options) {}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Wal>> Wal::Open(std::string path, WalOptions options) {
  if (options.page_size < 512) {
    return Status::InvalidArgument("WAL page size must be at least 512");
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(path), options));
  NBLB_RETURN_NOT_OK(wal->OpenAndScan());
  return wal;
}

Status Wal::OpenAndScan() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) return ErrnoError("open", path_);
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return ErrnoError("fstat", path_);
  const uint64_t page_size = options_.page_size;
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes % page_size != 0) {
    return Status::Corruption("file size is not a multiple of page size: " +
                              path_);
  }
  file_pages_ = file_bytes / page_size;

  uint64_t tail_bytes = 0, tail_lsn = 0;
  NBLB_RETURN_NOT_OK(Scan(nullptr, &tail_bytes, &tail_lsn));
  durable_bytes_ = tail_bytes;
  durable_lsn_ = tail_lsn;
  next_lsn_ = tail_lsn + 1;
  counters_.truncated_bytes.fetch_add(file_bytes - tail_bytes,
                                      std::memory_order_relaxed);

  // The invariant holds if the file ends with the tail page and that page
  // is zero past the tail; otherwise the first commit restores it.
  const uint64_t tail_page_end =
      (durable_bytes_ + page_size - 1) / page_size * page_size;
  torn_tail_ = file_bytes > tail_page_end;
  if (!torn_tail_ && tail_page_end > durable_bytes_) {
    std::string rest(tail_page_end - durable_bytes_, '\0');
    const ssize_t n = ::pread(fd_, rest.data(), rest.size(),
                              static_cast<off_t>(durable_bytes_));
    torn_tail_ = n != static_cast<ssize_t>(rest.size()) ||
                 rest.find_first_not_of('\0') != std::string::npos;
  }
  return Status::OK();
}

Status Wal::Scan(const std::function<Status(const Record&)>& fn,
                 uint64_t* tail_bytes, uint64_t* tail_lsn) const {
  const uint64_t page_size = options_.page_size;
  const uint64_t file_bytes = file_pages_ * page_size;

  // Rolling window: whole pages are appended to `buf` as the parser needs
  // more bytes; the consumed prefix is dropped so memory stays bounded
  // regardless of log length.
  std::string buf;
  uint64_t buf_base = 0;  // file offset of buf[0]
  const auto ensure = [&](uint64_t upto) -> bool {
    if (upto > file_bytes) return false;
    const uint64_t have = buf_base + buf.size();
    if (upto <= have) return true;
    const size_t need = static_cast<size_t>(
        (upto - have + page_size - 1) / page_size * page_size);
    const size_t old = buf.size();
    buf.resize(old + need);
    const ssize_t n =
        ::pread(fd_, buf.data() + old, need, static_cast<off_t>(have));
    if (n != static_cast<ssize_t>(need)) {
      buf.resize(old);
      return false;
    }
    return true;
  };

  // Decodes the record framed at `at`, checking everything but LSN order;
  // sets `*end` past it.
  Record rec;
  const auto parse = [&](uint64_t at, uint64_t* end) -> bool {
    if (!ensure(at + kFrameHeaderSize)) return false;
    const uint32_t body_len = DecodeFixed32(buf.data() + (at - buf_base));
    if (body_len < kBodyFixedSize || body_len > kMaxBodyLen) return false;
    if (!ensure(at + kFrameHeaderSize + body_len)) return false;  // torn
    const char* hdr = buf.data() + (at - buf_base);
    const char* body = hdr + kFrameHeaderSize;
    if (DecodeFixed32(hdr + 4) != Crc32(body, body_len)) return false;
    rec.lsn = DecodeFixed64(body);
    rec.op = static_cast<Op>(static_cast<uint8_t>(body[8]));
    rec.key = DecodeFixed64(body + 9);
    const uint32_t payload_len = DecodeFixed32(body + 17);
    if (payload_len != body_len - kBodyFixedSize) return false;
    if (rec.op != Op::kPut && rec.op != Op::kDelete) return false;
    rec.payload = Slice(body + kBodyFixedSize, payload_len);
    *end = at + kFrameHeaderSize + body_len;
    return true;
  };

  uint64_t pos = 0;  // file offset of the next unparsed byte
  uint64_t last_lsn = 0;
  for (;;) {
    uint64_t end = 0;
    if (!parse(pos, &end) || rec.lsn <= last_lsn) {
      // No record here. Mid-page, the rest of the page may be the gap a
      // commit skipped: its records start at the next page boundary and
      // continue the LSN sequence. At a boundary (the first record
      // included), the log ends.
      if (pos % page_size == 0) break;
      const uint64_t boundary = (pos / page_size + 1) * page_size;
      if (!parse(boundary, &end) || rec.lsn != last_lsn + 1) break;
    }
    if (fn != nullptr) {
      NBLB_RETURN_NOT_OK(fn(rec));
    }
    last_lsn = rec.lsn;
    pos = end;

    // Drop consumed pages from the window (keep the page `pos` is on).
    const uint64_t keep_from = pos / page_size * page_size;
    if (keep_from > buf_base) {
      buf.erase(0, static_cast<size_t>(keep_from - buf_base));
      buf_base = keep_from;
    }
  }

  *tail_bytes = pos;
  *tail_lsn = last_lsn;
  return Status::OK();
}

Result<uint64_t> Wal::Append(Op op, uint64_t key, const Slice& payload) {
  if (!sticky_error_.ok()) {
    counters_.append_failures.fetch_add(1, std::memory_order_relaxed);
    return sticky_error_;
  }
  if (payload.size() > kMaxBodyLen - kBodyFixedSize) {
    return Status::InvalidArgument("WAL payload too large");
  }
  const uint64_t lsn = next_lsn_++;

  const uint32_t body_len =
      static_cast<uint32_t>(kBodyFixedSize + payload.size());
  char body_fixed[kBodyFixedSize];
  EncodeFixed64(body_fixed, lsn);
  body_fixed[8] = static_cast<char>(op);
  EncodeFixed64(body_fixed + 9, key);
  EncodeFixed32(body_fixed + 17, static_cast<uint32_t>(payload.size()));
  uint32_t crc = Crc32(body_fixed, kBodyFixedSize);
  crc = Crc32(payload.data(), payload.size(), crc);

  char hdr[kFrameHeaderSize];
  EncodeFixed32(hdr, body_len);
  EncodeFixed32(hdr + 4, crc);
  pending_.append(hdr, kFrameHeaderSize);
  pending_.append(body_fixed, kBodyFixedSize);
  pending_.append(payload.data(), payload.size());

  counters_.appends.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_appended.fetch_add(kFrameHeaderSize + body_len,
                                     std::memory_order_relaxed);
  return lsn;
}

Status Wal::ZeroPastTail() {
  const uint64_t page_size = options_.page_size;
  const uint64_t tail_pages = (durable_bytes_ + page_size - 1) / page_size;
  const uint64_t tail_page_end = tail_pages * page_size;
  if (tail_page_end > durable_bytes_) {
    const std::string zeros(tail_page_end - durable_bytes_, '\0');
    if (::pwrite(fd_, zeros.data(), zeros.size(),
                 static_cast<off_t>(durable_bytes_)) !=
        static_cast<ssize_t>(zeros.size())) {
      return ErrnoError("WAL tail zeroing", path_);
    }
  }
  if (file_pages_ > tail_pages) {
    if (::ftruncate(fd_, static_cast<off_t>(tail_page_end)) != 0) {
      return ErrnoError("WAL truncate", path_);
    }
    file_pages_ = tail_pages;
  }
  if (::fdatasync(fd_) != 0) return ErrnoError("WAL fdatasync", path_);
  torn_tail_ = false;
  return Status::OK();
}

Status Wal::Extend(uint64_t pages) {
  const uint64_t page_size = options_.page_size;
  std::string zeros(page_size, '\0');
  std::vector<iovec> iov;
  uint64_t off = file_pages_ * page_size;
  uint64_t left = (pages - file_pages_) * page_size;
  Status st;
  while (left > 0) {
    // Every iovec points at the one zero page; after a short write the
    // next call resumes at the byte it stopped at.
    iov.clear();
    for (uint64_t b = 0; b < left && iov.size() < kMaxIov; b += page_size) {
      iov.push_back({zeros.data(),
                     static_cast<size_t>(std::min(page_size, left - b))});
    }
    const ssize_t n = ::pwritev(fd_, iov.data(), static_cast<int>(iov.size()),
                                static_cast<off_t>(off));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      st = ErrnoError("WAL extension", path_);
      break;
    }
    off += static_cast<uint64_t>(n);
    left -= static_cast<uint64_t>(n);
  }
  if (!st.ok()) {
    // A partial extension may have grown the file by a non-page-multiple;
    // trim it back so the next open sees the old length.
    if (::ftruncate(fd_, static_cast<off_t>(file_pages_ * page_size)) != 0) {
      return ErrnoError("WAL extension failed and truncate-back", path_);
    }
    return st;
  }
  file_pages_ = pages;
  return Status::OK();
}

Status Wal::Commit() {
  if (!sticky_error_.ok()) return sticky_error_;
  if (pending_.empty()) return Status::OK();
  const auto commit_start = std::chrono::steady_clock::now();

  const uint64_t page_size = options_.page_size;
  uint64_t start = durable_bytes_;
  const uint64_t tail_free = page_size - start % page_size;
  if (tail_free < page_size && pending_.size() > tail_free) start += tail_free;
  const uint64_t end = start + pending_.size();
  const uint64_t end_pages = (end + page_size - 1) / page_size;

  Status st;
  if (torn_tail_) st = ZeroPastTail();
  if (st.ok() && end_pages > file_pages_) st = Extend(end_pages);
  for (size_t done = 0; st.ok() && done < pending_.size();) {
    const ssize_t n = ::pwrite(fd_, pending_.data() + done,
                               pending_.size() - done,
                               static_cast<off_t>(start + done));
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      st = ErrnoError("WAL write", path_);
    }
  }
  if (st.ok() && ::fdatasync(fd_) != 0) {
    st = ErrnoError("WAL fdatasync", path_);
  }
  if (!st.ok()) {
    sticky_error_ = st;
    counters_.append_failures.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(FlightEvent::kWalAppendError, start / page_size,
                      pending_.size());
    return st;
  }

  durable_bytes_ = end;
  durable_lsn_ = next_lsn_ - 1;
  pending_.clear();
  counters_.commits.fetch_add(1, std::memory_order_relaxed);
  counters_.commit_pages.fetch_add(end_pages - start / page_size,
                                   std::memory_order_relaxed);
  counters_.commit_micros.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - commit_start)
          .count(),
      std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::Replay(uint64_t from_lsn,
                   const std::function<Status(const Record&)>& fn) const {
  uint64_t tail_bytes = 0, tail_lsn = 0;
  return Scan(
      [&](const Record& rec) -> Status {
        if (rec.lsn <= from_lsn) return Status::OK();
        counters_.replayed_records.fetch_add(1, std::memory_order_relaxed);
        return fn(rec);
      },
      &tail_bytes, &tail_lsn);
}

Status Wal::Reset() {
  pending_.clear();
  durable_bytes_ = 0;
  durable_lsn_ = next_lsn_ - 1;
  if (::ftruncate(fd_, 0) != 0) {
    sticky_error_ = ErrnoError("WAL reset", path_);
    return sticky_error_;
  }
  file_pages_ = 0;
  torn_tail_ = false;
  sticky_error_ = Status::OK();
  counters_.resets.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Wal::RegisterMetrics(MetricsRegistry* registry,
                          const std::string& prefix) const {
  registry->RegisterCounter(prefix + "appends", &counters_.appends);
  registry->RegisterCounter(prefix + "commits", &counters_.commits);
  registry->RegisterCounter(prefix + "bytes_appended",
                            &counters_.bytes_appended);
  registry->RegisterCounter(prefix + "commit_pages", &counters_.commit_pages);
  registry->RegisterCounter(prefix + "commit_micros", &counters_.commit_micros);
  registry->RegisterCounter(prefix + "replayed_records",
                            &counters_.replayed_records);
  registry->RegisterCounter(prefix + "truncated_bytes",
                            &counters_.truncated_bytes);
  registry->RegisterCounter(prefix + "append_failures",
                            &counters_.append_failures);
  registry->RegisterCounter(prefix + "resets", &counters_.resets);
}

}  // namespace nblb
