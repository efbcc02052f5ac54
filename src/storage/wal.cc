#include "storage/wal.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"

namespace nblb {

namespace {

// On-disk record framing, packed back-to-back across page boundaries:
//   [0] u32 body_len
//   [4] u32 crc32(body)
//   [8] body: u64 lsn, u8 op, u64 key, u32 payload_len, payload bytes
// Pages are allocated zeroed, so body_len == 0 terminates the log.
constexpr size_t kFrameHeaderSize = 8;
constexpr size_t kBodyFixedSize = 8 + 1 + 8 + 4;
/// Anything past this is garbage, not a record (rows are page-bounded).
constexpr uint32_t kMaxBodyLen = 1u << 20;
/// The log's own async engine. A commit writes one short run of tail pages,
/// so a shallow ring, or two fallback threads, is enough. NBLB_IO_BACKEND
/// selects the backend as for any DiskManager.
constexpr size_t kWalIoQueueDepth = 16;
constexpr size_t kWalIoThreads = 2;

}  // namespace

std::string Wal::PathFor(const std::string& db_path) {
  return db_path + ".wal";
}

Wal::Wal(std::string path, WalOptions options)
    : path_(std::move(path)), options_(options) {}

Wal::~Wal() = default;

Result<std::unique_ptr<Wal>> Wal::Open(std::string path, WalOptions options) {
  std::unique_ptr<Wal> wal(new Wal(std::move(path), options));
  NBLB_RETURN_NOT_OK(wal->OpenAndScan());
  return wal;
}

Status Wal::OpenDisk() {
  AsyncIoOptions aio;
  aio.queue_depth = kWalIoQueueDepth;
  aio.io_threads = kWalIoThreads;
  disk_.reset(new DiskManager(path_, options_.page_size,
                              /*latency=*/nullptr, /*direct_io=*/false, aio));
  return disk_->Open();
}

Status Wal::OpenAndScan() {
  NBLB_RETURN_NOT_OK(OpenDisk());

  uint64_t tail_bytes = 0, tail_lsn = 0, truncated = 0;
  NBLB_RETURN_NOT_OK(Scan(nullptr, &tail_bytes, &tail_lsn, &truncated));
  durable_bytes_ = tail_bytes;
  durable_lsn_ = tail_lsn;
  next_lsn_ = tail_lsn + 1;
  if (truncated > 0) {
    counters_.truncated_bytes.fetch_add(truncated,
                                        std::memory_order_relaxed);
  }

  // Load the tail page image and blank everything past the logical tail so
  // torn-record remnants can never be resurrected by a later rewrite.
  tail_page_.assign(options_.page_size, '\0');
  const uint64_t tail_off = durable_bytes_ % options_.page_size;
  if (tail_off != 0) {
    const PageId tail_id =
        static_cast<PageId>(durable_bytes_ / options_.page_size);
    NBLB_RETURN_NOT_OK(disk_->ReadPage(tail_id, tail_page_.data()));
    std::memset(tail_page_.data() + tail_off, 0,
                options_.page_size - tail_off);
  }
  return Status::OK();
}

Status Wal::Scan(const std::function<Status(const Record&)>& fn,
                 uint64_t* tail_bytes, uint64_t* tail_lsn,
                 uint64_t* truncated_bytes) const {
  const size_t page_size = options_.page_size;
  const PageId num_pages = disk_->num_pages();
  const uint64_t file_bytes = static_cast<uint64_t>(num_pages) * page_size;

  // Rolling window: pages are appended to `buf` as the parser needs more
  // bytes; the consumed prefix is dropped periodically so memory stays
  // bounded regardless of log length.
  std::string buf;
  uint64_t buf_base = 0;  // file offset of buf[0]
  PageId next_page = 0;
  uint64_t pos = 0;       // file offset of the next unparsed byte
  uint64_t last_lsn = 0;
  uint64_t valid_end = 0;

  const auto ensure = [&](uint64_t upto) -> bool {
    while (buf_base + buf.size() < upto && next_page < num_pages) {
      const size_t old = buf.size();
      buf.resize(old + page_size);
      if (!disk_->ReadPage(next_page, buf.data() + old).ok()) {
        buf.resize(old);
        return false;
      }
      ++next_page;
    }
    return buf_base + buf.size() >= upto;
  };

  for (;;) {
    if (!ensure(pos + kFrameHeaderSize)) break;
    const char* hdr = buf.data() + (pos - buf_base);
    const uint32_t body_len = DecodeFixed32(hdr);
    if (body_len == 0) break;  // zero terminator (allocation padding)
    if (body_len < kBodyFixedSize || body_len > kMaxBodyLen) break;
    if (!ensure(pos + kFrameHeaderSize + body_len)) break;  // torn tail
    hdr = buf.data() + (pos - buf_base);  // ensure() may have reallocated
    const char* body = hdr + kFrameHeaderSize;
    if (DecodeFixed32(hdr + 4) != Crc32(body, body_len)) break;

    Record rec;
    rec.lsn = DecodeFixed64(body);
    rec.op = static_cast<Op>(static_cast<uint8_t>(body[8]));
    rec.key = DecodeFixed64(body + 9);
    const uint32_t payload_len = DecodeFixed32(body + 17);
    if (payload_len != body_len - kBodyFixedSize) break;
    if (rec.op != Op::kPut && rec.op != Op::kDelete) break;
    if (rec.lsn <= last_lsn) break;  // LSNs are strictly increasing
    rec.payload = Slice(body + kBodyFixedSize, payload_len);
    if (fn != nullptr) {
      NBLB_RETURN_NOT_OK(fn(rec));
    }
    last_lsn = rec.lsn;
    pos += kFrameHeaderSize + body_len;
    valid_end = pos;

    // Drop consumed pages from the window (keep the page `pos` is on).
    const uint64_t keep_from = (pos / page_size) * page_size;
    if (keep_from > buf_base) {
      buf.erase(0, static_cast<size_t>(keep_from - buf_base));
      buf_base = keep_from;
    }
  }

  *tail_bytes = valid_end;
  *tail_lsn = last_lsn;
  *truncated_bytes = file_bytes > valid_end ? file_bytes - valid_end : 0;
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
  if (pending_.empty()) pending_first_lsn_ = lsn;

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

Status Wal::Commit() {
  if (!sticky_error_.ok()) return sticky_error_;
  if (pending_.empty()) return Status::OK();
  const auto commit_start = std::chrono::steady_clock::now();

  const size_t page_size = options_.page_size;
  const uint64_t tail_off = durable_bytes_ % page_size;
  const PageId first_id = static_cast<PageId>(durable_bytes_ / page_size);
  const uint64_t new_bytes = durable_bytes_ + pending_.size();
  const PageId last_id = static_cast<PageId>((new_bytes - 1) / page_size);
  const size_t npages = last_id - first_id + 1;

  const auto fail = [&](Status st) {
    sticky_error_ = st;
    counters_.append_failures.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(FlightEvent::kWalAppendError, first_id,
                      pending_.size());
    return st;
  };

  // Extend the file to cover every page of this commit. The zero fill is
  // immediately overwritten below, but it guarantees the scanner always
  // sees zeroes (a terminator) past the data we actually wrote.
  if (last_id >= disk_->num_pages()) {
    auto grown = disk_->AllocatePages(last_id + 1 - disk_->num_pages());
    if (!grown.ok()) return fail(grown.status());
  }

  // Page images for the whole commit, contiguous so SubmitWrites issues one
  // vectored write. Image 0 re-covers the tail page: its durable prefix is
  // rewritten bit-identical, so a torn rewrite can only damage unacked
  // bytes.
  std::string images(npages * page_size, '\0');
  std::memcpy(images.data(), tail_page_.data(), tail_off);
  std::memcpy(images.data() + tail_off, pending_.data(), pending_.size());

  std::vector<PageId> ids(npages);
  std::vector<const char*> srcs(npages);
  for (size_t k = 0; k < npages; ++k) {
    ids[k] = first_id + static_cast<PageId>(k);
    srcs[k] = images.data() + k * page_size;
  }
  DiskManager::IoTicket ticket;
  Status st = disk_->SubmitWrites(ids.data(), srcs.data(), npages, &ticket);
  if (st.ok()) st = disk_->WaitWrites(&ticket);
  if (st.ok()) st = disk_->Sync();
  if (!st.ok()) return fail(st);

  durable_bytes_ = new_bytes;
  durable_lsn_ = next_lsn_ - 1;
  std::memcpy(tail_page_.data(), images.data() + (npages - 1) * page_size,
              page_size);
  pending_.clear();
  pending_first_lsn_ = 0;
  counters_.commits.fetch_add(1, std::memory_order_relaxed);
  counters_.commit_pages.fetch_add(npages, std::memory_order_relaxed);
  counters_.commit_micros.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - commit_start)
          .count(),
      std::memory_order_relaxed);
  return Status::OK();
}

Status Wal::Replay(uint64_t from_lsn,
                   const std::function<Status(const Record&)>& fn) const {
  uint64_t tail_bytes = 0, tail_lsn = 0, truncated = 0;
  return Scan(
      [&](const Record& rec) -> Status {
        if (rec.lsn <= from_lsn) return Status::OK();
        counters_.replayed_records.fetch_add(1, std::memory_order_relaxed);
        return fn(rec);
      },
      &tail_bytes, &tail_lsn, &truncated);
}

Status Wal::Reset() {
  NBLB_RETURN_NOT_OK(disk_->Close());
  disk_.reset();
  std::remove(path_.c_str());
  pending_.clear();
  pending_first_lsn_ = 0;
  durable_bytes_ = 0;
  durable_lsn_ = next_lsn_ - 1;
  sticky_error_ = Status::OK();

  Status st = OpenDisk();
  if (!st.ok()) {
    sticky_error_ = st;
    return st;
  }
  tail_page_.assign(options_.page_size, '\0');
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
