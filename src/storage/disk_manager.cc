#include "storage/disk_manager.h"

#include <fcntl.h>
#include <limits.h>
#include <sched.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_ring.h"

namespace nblb {

namespace {
/// Cap on iovecs per preadv (the kernel's IOV_MAX is typically 1024).
constexpr size_t kMaxIov = IOV_MAX < 1024 ? IOV_MAX : 1024;
/// io_uring submission slots; the kernel sizes the completion queue at
/// twice that, which caps the ops in flight.
constexpr unsigned kRingEntries = 64;

/// Advances the iovec cursor `*pos` past `transferred` bytes, trimming a
/// partially filled entry in place. Partial transfers land on a page
/// boundary only by luck; every resumption path shares this general case.
void AdvanceIov(struct iovec* iov, size_t n, size_t* pos,
                size_t transferred) {
  while (transferred > 0 && *pos < n) {
    if (transferred >= iov[*pos].iov_len) {
      transferred -= iov[*pos].iov_len;
      ++*pos;
    } else {
      iov[*pos].iov_base =
          static_cast<char*>(iov[*pos].iov_base) + transferred;
      iov[*pos].iov_len -= transferred;
      transferred = 0;
    }
  }
}
}  // namespace

namespace internal {

/// Completion state of one submitted batch, shared by the caller's ticket
/// and its in-flight io_uring ops, so a ticket dropped mid-flight keeps it
/// alive until the owner reaps the last op.
struct IoGroup {
  size_t runs = 0;  ///< io_uring ops in flight
  Status error;     ///< first failure wins
};

}  // namespace internal

using internal::IoGroup;

/// One in-flight io_uring op: a contiguous run of pages moved with a single
/// vectored transfer. The iovec array lives here so it survives until the
/// kernel is done with it.
struct DiskManager::OpRecord {
  std::shared_ptr<IoGroup> group;
  std::vector<struct iovec> iov;  ///< one entry per page
  PageId first_id = kInvalidPageId;
  bool is_write = false;
};

DiskManager::DiskManager(std::string path, size_t page_size,
                         LatencyModel* latency, bool direct_io)
    : path_(std::move(path)),
      page_size_(page_size),
      latency_(latency),
      direct_io_(direct_io) {
  NBLB_CHECK(page_size_ >= 512);
  // O_DIRECT transfers must be logical-block aligned in offset, length, and
  // memory; requiring a 4096-multiple page covers every common block size.
  if (direct_io_) NBLB_CHECK(page_size_ % 4096 == 0);
}

DiskManager::~DiskManager() {
  Close();
  std::free(stage_);
}

void DiskManager::Charge(PageId id, bool write) {
  if (latency_ == nullptr) return;
  if (write) {
    latency_->ChargeWrite(id, page_size_);
  } else {
    latency_->ChargeRead(id, page_size_);
  }
}

Status DiskManager::Open() {
  // An unknown backend name fails here rather than silently running a
  // backend the caller did not ask for.
  const char* env = std::getenv("NBLB_IO_BACKEND");
  const std::string want = env != nullptr ? env : "";
  if (!want.empty() && want != "auto" && want != "sync") {
    return Status::InvalidArgument("NBLB_IO_BACKEND=" + want +
                                   ": want auto or sync");
  }
  if (stage_ == nullptr) {
    void* mem = nullptr;
    NBLB_CHECK_MSG(::posix_memalign(&mem, 4096, page_size_) == 0,
                   "posix_memalign failed for the staging page");
    stage_ = static_cast<char*>(mem);
  }
  if (direct_io_) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_DIRECT, 0644);
    if (fd_ < 0) {
      if (errno != EINVAL) {
        return Status::IOError("open(O_DIRECT) failed for " + path_ + ": " +
                               std::strerror(errno));
      }
      // EINVAL: filesystem without O_DIRECT support (tmpfs etc.). Degrade
      // to buffered I/O rather than failing the whole database, but leave
      // a trace — a benchmark run in this mode measures the page cache,
      // not the device (callers can also poll direct_io()).
      std::fprintf(stderr,
                   "nblb: %s does not support O_DIRECT; falling back to "
                   "buffered I/O\n",
                   path_.c_str());
      direct_io_ = false;
    }
  }
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  }
  if (fd_ < 0) {
    return Status::IOError("open failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat failed: " + std::string(std::strerror(errno)));
  }
  if (st.st_size % static_cast<off_t>(page_size_) != 0) {
    return Status::Corruption("file size is not a multiple of page size");
  }
  num_pages_ = static_cast<PageId>(st.st_size / static_cast<off_t>(page_size_));

  // io_uring where it is built in and the kernel allows it (the stub
  // IoRing of a build without it never comes up), unless sync was asked
  // for.
  backend_in_use_ = IoBackend::kSync;
  if (want != "sync") {
    ring_ = IoRing::TryCreate(kRingEntries);
    if (ring_ != nullptr) backend_in_use_ = IoBackend::kUring;
  }
  return Status::OK();
}

Status DiskManager::Close() {
  while (uring_inflight_ > 0) ReapSome();
  if (fd_ >= 0) {
    if (::close(fd_) != 0) {
      fd_ = -1;
      return Status::IOError("close failed");
    }
    fd_ = -1;
  }
  return Status::OK();
}

Status DiskManager::ReadPage(PageId id, char* out) {
  if (fd_ < 0) return Status::IOError("disk manager not open");
  if (id >= num_pages_) {
    return Status::OutOfRange("read past end of file: page " +
                              std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  // Direct I/O needs an aligned destination. The BufferPool's frame arena is
  // aligned, so the common path transfers straight in; an unaligned caller
  // is staged through the staging page (the memcpy is noise next to a real
  // device access).
  const bool staged = direct_io_ && !Aligned(out);
  char* dst = staged ? stage_ : out;
  if (::pread(fd_, dst, page_size_, off) !=
      static_cast<ssize_t>(page_size_)) {
    return Status::IOError("short read on page " + std::to_string(id));
  }
  if (staged) std::memcpy(out, stage_, page_size_);
  Bump(counters_.reads);
  Charge(id, /*write=*/false);
  return Status::OK();
}

Status DiskManager::ResumeRunSync(struct iovec* iov, size_t n,
                                  size_t iov_pos, off_t off,
                                  size_t remaining, PageId first_id,
                                  bool is_write) {
  while (remaining > 0) {
    const ssize_t got =
        is_write
            ? ::pwritev(fd_, iov + iov_pos, static_cast<int>(n - iov_pos),
                        off)
            : ::preadv(fd_, iov + iov_pos, static_cast<int>(n - iov_pos),
                       off);
    if (got <= 0) {
      return Status::IOError(std::string("short vectored ") +
                             (is_write ? "write" : "read") + " at page " +
                             std::to_string(first_id) +
                             (got < 0 ? std::string(": ") +
                                            std::strerror(errno)
                                      : std::string()));
    }
    remaining -= static_cast<size_t>(got);
    off += got;
    AdvanceIov(iov, n, &iov_pos, static_cast<size_t>(got));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Batched reads and writes
// ---------------------------------------------------------------------------

void DiskManager::FinishRun(IoGroup* group, PageId first_id, size_t pages,
                            bool is_write, Status status) {
  if (!status.ok()) {
    RecordFlightEvent(FlightEvent::kIoError, first_id, pages);
    if (group->error.ok()) group->error = std::move(status);
    return;
  }
  if (is_write) {
    Bump(counters_.writes, pages);
  } else {
    Bump(counters_.reads, pages);
    if (pages > 1) Bump(counters_.vectored_reads);
  }
  for (size_t k = 0; k < pages; ++k) {
    Charge(first_id + static_cast<PageId>(k), is_write);
  }
}

void DiskManager::CompleteOp(OpRecord* op, int32_t res) {
  const size_t pages = op->iov.size();
  const size_t expected = pages * page_size_;
  Status st;
  if (res < 0) {
    st = Status::IOError(std::string("async ") +
                         (op->is_write ? "write" : "read") +
                         " failed at page " + std::to_string(op->first_id) +
                         ": " + std::strerror(-res));
  } else if (static_cast<size_t>(res) < expected) {
    // Short transfer (legal for the kernel, rare for regular files): finish
    // the remainder synchronously, reusing the same iovecs. A mid-page cut
    // just leaves a trimmed partial iovec to resume from.
    const size_t got = static_cast<size_t>(res);
    size_t iov_pos = 0;
    AdvanceIov(op->iov.data(), pages, &iov_pos, got);
    st = ResumeRunSync(op->iov.data(), pages, iov_pos,
                       static_cast<off_t>(op->first_id) *
                               static_cast<off_t>(page_size_) +
                           static_cast<off_t>(got),
                       expected - got, op->first_id, op->is_write);
  }
  FinishRun(op->group.get(), op->first_id, pages, op->is_write,
            std::move(st));
  --op->group->runs;
  delete op;
}

void DiskManager::FlushRing() {
  // The pushed sqes sit in the ring, so the flush must eventually succeed:
  // failing the batch would leave them to a later flush, which would then
  // complete freed OpRecords. io_uring_enter's EAGAIN and ENOMEM (kernel
  // memory pressure) are retryable by contract, so they are backpressure;
  // anything else is a broken ring and a programming error.
  for (;;) {
    const int r = ring_->Flush();
    if (r == 0) return;
    NBLB_CHECK_MSG(r == -EAGAIN || r == -ENOMEM,
                   "io_uring submission failed irrecoverably");
    sched_yield();
  }
}

void DiskManager::ReapSome() {
  IoRing::Cqe cqes[64];
  size_t n = ring_->Reap(cqes, 64);
  if (n == 0) {
    ring_->WaitCqe();
    n = ring_->Reap(cqes, 64);
  }
  uring_inflight_ -= n;
  for (size_t i = 0; i < n; ++i) {
    CompleteOp(reinterpret_cast<OpRecord*>(cqes[i].user_data), cqes[i].res);
  }
}

Status DiskManager::SubmitReads(const PageId* ids, char* const* dsts,
                                size_t n, IoTicket* ticket) {
  return SubmitBatch(ids, dsts, n, /*is_write=*/false, ticket);
}

Status DiskManager::WritePages(const PageId* ids, const char* const* srcs,
                               size_t n) {
  // The iovec ABI is direction-agnostic (iov_base is void* either way) and
  // SubmitBatch never writes through a write's buffers, so shedding the
  // const here is safe. WaitReads harvests a group of either direction.
  IoTicket ticket;
  NBLB_RETURN_NOT_OK(SubmitBatch(ids, const_cast<char* const*>(srcs), n,
                                 /*is_write=*/true, &ticket));
  return WaitReads(&ticket);
}

Status DiskManager::SubmitBatch(const PageId* ids, char* const* bufs,
                                size_t n, bool is_write, IoTicket* ticket) {
  TraceTimer span(TracePhase::kIoSubmit);
  ticket->group_.reset();
  if (n == 0) return Status::OK();
  if (fd_ < 0) return Status::IOError("disk manager not open");
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= num_pages_) {
      return Status::OutOfRange(std::string(is_write ? "write" : "read") +
                                " past end of file: page " +
                                std::to_string(ids[i]));
    }
    NBLB_DCHECK(i == 0 || ids[i] > ids[i - 1]);
  }
  Bump(is_write ? counters_.async_write_batches : counters_.async_batches);

  auto group = std::make_shared<IoGroup>();
  const bool uring = backend_in_use_ == IoBackend::kUring;
  size_t i = 0;
  while (i < n) {
    // In direct mode every buffer of a vectored transfer must be aligned;
    // an unaligned buffer is served on its own through the staging page
    // right here (the BufferPool's arenas are always aligned, so this only
    // triggers for ad-hoc callers).
    if (direct_io_ && !Aligned(bufs[i])) {
      Status st = is_write ? WritePage(ids[i], bufs[i])
                           : ReadPage(ids[i], bufs[i]);
      if (!st.ok() && group->error.ok()) group->error = std::move(st);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && ids[j] == ids[j - 1] + 1 && (j - i) < kMaxIov &&
           (!direct_io_ || Aligned(bufs[j]))) {
      ++j;
    }
    const size_t run = j - i;
    if (is_write) {
      Bump(counters_.async_writes, run);
      Bump(counters_.write_runs);
    } else {
      Bump(counters_.async_reads, run);
    }
    std::vector<struct iovec> iov(run);
    for (size_t k = 0; k < run; ++k) {
      iov[k].iov_base = bufs[i + k];
      iov[k].iov_len = page_size_;
    }
    const off_t off =
        static_cast<off_t>(ids[i]) * static_cast<off_t>(page_size_);
    if (!uring) {
      FinishRun(group.get(), ids[i], run, is_write,
                ResumeRunSync(iov.data(), run, /*iov_pos=*/0, off,
                              run * page_size_, ids[i], is_write));
      i = j;
      continue;
    }
    // Keep the ops in flight below the completion queue's capacity, so
    // completions cannot overflow. At the cap, flush first, so a wait for
    // a completion never sleeps on sqes the kernel has not received. The
    // flush is defensive: the kernel sizes the completion queue at twice
    // the submission queue, and a push into a full submission queue
    // flushes, so at the cap at least half of the ops in flight are
    // already in the kernel.
    while (uring_inflight_ >= ring_->cq_capacity()) {
      FlushRing();
      ReapSome();
    }
    OpRecord* op = new OpRecord{group, std::move(iov), ids[i], is_write};
    const unsigned nr = static_cast<unsigned>(run);
    const uint64_t ud = reinterpret_cast<uint64_t>(op);
    while (!(is_write ? ring_->PushWritev(fd_, op->iov.data(), nr, off, ud)
                      : ring_->PushReadv(fd_, op->iov.data(), nr, off, ud))) {
      FlushRing();  // the submission queue is full
    }
    ++uring_inflight_;
    ++group->runs;
    i = j;
  }
  if (uring) FlushRing();
  ticket->group_ = std::move(group);
  return Status::OK();
}

Status DiskManager::WaitReads(IoTicket* ticket) {
  if (!ticket->valid()) return Status::OK();
  std::shared_ptr<IoGroup> group = std::move(ticket->group_);
  TraceTimer span(TracePhase::kDeviceWait);
  // Reaping may finish other tickets' ops too; their waits then return at
  // once.
  while (group->runs > 0) ReapSome();
  return group->error;
}

// ---------------------------------------------------------------------------
// Single-page writes / allocation
// ---------------------------------------------------------------------------

Status DiskManager::WritePage(PageId id, const char* data) {
  if (fd_ < 0) return Status::IOError("disk manager not open");
  if (id >= num_pages_) {
    return Status::OutOfRange("write past end of file: page " +
                              std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  const char* src = data;
  if (direct_io_ && !Aligned(data)) {
    std::memcpy(stage_, data, page_size_);
    src = stage_;
  }
  if (::pwrite(fd_, src, page_size_, off) !=
      static_cast<ssize_t>(page_size_)) {
    return Status::IOError("short write on page " + std::to_string(id));
  }
  Bump(counters_.writes);
  Charge(id, /*write=*/true);
  return Status::OK();
}

Result<PageId> DiskManager::AllocatePage() {
  if (fd_ < 0) return Status::IOError("disk manager not open");
  const PageId id = num_pages_;
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  std::memset(stage_, 0, page_size_);
  const ssize_t n = ::pwrite(fd_, stage_, page_size_, off);
  if (n != static_cast<ssize_t>(page_size_)) {
    const std::string why =
        n < 0 ? std::string(std::strerror(errno)) : std::string("short write");
    // A short write (a full disk, RLIMIT_FSIZE) leaves part of a page
    // behind, which the next Open would reject as Corruption: trim the file
    // back to whole pages.
    if (::ftruncate(fd_, off) != 0) {
      return Status::IOError("allocation of page " + std::to_string(id) +
                             " failed (" + why + "), and so did truncating "
                             "back: " + std::strerror(errno));
    }
    return Status::IOError("allocation of page " + std::to_string(id) +
                           " failed: " + why);
  }
  num_pages_ = id + 1;
  Bump(counters_.allocations);
  return id;
}

Status DiskManager::Sync() {
  if (fd_ < 0) return Status::IOError("disk manager not open");
  // fdatasync still flushes the metadata needed to retrieve the data
  // (notably the file size after an extending write) but skips the
  // mtime-only journal commit fsync pays on every call: identical
  // durability for page data, at less cost.
  if (::fdatasync(fd_) != 0) return Status::IOError("fdatasync failed");
  return Status::OK();
}

void DiskManager::RegisterMetrics(MetricsRegistry* registry,
                                  const std::string& prefix) const {
  registry->RegisterCounter(prefix + "reads", &counters_.reads);
  registry->RegisterCounter(prefix + "writes", &counters_.writes);
  registry->RegisterCounter(prefix + "allocations", &counters_.allocations);
  registry->RegisterCounter(prefix + "vectored_reads",
                            &counters_.vectored_reads);
  registry->RegisterCounter(prefix + "async_reads", &counters_.async_reads);
  registry->RegisterCounter(prefix + "async_batches",
                            &counters_.async_batches);
  registry->RegisterCounter(prefix + "async_writes", &counters_.async_writes);
  registry->RegisterCounter(prefix + "async_write_batches",
                            &counters_.async_write_batches);
  registry->RegisterCounter(prefix + "write_runs", &counters_.write_runs);
}

}  // namespace nblb
