#include "storage/disk_manager.h"

#include <fcntl.h>
#include <limits.h>
#include <pthread.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io_ring.h"

namespace nblb {

namespace {
/// Cap on iovecs per preadv (the kernel's IOV_MAX is typically 1024).
constexpr size_t kMaxIov = IOV_MAX < 1024 ? IOV_MAX : 1024;
/// Worker threads of the preadv/pwritev fallback backend (started lazily
/// on the first async submission when that backend is in use).
constexpr size_t kIoThreads = 4;

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

/// Completion state shared by one SubmitReads group, its in-flight
/// OpRecords, and the caller's IoTicket. The ticket and every op hold a
/// shared_ptr, so a ticket dropped mid-flight keeps the state alive until
/// the last completion lands.
struct IoGroup {
  std::atomic<uint32_t> remaining{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;   // under mu; set when remaining hits zero
  Status error;        // under mu; first failure wins
};

}  // namespace internal

using internal::IoGroup;

/// One in-flight async op: a contiguous run of pages read with a single
/// vectored transfer. The iovec array lives here so it survives until the
/// kernel (or the worker thread) is done with it.
struct DiskManager::OpRecord {
  std::shared_ptr<IoGroup> group;
  std::vector<struct iovec> iov;
  PageId first_id = kInvalidPageId;
  size_t pages = 0;
  /// Direction: false = readv into the iov buffers, true = writev from
  /// them. Set before publish; read by completion/worker threads after.
  bool is_write = false;
  /// Release-stored by the submitter after the fields above are final,
  /// acquire-loaded by whichever thread reaps the completion. The kernel's
  /// ring barriers already order these in practice; this makes the edge
  /// visible to ThreadSanitizer (different threads may submit and reap).
  std::atomic<bool> published{false};
};

DiskManager::DiskManager(std::string path, size_t page_size,
                         LatencyModel* latency, bool direct_io,
                         AsyncIoOptions aio)
    : path_(std::move(path)),
      page_size_(page_size),
      latency_(latency),
      direct_io_(direct_io),
      aio_(aio) {
  NBLB_CHECK(page_size_ >= 512);
  // O_DIRECT transfers must be logical-block aligned in offset, length, and
  // memory; requiring a 4096-multiple page covers every common block size.
  if (direct_io_) NBLB_CHECK(page_size_ % 4096 == 0);
  if (aio_.queue_depth == 0) aio_.queue_depth = 1;
}

DiskManager::~DiskManager() {
  DrainAsync();
  {
    std::lock_guard<std::mutex> lk(tp_mu_);
    tp_stop_ = true;
  }
  tp_cv_.notify_all();
  for (std::thread& t : tp_threads_) {
    if (t.joinable()) t.join();
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
  for (char* buf : bounce_overflow_) std::free(buf);
  std::free(bounce_arena_);
}

char* DiskManager::AcquireBounce() {
  {
    std::lock_guard<std::mutex> lk(bounce_mu_);
    if (!bounce_free_.empty()) {
      char* buf = bounce_free_.back();
      bounce_free_.pop_back();
      return buf;
    }
  }
  // Arena exhausted (or never allocated — buffered mode): one-off aligned
  // allocation that joins the free list on release and is owned by
  // bounce_overflow_ for the destructor.
  void* mem = nullptr;
  NBLB_CHECK_MSG(::posix_memalign(&mem, 4096, page_size_) == 0,
                 "posix_memalign failed for bounce buffer");
  {
    std::lock_guard<std::mutex> lk(bounce_mu_);
    bounce_overflow_.push_back(static_cast<char*>(mem));
  }
  return static_cast<char*>(mem);
}

void DiskManager::ReleaseBounce(char* buf) {
  std::lock_guard<std::mutex> lk(bounce_mu_);
  bounce_free_.push_back(buf);
}

void DiskManager::Charge(PageId id, bool write) {
  if (latency_ == nullptr) return;
  LatchGuard g(latency_mu_);
  if (write) {
    latency_->ChargeWrite(id, page_size_);
  } else {
    latency_->ChargeRead(id, page_size_);
  }
}

Status DiskManager::Open() {
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
  num_pages_.store(
      static_cast<PageId>(st.st_size / static_cast<off_t>(page_size_)),
      std::memory_order_relaxed);

  // Direct mode stages unaligned transfers through bounce buffers; carve
  // them all out of ONE aligned arena up front instead of a posix_memalign
  // per first-use (the old scheme allocated on every pool-empty acquire).
  if (direct_io_ && bounce_arena_ == nullptr) {
    void* mem = nullptr;
    NBLB_CHECK_MSG(
        ::posix_memalign(&mem, 4096, kBounceSlots * page_size_) == 0,
        "posix_memalign failed for bounce arena");
    bounce_arena_ = static_cast<char*>(mem);
    std::lock_guard<std::mutex> lk(bounce_mu_);
    bounce_free_.reserve(kBounceSlots);
    for (size_t i = kBounceSlots; i > 0; --i) {
      bounce_free_.push_back(bounce_arena_ + (i - 1) * page_size_);
    }
  }

  // Resolve the async backend. NBLB_IO_BACKEND=threads|uring overrides the
  // option so CI (and operators) can force either path without a rebuild;
  // any other value ("auto" included) leaves the option alone, so a caller
  // that asked for kThreads keeps it.
  IoBackend want = aio_.backend;
  if (const char* env = std::getenv("NBLB_IO_BACKEND")) {
    if (std::strcmp(env, "threads") == 0) {
      want = IoBackend::kThreads;
    } else if (std::strcmp(env, "uring") == 0) {
      want = IoBackend::kUring;
    }
  }
  backend_in_use_ = IoBackend::kThreads;
#if NBLB_HAVE_IO_URING
  if (want != IoBackend::kThreads) {
    ring_ = IoRing::TryCreate(static_cast<unsigned>(aio_.queue_depth));
    if (ring_ != nullptr) {
      backend_in_use_ = IoBackend::kUring;
    } else if (want == IoBackend::kUring) {
      std::fprintf(stderr,
                   "nblb: io_uring unavailable at runtime; using the preadv "
                   "thread fallback for %s\n",
                   path_.c_str());
    }
  }
#else
  if (want == IoBackend::kUring) {
    std::fprintf(stderr,
                 "nblb: built without io_uring support; using the preadv "
                 "thread fallback for %s\n",
                 path_.c_str());
  }
#endif
  return Status::OK();
}

Status DiskManager::Close() {
  DrainAsync();
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
  if (id >= num_pages()) {
    return Status::OutOfRange("read past end of file: page " +
                              std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  // Direct I/O needs an aligned destination. The BufferPool's frame arena is
  // aligned, so the common path transfers straight in; unaligned callers are
  // staged through a pooled bounce buffer (the memcpy is noise next to a
  // real device access).
  char* bounce = nullptr;
  char* dst = out;
  if (direct_io_ && !Aligned(out)) {
    bounce = AcquireBounce();
    dst = bounce;
  }
  const ssize_t n = ::pread(fd_, dst, page_size_, off);
  if (n != static_cast<ssize_t>(page_size_)) {
    if (bounce != nullptr) ReleaseBounce(bounce);
    return Status::IOError("short read on page " + std::to_string(id));
  }
  if (bounce != nullptr) {
    std::memcpy(out, bounce, page_size_);
    ReleaseBounce(bounce);
  }
  counters_.reads.fetch_add(1, std::memory_order_relaxed);
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

Status DiskManager::ReadRunSync(PageId first_id, struct iovec* iov,
                                size_t run) {
  return ResumeRunSync(iov, run, /*iov_pos=*/0,
                       static_cast<off_t>(first_id) *
                           static_cast<off_t>(page_size_),
                       run * page_size_, first_id, /*is_write=*/false);
}

Status DiskManager::WriteRunSync(PageId first_id, struct iovec* iov,
                                 size_t run) {
  return ResumeRunSync(iov, run, /*iov_pos=*/0,
                       static_cast<off_t>(first_id) *
                           static_cast<off_t>(page_size_),
                       run * page_size_, first_id, /*is_write=*/true);
}

// ---------------------------------------------------------------------------
// Async engine (reads and writes share the submission/completion machinery)
// ---------------------------------------------------------------------------

void DiskManager::CompleteOp(OpRecord* op, Status status) {
  if (!status.ok()) {
    RecordFlightEvent(FlightEvent::kIoError, op->first_id, op->pages);
  }
  if (status.ok()) {
    if (op->is_write) {
      counters_.writes.fetch_add(op->pages, std::memory_order_relaxed);
    } else {
      counters_.reads.fetch_add(op->pages, std::memory_order_relaxed);
      if (op->pages > 1) {
        counters_.vectored_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (size_t k = 0; k < op->pages; ++k) {
      Charge(op->first_id + static_cast<PageId>(k), op->is_write);
    }
  }
  std::shared_ptr<IoGroup> group = std::move(op->group);
  delete op;
  if (!status.ok()) {
    std::lock_guard<std::mutex> lk(group->mu);
    if (group->error.ok()) group->error = std::move(status);
  }
  // acq_rel: the release half publishes this op's page bytes (and error)
  // to whoever observes remaining == 0; the acquire half orders the final
  // decrementer after every other op.
  if (group->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(group->mu);
    group->done = true;
    group->cv.notify_all();
  }
}

void DiskManager::CompleteOpRaw(OpRecord* op, int32_t res) {
  Status st;
  if (res < 0) {
    st = Status::IOError(std::string("async ") +
                         (op->is_write ? "write" : "read") +
                         " failed at page " + std::to_string(op->first_id) +
                         ": " + std::strerror(-res));
  } else {
    const size_t expected = op->pages * page_size_;
    const size_t got = static_cast<size_t>(res);
    if (got < expected) {
      // Short transfer (legal for the kernel, rare for regular files):
      // finish the remainder synchronously, reusing the same iovecs. A
      // mid-page cut just leaves a trimmed partial iovec to resume from.
      size_t iov_pos = 0;
      AdvanceIov(op->iov.data(), op->iov.size(), &iov_pos, got);
      st = ResumeRunSync(op->iov.data(), op->iov.size(), iov_pos,
                         static_cast<off_t>(op->first_id) *
                                 static_cast<off_t>(page_size_) +
                             static_cast<off_t>(got),
                         expected - got, op->first_id, op->is_write);
    }
  }
  CompleteOp(op, std::move(st));
}

size_t DiskManager::ReapUringLocked() {
#if NBLB_HAVE_IO_URING
  IoRing::Cqe cqes[64];
  size_t total = 0;
  for (;;) {
    const size_t n = ring_->Reap(cqes, 64);
    if (n == 0) break;
    total += n;
    uring_inflight_.fetch_sub(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      OpRecord* op = reinterpret_cast<OpRecord*>(cqes[i].user_data);
      // Pairs with the submitter's release store; see OpRecord::published.
      // A cqe implies the sqe was flushed, which happens strictly after
      // the publish store, so this spin is a handful of iterations at
      // most — the yield just keeps a single-vCPU box from burning a
      // timeslice inside cq_mu_.
      while (!op->published.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      CompleteOpRaw(op, cqes[i].res);
    }
  }
  return total;
#else
  return 0;
#endif
}

void DiskManager::EnsureIoThreads() {
  std::lock_guard<std::mutex> lk(tp_mu_);
  if (!tp_threads_.empty()) return;
  tp_threads_.reserve(kIoThreads);
  for (size_t i = 0; i < kIoThreads; ++i) {
    tp_threads_.emplace_back([this] { IoThreadLoop(); });
  }
}

void DiskManager::IoThreadLoop() {
  pthread_setname_np(pthread_self(), "nblb-io");
  for (;;) {
    OpRecord* op = nullptr;
    {
      std::unique_lock<std::mutex> lk(tp_mu_);
      tp_cv_.wait(lk, [this] { return tp_stop_ || !tp_queue_.empty(); });
      if (tp_queue_.empty()) return;  // stop requested and drained
      op = tp_queue_.front();
      tp_queue_.pop_front();
    }
    Status st =
        op->is_write
            ? WriteRunSync(op->first_id, op->iov.data(), op->iov.size())
            : ReadRunSync(op->first_id, op->iov.data(), op->iov.size());
    CompleteOp(op, std::move(st));
    tp_inflight_.fetch_sub(1, std::memory_order_release);
  }
}

Status DiskManager::SubmitReads(const PageId* ids, char* const* dsts,
                                size_t n, IoTicket* ticket) {
  return SubmitBatch(ids, dsts, n, /*is_write=*/false, ticket);
}

Status DiskManager::SubmitWrites(const PageId* ids, const char* const* srcs,
                                 size_t n, IoTicket* ticket) {
  // The iovec ABI is direction-agnostic (iov_base is void* either way) and
  // SubmitBatch never dereferences the buffers itself; writes only read
  // from them, so shedding the const here is safe.
  return SubmitBatch(ids, const_cast<char* const*>(srcs), n,
                     /*is_write=*/true, ticket);
}

Status DiskManager::SubmitBatch(const PageId* ids, char* const* bufs,
                                size_t n, bool is_write, IoTicket* ticket) {
  TraceTimer span(TracePhase::kIoSubmit);
  ticket->group_.reset();
  if (n == 0) return Status::OK();
  if (fd_ < 0) return Status::IOError("disk manager not open");
  const PageId np = num_pages();
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] >= np) {
      return Status::OutOfRange(std::string(is_write ? "write" : "read") +
                                " past end of file: page " +
                                std::to_string(ids[i]));
    }
    NBLB_DCHECK(i == 0 || ids[i] > ids[i - 1]);
  }
  if (is_write) {
    counters_.async_write_batches.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.async_batches.fetch_add(1, std::memory_order_relaxed);
  }

  auto group = std::make_shared<IoGroup>();
  std::vector<OpRecord*> ops;
  Status sync_error;  // first failure among synchronously-served pages
  size_t i = 0;
  while (i < n) {
    // In direct mode every buffer of a vectored transfer must be aligned;
    // an unaligned buffer is served synchronously through the bounce path
    // right here (the BufferPool's arenas are always aligned, so this only
    // triggers for ad-hoc callers).
    if (direct_io_ && !Aligned(bufs[i])) {
      Status st = is_write ? WritePage(ids[i], bufs[i])
                           : ReadPage(ids[i], bufs[i]);
      if (!st.ok() && sync_error.ok()) sync_error = st;
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && ids[j] == ids[j - 1] + 1 && (j - i) < kMaxIov &&
           (!direct_io_ || Aligned(bufs[j]))) {
      ++j;
    }
    const size_t run = j - i;
    OpRecord* op = new OpRecord();
    op->group = group;
    op->first_id = ids[i];
    op->pages = run;
    op->is_write = is_write;
    op->iov.resize(run);
    for (size_t k = 0; k < run; ++k) {
      op->iov[k].iov_base = bufs[i + k];
      op->iov[k].iov_len = page_size_;
    }
    ops.push_back(op);
    if (is_write) {
      counters_.async_writes.fetch_add(run, std::memory_order_relaxed);
      counters_.write_runs.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.async_reads.fetch_add(run, std::memory_order_relaxed);
    }
    i = j;
  }

  {
    std::lock_guard<std::mutex> lk(group->mu);
    group->error = sync_error;
  }
  if (ops.empty()) {
    std::lock_guard<std::mutex> lk(group->mu);
    group->done = true;
    ticket->group_ = std::move(group);
    return Status::OK();
  }
  group->remaining.store(static_cast<uint32_t>(ops.size()),
                         std::memory_order_relaxed);

#if NBLB_HAVE_IO_URING
  if (backend_in_use_ == IoBackend::kUring) {
    std::lock_guard<std::mutex> sq(sq_mu_);
    for (OpRecord* op : ops) {
      // Keep in-flight below the CQ capacity so completions cannot
      // overflow; reap (possibly blocking) when the pipe is full. The
      // re-check under cq_mu_ is load-bearing: while this thread was
      // blocked on the mutex, concurrent waiters may have reaped
      // everything — at which point the only pending sqes can be OUR OWN
      // pushed-but-unflushed ones, and a blind WaitCqe would sleep
      // forever on completions nobody has submitted. Decrements happen
      // only under cq_mu_, so once the condition holds here it cannot
      // silently clear before WaitCqe: over-capacity in-flight minus at
      // most sq_capacity unflushed means real in-kernel work remains.
      for (;;) {
        if (uring_inflight_.load(std::memory_order_acquire) <
            ring_->cq_capacity()) {
          break;
        }
        std::lock_guard<std::mutex> cq(cq_mu_);
        if (uring_inflight_.load(std::memory_order_acquire) <
            ring_->cq_capacity()) {
          break;
        }
        if (ReapUringLocked() == 0) ring_->WaitCqe();
      }
      const auto push = [&] {
        const unsigned nr = static_cast<unsigned>(op->iov.size());
        const uint64_t off =
            static_cast<uint64_t>(op->first_id) * page_size_;
        const uint64_t ud = reinterpret_cast<uint64_t>(op);
        return is_write ? ring_->PushWritev(fd_, op->iov.data(), nr, off, ud)
                        : ring_->PushReadv(fd_, op->iov.data(), nr, off, ud);
      };
      while (!push()) {
        // SQ full: flush to hand the ring to the kernel. Transient enter
        // failures (EAGAIN/ENOMEM) are retried as backpressure — see the
        // final-flush loop below for why erroring out here is not an
        // option once sqes are in the shared ring.
        const int r = ring_->Flush();
        if (r != 0) {
          NBLB_CHECK_MSG(r == -EAGAIN || r == -ENOMEM,
                         "io_uring submission failed irrecoverably");
          std::this_thread::yield();
        }
      }
      // Publish AFTER the last submitter-side access of *op (the
      // PushReadv argument reads): pairs with the reaper's acquire spin,
      // so the reap-side delete is ordered after everything here.
      op->published.store(true, std::memory_order_release);
      uring_inflight_.fetch_add(1, std::memory_order_relaxed);
    }
    // The final flush must eventually succeed: the pushed sqes sit in the
    // shared SQ ring, so erroring the group here would leak them into a
    // later (possibly successful) flush and complete freed OpRecords.
    // io_uring_enter's transient failures (EAGAIN/ENOMEM under kernel
    // memory pressure) are retryable by contract — treat the stall as
    // backpressure and keep trying; anything else is a broken ring and
    // a programming error.
    for (;;) {
      const int r = ring_->Flush();
      if (r == 0) break;
      NBLB_CHECK_MSG(r == -EAGAIN || r == -ENOMEM,
                     "io_uring submission failed irrecoverably");
      std::this_thread::yield();
    }
    ticket->group_ = std::move(group);
    return Status::OK();
  }
#endif

  EnsureIoThreads();
  {
    std::lock_guard<std::mutex> lk(tp_mu_);
    tp_inflight_.fetch_add(ops.size(), std::memory_order_relaxed);
    for (OpRecord* op : ops) tp_queue_.push_back(op);
  }
  if (ops.size() == 1) {
    tp_cv_.notify_one();
  } else {
    tp_cv_.notify_all();
  }
  ticket->group_ = std::move(group);
  return Status::OK();
}

void DiskManager::WaitGroup(const std::shared_ptr<IoGroup>& group) {
  TraceTimer span(TracePhase::kDeviceWait);
#if NBLB_HAVE_IO_URING
  if (backend_in_use_ == IoBackend::kUring) {
    // The waiter drives completion: reap whatever is available (possibly
    // finishing other tickets' ops — their waiters then return instantly),
    // and block in GETEVENTS only when nothing is ready. cq_mu_ serializes
    // reapers; a queued waiter finds its group already done.
    while (group->remaining.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> cq(cq_mu_);
      if (group->remaining.load(std::memory_order_acquire) == 0) break;
      if (ReapUringLocked() > 0) continue;
      ring_->WaitCqe();
    }
    return;
  }
#endif
  std::unique_lock<std::mutex> lk(group->mu);
  group->cv.wait(lk, [&] { return group->done; });
}

Status DiskManager::WaitReads(IoTicket* ticket) {
  if (!ticket->valid()) return Status::OK();
  std::shared_ptr<IoGroup> group = std::move(ticket->group_);
  WaitGroup(group);
  std::lock_guard<std::mutex> lk(group->mu);
  return group->error;
}

Status DiskManager::WaitWrites(IoTicket* ticket) {
  // Reads and writes share the group/completion machinery; the split name
  // exists so call sites read correctly.
  return WaitReads(ticket);
}

void DiskManager::DrainAsync() {
#if NBLB_HAVE_IO_URING
  if (ring_ != nullptr) {
    while (uring_inflight_.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> cq(cq_mu_);
      if (uring_inflight_.load(std::memory_order_acquire) == 0) break;
      if (ReapUringLocked() == 0) ring_->WaitCqe();
    }
  }
#endif
  // Thread backend: wait for the queue and in-flight ops to empty.
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(tp_mu_);
      if (tp_queue_.empty() &&
          tp_inflight_.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Writes / allocation
// ---------------------------------------------------------------------------

Status DiskManager::WritePage(PageId id, const char* data) {
  if (fd_ < 0) return Status::IOError("disk manager not open");
  if (id >= num_pages()) {
    return Status::OutOfRange("write past end of file: page " +
                              std::to_string(id));
  }
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  char* bounce = nullptr;
  const char* src = data;
  if (direct_io_ && !Aligned(data)) {
    bounce = AcquireBounce();
    std::memcpy(bounce, data, page_size_);
    src = bounce;
  }
  const ssize_t n = ::pwrite(fd_, src, page_size_, off);
  if (bounce != nullptr) ReleaseBounce(bounce);
  if (n != static_cast<ssize_t>(page_size_)) {
    return Status::IOError("short write on page " + std::to_string(id));
  }
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  Charge(id, /*write=*/true);
  return Status::OK();
}

Result<PageId> DiskManager::AllocatePage() {
  if (fd_ < 0) return Status::IOError("disk manager not open");
  std::lock_guard<std::mutex> lk(alloc_mu_);
  const PageId id = num_pages();
  const off_t off = static_cast<off_t>(id) * static_cast<off_t>(page_size_);
  ssize_t n;
  if (direct_io_) {
    char* bounce = AcquireBounce();
    std::memset(bounce, 0, page_size_);
    n = ::pwrite(fd_, bounce, page_size_, off);
    ReleaseBounce(bounce);
  } else {
    std::vector<char> zero(page_size_, 0);
    n = ::pwrite(fd_, zero.data(), page_size_, off);
  }
  if (n != static_cast<ssize_t>(page_size_)) {
    return Status::IOError("allocation write failed");
  }
  num_pages_.store(id + 1, std::memory_order_relaxed);
  counters_.allocations.fetch_add(1, std::memory_order_relaxed);
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
