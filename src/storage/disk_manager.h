// DiskManager: file-backed page store.

#pragma once

#include <sys/uio.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "storage/latency_model.h"
#include "storage/page.h"

namespace nblb {

class IoRing;
class MetricsRegistry;

/// \brief Which engine serves asynchronous miss reads.
enum class IoBackend {
  /// io_uring when compiled in and the kernel permits it, else kThreads.
  kAuto = 0,
  /// Prefer io_uring; degrades to kThreads with a stderr note when the
  /// runtime refuses (seccomp, `io_uring_disabled` sysctl, old kernel).
  kUring,
  /// Force the preadv worker-thread fallback (the runtime knob for "force
  /// the fallback path" — also reachable via NBLB_IO_BACKEND=threads).
  kThreads,
};

/// \brief Tuning for the async engine (reads and writes share it).
struct AsyncIoOptions {
  IoBackend backend = IoBackend::kAuto;
  /// Max in-flight async ops (io_uring submission ring size; the kernel
  /// rounds up to a power of two). Reads and writes draw from one budget.
  size_t queue_depth = 64;
};

namespace internal {
struct IoGroup;
}  // namespace internal

/// \brief Reads/writes/allocates fixed-size pages in a single file.
///
/// Optionally charges a LatencyModel per operation (used by benchmarks to
/// model disk cost deterministically). Thread safe: pread/pwrite carry their
/// own offsets, allocation is serialized by a mutex, counters are atomics,
/// and O_DIRECT staging buffers come from an internal pool. A BufferPool
/// has one owner thread, but one DiskManager may serve many submitters
/// (the tests drive one from several threads), and its io_uring waiters or
/// fallback io threads complete any submitter's groups.
///
/// Asynchronous reads: SubmitReads queues a batch of page reads and returns
/// an IoTicket immediately; the reads proceed in parallel (io_uring, or the
/// preadv worker pool) until WaitReads harvests them. This is how one shard
/// worker overlaps all of its non-contiguous miss runs instead of paying
/// device latency once per run.
///
/// Asynchronous writes are the mirror image: SubmitWrites puts every
/// contiguous run of a (sorted) dirty batch in flight at once
/// (IORING_OP_WRITEV, or the pwritev worker pool) and WaitWrites harvests
/// the group — the buffer pool's flush passes, eviction write-backs, and
/// FlushAll/Checkpoint all drain through it instead of paying one
/// synchronous pwrite per page.
class DiskManager {
 public:
  /// \brief Completion token for one SubmitReads group. Move-only in
  /// spirit (copying shares the same completion state). A ticket dropped
  /// without WaitReads leaves its reads to finish in the background; they
  /// are drained at Close/destruction.
  class IoTicket {
   public:
    IoTicket() = default;
    bool valid() const { return group_ != nullptr; }

   private:
    friend class DiskManager;
    std::shared_ptr<internal::IoGroup> group_;
  };

  /// \param path       backing file path (created if missing on Open)
  /// \param page_size  page size in bytes
  /// \param latency    optional latency model (not owned); may be nullptr
  /// \param direct_io  open with O_DIRECT, bypassing the OS page cache so
  ///                   buffer-pool misses pay real storage latency (the
  ///                   regime the paper's RAM-residency arguments assume).
  ///                   Requires page_size to be a multiple of 4096. Aligned
  ///                   caller buffers (the BufferPool's frame arena) are
  ///                   transferred directly; unaligned ones are staged
  ///                   through pooled bounce buffers. Falls back to buffered
  ///                   I/O when the filesystem rejects O_DIRECT (e.g.
  ///                   tmpfs); check direct_io() after Open.
  /// \param aio        async read engine tuning; the NBLB_IO_BACKEND
  ///                   environment variable (uring|threads) overrides
  ///                   aio.backend, so CI can force either path without a
  ///                   rebuild. Any other value (auto) leaves it alone.
  DiskManager(std::string path, size_t page_size,
              LatencyModel* latency = nullptr, bool direct_io = false,
              AsyncIoOptions aio = {});
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// \brief Opens (or creates) the backing file and the async engine.
  Status Open();

  /// \brief Closes the file; further I/O fails. Drains in-flight async
  /// reads first.
  Status Close();

  /// \brief Reads page `id` into `out` (page_size bytes).
  Status ReadPage(PageId id, char* out);

  /// \brief Begins asynchronous reads of `n` pages and returns immediately
  /// with a ticket: `ids` must be ascending and unique, and `dsts[i]`
  /// receives page `ids[i]`. Contiguous id runs become one vectored op each
  /// (scattering into the destination buffers), and every run is in flight
  /// at once. Destination buffers must stay alive until the ticket
  /// completes. Validation errors (not open, id out of range) surface here;
  /// device errors surface from WaitReads.
  Status SubmitReads(const PageId* ids, char* const* dsts, size_t n,
                     IoTicket* ticket);

  /// \brief Blocks until every read in `ticket` completes; returns the
  /// first error (OK otherwise) and invalidates the ticket. Waiting on an
  /// invalid ticket returns OK.
  Status WaitReads(IoTicket* ticket);

  /// \brief Writes page `id` from `data` (page_size bytes).
  Status WritePage(PageId id, const char* data);

  /// \brief Begins asynchronous writes of `n` pages: `ids` must be
  /// ascending and unique, `srcs[i]` supplies page `ids[i]`'s bytes, and
  /// every page must already exist (writes never extend the file).
  /// Contiguous id runs become one vectored op each and ALL runs are in
  /// flight at once. Source buffers must stay alive (and unmodified, if the
  /// on-disk bytes are to be well defined) until the ticket completes.
  /// Validation errors surface here; device errors surface from WaitWrites.
  Status SubmitWrites(const PageId* ids, const char* const* srcs, size_t n,
                      IoTicket* ticket);

  /// \brief Blocks until every write in `ticket` completes; returns the
  /// first error (OK otherwise) and invalidates the ticket. Waiting on an
  /// invalid ticket returns OK. (Writes and reads share the completion
  /// machinery.)
  Status WaitWrites(IoTicket* ticket);

  /// \brief Extends the file by one zeroed page and returns its id.
  Result<PageId> AllocatePage();

  /// \brief fsync the backing file.
  Status Sync();

  size_t page_size() const { return page_size_; }
  PageId num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }
  /// \brief True when the file is actually open with O_DIRECT.
  bool direct_io() const { return direct_io_; }
  /// \brief The async backend actually serving SubmitReads (resolved at
  /// Open: kUring only when the ring came up, else kThreads).
  IoBackend io_backend_in_use() const { return backend_in_use_; }
  /// \brief Publishes every counter under `prefix` (e.g. "disk.") in the
  /// unified registry (see src/obs/), the one read API for them. The
  /// registry must not outlive this DiskManager.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;
  const std::string& path() const { return path_; }

 private:
  struct OpRecord;

  /// Borrow/return a 4096-aligned page_size buffer for O_DIRECT staging.
  char* AcquireBounce();
  void ReleaseBounce(char* buf);
  static bool Aligned(const void* p) {
    return reinterpret_cast<uintptr_t>(p) % 4096 == 0;
  }
  void Charge(PageId id, bool write);

  /// The shared preadv/pwritev resume loop: transfers `remaining` bytes at
  /// file offset `off` from/into `iov[iov_pos..n)`, advancing across
  /// partial transfers. `first_id` is for error messages only.
  Status ResumeRunSync(struct iovec* iov, size_t n, size_t iov_pos,
                       off_t off, size_t remaining, PageId first_id,
                       bool is_write);
  /// Synchronous scattered read of one whole contiguous run: reads `run`
  /// pages starting at `first_id` into `iov`.
  Status ReadRunSync(PageId first_id, struct iovec* iov, size_t run);
  /// Synchronous gathered write of one whole contiguous run.
  Status WriteRunSync(PageId first_id, struct iovec* iov, size_t run);

  /// Shared submission path behind SubmitReads/SubmitWrites: validates,
  /// splits the batch into contiguous runs, and puts every run in flight
  /// through the active backend. `bufs` are destinations for reads and
  /// sources for writes.
  Status SubmitBatch(const PageId* ids, char* const* bufs, size_t n,
                     bool is_write, IoTicket* ticket);

  /// Finishes one async op: short-transfer continuation, counters, latency
  /// charge, group accounting. Deletes `op`.
  void CompleteOp(OpRecord* op, Status status);
  /// Translates a raw cqe result into a Status (running the short-read
  /// continuation if needed) and completes the op.
  void CompleteOpRaw(OpRecord* op, int32_t res);

  /// Reaps available uring completions; cq_mu_ must be held. Returns the
  /// number harvested.
  size_t ReapUringLocked();
  /// Blocks until the group completes (backend-appropriate strategy).
  void WaitGroup(const std::shared_ptr<internal::IoGroup>& group);

  void EnsureIoThreads();
  void IoThreadLoop();
  /// Drains every in-flight async op (Close/destructor).
  void DrainAsync();

  std::string path_;
  size_t page_size_;
  LatencyModel* latency_;
  /// LatencyModel keeps sequential-access state; serialize charges.
  SpinLatch latency_mu_;
  bool direct_io_ = false;
  AsyncIoOptions aio_;
  IoBackend backend_in_use_ = IoBackend::kThreads;
  int fd_ = -1;
  std::atomic<PageId> num_pages_{0};
  /// Serializes file extension (write-at-end + size bump).
  std::mutex alloc_mu_;

  /// Live counters (relaxed atomics), read through RegisterMetrics.
  struct Counters {
    std::atomic<uint64_t> reads{0};  ///< pages read (single and async)
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> allocations{0};
    /// Vectored read ops (multi-page runs): with `reads`, pages per op.
    std::atomic<uint64_t> vectored_reads{0};
    std::atomic<uint64_t> async_reads{0};    ///< pages through SubmitReads
    std::atomic<uint64_t> async_batches{0};  ///< SubmitReads groups
    std::atomic<uint64_t> async_writes{0};   ///< pages through SubmitWrites
    std::atomic<uint64_t> async_write_batches{0};  ///< SubmitWrites groups
    /// Contiguous runs SubmitWrites put in flight (one vectored write
    /// each): with `async_writes`, how well a sorted dirty set coalesced.
    std::atomic<uint64_t> write_runs{0};
  };
  Counters counters_;

  /// O_DIRECT staging: one aligned arena of kBounceSlots page buffers,
  /// allocated once at Open (direct mode only). The free list hands out
  /// arena slots; if demand ever exceeds the arena, one-off aligned
  /// allocations (tracked in bounce_overflow_) cover the burst and then
  /// recycle through the same free list.
  static constexpr size_t kBounceSlots = 32;
  std::mutex bounce_mu_;
  std::vector<char*> bounce_free_;
  char* bounce_arena_ = nullptr;
  std::vector<char*> bounce_overflow_;

  // ---- io_uring backend ----------------------------------------------------
  std::unique_ptr<IoRing> ring_;
  /// Producer side: PushReadv/Flush. Taken before cq_mu_ when both are
  /// needed (in-flight cap); waiters take cq_mu_ alone.
  std::mutex sq_mu_;
  /// Consumer side: reap/dispatch. A waiter may block in
  /// io_uring_enter(GETEVENTS) while holding it; concurrent waiters queue
  /// behind and find their completions already dispatched.
  std::mutex cq_mu_;
  std::atomic<size_t> uring_inflight_{0};

  // ---- preadv worker-thread fallback --------------------------------------
  std::mutex tp_mu_;
  std::condition_variable tp_cv_;
  std::deque<OpRecord*> tp_queue_;
  std::vector<std::thread> tp_threads_;
  std::atomic<size_t> tp_inflight_{0};
  bool tp_stop_ = false;  // under tp_mu_
};

}  // namespace nblb
