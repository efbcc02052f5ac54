// DiskManager: file-backed page store, driven by one thread at a time.

#pragma once

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "storage/latency_model.h"
#include "storage/page.h"

namespace nblb {

class IoRing;
class MetricsRegistry;

/// \brief Which engine serves batched reads and writes.
enum class IoBackend {
  /// io_uring: every contiguous run of a batch is one vectored sqe, and all
  /// of a batch's runs are at the device at once.
  kUring,
  /// preadv/pwritev on the owner's thread inside the submit call, one run
  /// after another: where io_uring is compiled out or the kernel refuses
  /// it, or when NBLB_IO_BACKEND=sync asks for it.
  kSync,
};

namespace internal {
struct IoGroup;
}  // namespace internal

/// \brief Reads/writes/allocates fixed-size pages in a single file.
///
/// Optionally charges a LatencyModel per operation (used by benchmarks to
/// model disk cost deterministically).
///
/// One owner: one thread at a time drives a DiskManager, the thread that
/// drives the BufferPool over it. In the sharded engine that is the shard's
/// worker, and ownership passes only where a thread starts or is joined
/// (Shard::Open, then the worker, then the engine's destructor). The owner
/// submits, reaps and completes all of its own I/O, so nothing here takes
/// a lock, waits for another thread, or starts one. The counters stay
/// atomic, because a metrics reader on another thread reads them (relaxed;
/// only the owner writes them).
///
/// Batched reads: SubmitReads queues a batch of page reads and returns an
/// IoTicket; on io_uring the reads proceed at the device until WaitReads
/// harvests them, which is how a shard worker overlaps all of its
/// non-contiguous miss runs and HeapFile::GetBatch overlaps the next
/// chunk's reads. WritePages is the blocking mirror image for the buffer
/// pool's write-back: every run of a sorted dirty batch in flight at once,
/// and one wait.
///
/// The backend comes from the platform and NBLB_IO_BACKEND, read at Open:
/// auto (also what unset or empty means) runs io_uring where the ring comes
/// up and kSync otherwise, and sync forces kSync.
class DiskManager {
 public:
  /// \brief Completion token for one SubmitReads group. A ticket dropped
  /// without WaitReads leaves its reads to finish when the owner next
  /// reaps; they are drained at Close/destruction.
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
  ///                   through one aligned page. Falls back to buffered
  ///                   I/O when the filesystem rejects O_DIRECT (e.g.
  ///                   tmpfs); check direct_io() after Open.
  DiskManager(std::string path, size_t page_size,
              LatencyModel* latency = nullptr, bool direct_io = false);
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// \brief Opens (or creates) the backing file and picks the backend.
  /// InvalidArgument, before touching the file, when NBLB_IO_BACKEND holds
  /// a value other than auto or sync.
  Status Open();

  /// \brief Closes the file; further I/O fails. Drains in-flight reads
  /// first.
  Status Close();

  /// \brief Reads page `id` into `out` (page_size bytes).
  Status ReadPage(PageId id, char* out);

  /// \brief Begins reads of `n` pages and returns a ticket: `ids` must be
  /// ascending and unique, and `dsts[i]` receives page `ids[i]`. Contiguous
  /// id runs become one vectored op each (scattering into the destination
  /// buffers); on io_uring every run is in flight at once, and on kSync
  /// every run is read before this returns. Destination buffers must stay
  /// alive until the ticket completes. Validation errors (not open, id out
  /// of range) surface here; device errors surface from WaitReads.
  Status SubmitReads(const PageId* ids, char* const* dsts, size_t n,
                     IoTicket* ticket);

  /// \brief Blocks until every read in `ticket` completes; returns the
  /// first error (OK otherwise) and invalidates the ticket. Waiting on an
  /// invalid ticket returns OK.
  Status WaitReads(IoTicket* ticket);

  /// \brief Writes page `id` from `data` (page_size bytes).
  Status WritePage(PageId id, const char* data);

  /// \brief Writes `n` pages and returns once all of them have landed:
  /// `ids` must be ascending and unique, `srcs[i]` supplies page `ids[i]`'s
  /// bytes, and every page must already exist (writes never extend the
  /// file). Contiguous id runs become one vectored op each, and on io_uring
  /// every run is in flight at once. Returns the first error, validation or
  /// device; after a device error which pages landed is unknown.
  Status WritePages(const PageId* ids, const char* const* srcs, size_t n);

  /// \brief Extends the file by one zeroed page and returns its id. A
  /// failed or short write trims the file back to whole pages.
  Result<PageId> AllocatePage();

  /// \brief fsync the backing file.
  Status Sync();

  size_t page_size() const { return page_size_; }
  PageId num_pages() const { return num_pages_; }
  /// \brief True when the file is actually open with O_DIRECT.
  bool direct_io() const { return direct_io_; }
  /// \brief The backend serving SubmitReads and WritePages (resolved at
  /// Open: kUring only when the ring came up, else kSync).
  IoBackend io_backend_in_use() const { return backend_in_use_; }
  /// \brief Publishes every counter under `prefix` (e.g. "disk.") in the
  /// unified registry (see src/obs/), the one read API for them. The
  /// registry must not outlive this DiskManager.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;
  const std::string& path() const { return path_; }

 private:
  struct OpRecord;

  static bool Aligned(const void* p) {
    return reinterpret_cast<uintptr_t>(p) % 4096 == 0;
  }
  void Charge(PageId id, bool write);

  /// The preadv/pwritev resume loop: transfers `remaining` bytes at file
  /// offset `off` from/into `iov[iov_pos..n)`, advancing across partial
  /// transfers. `first_id` is for error messages only.
  Status ResumeRunSync(struct iovec* iov, size_t n, size_t iov_pos,
                       off_t off, size_t remaining, PageId first_id,
                       bool is_write);

  /// The submission path behind SubmitReads and WritePages: validates,
  /// splits the batch into contiguous runs, and serves every run through
  /// the backend. `bufs` are destinations for reads and sources for writes.
  Status SubmitBatch(const PageId* ids, char* const* bufs, size_t n,
                     bool is_write, IoTicket* ticket);

  /// Counts and charges one finished run of `pages` pages, and records its
  /// error in `group`.
  void FinishRun(internal::IoGroup* group, PageId first_id, size_t pages,
                 bool is_write, Status status);
  /// Finishes one reaped io_uring op from its cqe result (running the
  /// short-transfer continuation if needed). Deletes `op`.
  void CompleteOp(OpRecord* op, int32_t res);
  /// Hands every pushed sqe to the kernel, retrying transient failures.
  void FlushRing();
  /// Completes the io_uring ops that have finished, blocking in the kernel
  /// first when none has. Call it only with ops in flight and every pushed
  /// sqe flushed, so a completion is sure to come.
  void ReapSome();

  std::string path_;
  size_t page_size_;
  LatencyModel* latency_;
  bool direct_io_ = false;
  IoBackend backend_in_use_ = IoBackend::kSync;
  int fd_ = -1;
  PageId num_pages_ = 0;
  /// One 4096-aligned page, allocated at Open: stages an unaligned caller
  /// buffer under O_DIRECT, and is AllocatePage's zero source.
  char* stage_ = nullptr;

  /// Live counters (relaxed atomics that only the owner writes), read
  /// through RegisterMetrics.
  struct Counters {
    std::atomic<uint64_t> reads{0};  ///< pages read (single and batched)
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> allocations{0};
    /// Vectored read ops (multi-page runs): with `reads`, pages per op.
    std::atomic<uint64_t> vectored_reads{0};
    std::atomic<uint64_t> async_reads{0};    ///< pages through SubmitReads
    std::atomic<uint64_t> async_batches{0};  ///< SubmitReads groups
    std::atomic<uint64_t> async_writes{0};   ///< pages through WritePages
    std::atomic<uint64_t> async_write_batches{0};  ///< WritePages calls
    /// Contiguous runs WritePages wrote (one vectored write each): with
    /// `async_writes`, how well a sorted dirty set coalesced.
    std::atomic<uint64_t> write_runs{0};
  };
  Counters counters_;

  // ---- io_uring backend ----------------------------------------------------
  std::unique_ptr<IoRing> ring_;
  /// Ops pushed and not yet reaped; kept below the completion queue's
  /// capacity so completions cannot overflow.
  size_t uring_inflight_ = 0;
};

}  // namespace nblb
