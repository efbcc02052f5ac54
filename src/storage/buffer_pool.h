// BufferPool: fixed-size page cache with CLOCK replacement, driven by one
// thread at a time.
//
// The buffer pool is the arbiter of the paper's cost regimes: an index-cache
// hit avoids touching it entirely, a buffer-pool hit costs a memory access,
// and a miss costs a (real or simulated) disk read. Stats expose hit rates so
// every experiment can report where its time went.
//
// One owner: one thread at a time drives a pool and the heap files and
// B+Trees over it. In the sharded engine that is the shard's worker, and
// ownership passes only where a thread starts or is joined (Shard::Open,
// then the worker, then the engine's destructor). So frame state is plain
// fields, nothing waits for another thread, and ResourceExhausted from a
// fetch means the caller's own pins fill the pool. Two things stay atomic,
// because other threads read them: the counters RegisterMetrics publishes
// (relaxed; only the owner writes them), and each frame's cache latch,
// which IndexCache takes for the paper's §2.1.3 give-up (the pool itself
// never takes it).
//
// Layout (see src/storage/README.md for the long version):
//
//   - One open-addressing page table, one CLOCK hand over the frame array,
//     and a free list. A miss claims a frame from the free list, else from
//     the CLOCK sweep, which skips pinned frames and spends a nonzero usage
//     count (Postgres-style second chance) before it evicts.
//   - A displaced dirty page is written back from its frame before the
//     frame is read into. If that write fails, the page is mapped back
//     (dirty, unpinned) and the fetch returns the error: the frame still
//     holds the page's bytes, so nothing is lost.
//   - FetchPages() submits its misses as one read group
//     (DiskManager::SubmitReads): one vectored op per contiguous run, every
//     run in flight at the device at once on io_uring (the synchronous
//     fallback reads them one after another inside the submit).
//     StartFetchPages/FinishFetchPages expose the two halves so a caller
//     (HeapFile::GetBatch) can overlap work with the I/O.
//   - A flush pass (FlushColdPages, which a shard's worker runs between
//     service groups) pre-cleans the frames the CLOCK sweep will evict
//     next — unpinned, dirty, usage 0 — so eviction mostly finds clean
//     victims. Hot pages stay dirty until the sweep ages them, until
//     eviction, or until FlushAll (Checkpoint, close). A pass never
//     fsyncs: it is not a durability mechanism. The pool starts no thread.
//   - Write-back is batched (flush passes, dirty eviction victims in
//     StartFetchPages, FlushAll/Checkpoint): a dirty set drains sorted
//     through one blocking DiskManager::WritePages straight from the
//     frames — one vectored op per contiguous run, all runs at the device
//     at once on io_uring — with a single fsync behind a checkpoint drain
//     (group fsync). The pool's owner thread also drives its DiskManager
//     and does all of its I/O.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace nblb {

class BufferPool;

/// \brief RAII pin on a buffer-pool page. Move-only; unpins on destruction.
///
/// MarkDirty() schedules write-back on eviction/flush. Index-cache writes
/// deliberately do NOT mark dirty (§2.1.1: "cache modifications do not dirty
/// the page").
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* bp, PageId id, char* data, SpinLatch* latch)
      : bp_(bp), id_(id), data_(data), latch_(latch) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return bp_ != nullptr; }
  PageId id() const { return id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// \brief Marks the page dirty (will be written back before eviction).
  void MarkDirty() { dirty_ = true; }

  /// \brief Per-frame latch guarding in-page cache bytes (§2.1.3).
  SpinLatch* cache_latch() { return latch_; }

  /// \brief Unpins now (otherwise the destructor does).
  void Release();

 private:
  BufferPool* bp_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  SpinLatch* latch_ = nullptr;
  bool dirty_ = false;
};

/// \brief Fixed-capacity page cache over a DiskManager. One thread at a
/// time calls it (see the file comment); page content synchronization is
/// the caller's concern (the per-frame cache_latch covers in-page cache
/// bytes).
class BufferPool {
 public:
  /// \param disk        backing disk manager (not owned)
  /// \param num_frames  capacity in pages
  BufferPool(DiskManager* disk, size_t num_frames);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Fetches (pinning) an existing page.
  Result<PageGuard> FetchPage(PageId id);

  /// \brief In-flight state of a batched fetch started with
  /// StartFetchPages: the frames claimed for its misses, the async read
  /// ticket covering them, and the caller's guard buffer. Move-only; must
  /// be handed to FinishFetchPages exactly once (dropping it would leave
  /// claimed frames loading — Finish is what completes them).
  class BatchFetch;

  /// \brief Fetches many pages at once, returning guards 1:1 with `ids`
  /// (duplicates allowed — each occurrence holds its own pin). Misses are
  /// sorted and submitted as one async read group — one vectored op per
  /// contiguous page run, all runs in flight at the device simultaneously.
  /// All-or-nothing: on error no pins are retained. Every page stays
  /// pinned until its guard drops, so callers must keep batches well below
  /// the pool capacity (HeapFile::GetBatch chunks to an eighth of the
  /// frames); oversized batches fail ResourceExhausted. Equivalent to
  /// StartFetchPages + FinishFetchPages.
  Result<std::vector<PageGuard>> FetchPages(const std::vector<PageId>& ids);

  /// \brief Begins a batched fetch into the caller's guard buffer: pins
  /// every resident page, claims frames for the misses, writes back any
  /// displaced dirty pages, and submits the miss reads through
  /// DiskManager::SubmitReads — then returns while the reads are still in
  /// flight. `*guards` is replaced by one guard per id (capacity reused, so
  /// a caller that keeps the buffer allocates nothing here) and must
  /// outlive the fetch. Callers overlap useful work (HeapFile::GetBatch
  /// submits the next chunk's reads while it decodes the current chunk)
  /// and call FinishFetchPages; the guards are usable once it returns OK.
  /// On failure `*guards` is left empty. The claimed frames belong to the
  /// caller until Finish: fetching one of those pages again before then
  /// (another FetchPage or StartFetchPages of it) is a caller bug, so two
  /// fetches in flight at once must ask for disjoint pages.
  Result<BatchFetch> StartFetchPages(const std::vector<PageId>& ids,
                                     std::vector<PageGuard>* guards);

  /// \brief Completes a StartFetchPages: waits for the in-flight reads and
  /// publishes the loaded frames. All-or-nothing like FetchPages: on
  /// failure the guard buffer is left empty. On success the pins live in
  /// the buffer until the caller clears it.
  Status FinishFetchPages(BatchFetch bf);

  /// \brief Allocates a new zeroed page and returns it pinned.
  Result<PageGuard> NewPage();

  /// \brief Writes a page back if dirty.
  Status FlushPage(PageId id);

  /// \brief Writes back all dirty pages.
  Status FlushAll();

  /// \brief Drops every page from the pool, writing dirty ones back first.
  /// Simulates a cold cache; fails Busy, with no effect, if any page is
  /// pinned. A page whose write fails stays in the pool, dirty.
  Status EvictAll();

  /// Most dirty frames one flush pass writes back, drained as one sorted
  /// async write group.
  static constexpr size_t kFlushBatchPages = 64;

  /// \brief One flush pass, on the calling thread: writes back up to
  /// kFlushBatchPages frames that are dirty, unpinned and at usage count 0
  /// (the first such frames in frame order) — the frames the CLOCK sweep
  /// would evict next — so eviction mostly finds clean victims. Referenced
  /// (hot) pages stay dirty until the sweep ages them to 0, until eviction
  /// writes them back, or until FlushAll (Checkpoint, close). Never
  /// fsyncs; not a durability mechanism. Returns the pages written, or the
  /// write error (its pages stay dirty, so a later pass or eviction
  /// retries).
  Result<size_t> FlushColdPages();

  size_t num_frames() const { return num_frames_; }
  size_t page_size() const { return page_size_; }
  DiskManager* disk() { return disk_; }

  /// \brief Publishes the pool's counters under `prefix` (e.g.
  /// "buffer_pool.") in the unified registry (see src/obs/), the one read
  /// API for them: hits, misses, evictions, dirty_writebacks, and
  /// batch_fetches (FetchPages/StartFetchPages calls, each may cover many
  /// pages), and the flush passes' flusher_passes, flusher_pages (dirty
  /// pages they wrote back) and flusher_coalesced_runs (contiguous runs
  /// those pages coalesced into, one vectored write each). "hit_rate" is a
  /// gauge over the pool's lifetime; a phase's rate comes from the hits and
  /// misses of two subtracted snapshots. The registry must not outlive
  /// this BufferPool.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  friend class PageGuard;

  /// Cap of a frame's usage count, the CLOCK second chance, Postgres-style:
  /// each re-hit saturates it toward kUsageMax, each sweep pass decrements
  /// it, and only a frame at zero is evictable — near-capacity skewed
  /// working sets keep LRU-like protection for their hot pages instead of
  /// degrading to FIFO.
  static constexpr uint8_t kUsageMax = 5;  // Postgres' BM_MAX_USAGE_COUNT
  static constexpr uint32_t kNoFrame = ~0u;

  struct Frame {
    char* data = nullptr;
    /// Page held or being loaded; kInvalidPageId iff on the free list.
    PageId id = kInvalidPageId;
    uint32_t pins = 0;
    uint8_t usage = 0;
    bool dirty = false;    ///< holds a page and is not loading
    bool loading = false;  ///< claimed by a fetch that has not finished
    SpinLatch cache_latch;
  };

  /// One page-table slot; key kInvalidPageId means empty.
  struct Slot {
    PageId key = kInvalidPageId;
    uint32_t frame = kNoFrame;
  };

  /// One frame claimed for a load, plus the dirty page it displaced.
  struct Claim {
    uint32_t frame = kNoFrame;
    PageId id = kInvalidPageId;      // page being loaded
    PageId old_id = kInvalidPageId;  // displaced dirty page
    bool writeback = false;          // old_id's bytes are not on disk yet
  };

  // Page table: linear probing, backshift deletion, load factor <= 0.5.
  uint32_t TableFind(PageId id) const;
  void TableInsert(PageId id, uint32_t frame);
  void TableErase(PageId id);

  /// Claims a frame for loading `id`: free list first, then the CLOCK
  /// sweep. On success the frame is mapped to `id`, loading, and pinned
  /// once for the claimant (whose guard adopts the pin); a displaced dirty
  /// page is recorded in the claim for write-back.
  Result<Claim> ClaimFrame(PageId id);

  /// Undoes a claim whose pins have all been dropped: a displaced page
  /// whose write-back did not land is mapped back into the frame (dirty,
  /// unpinned) — the frame still holds its bytes, since no read has gone
  /// into it — and otherwise the frame returns to the free list.
  void UndoClaim(const Claim& claim);

  /// Drops a failed batch's pins and undoes its claims.
  void AbortFetch(BatchFetch* bf);

  /// Pins a resident frame for a hit (bumping its usage when `reference`)
  /// and returns the guard.
  PageGuard PinHit(uint32_t frame, bool reference);

  /// Writes back one claim's displaced page with a synchronous write.
  Status WriteBack(Claim* claim);

  /// Writes back every displaced dirty page in `claims` as one sorted
  /// async write group (a single victim takes WriteBack). On success each
  /// claim's `writeback` is cleared; on failure every one stays set, since
  /// which pages landed is unknown.
  Status WriteBackBatch(std::vector<Claim>* claims);

  /// Writes the frames in `targets` (sorted here by page id) as one async
  /// write group straight from frame memory and marks them clean. On
  /// failure they all stay dirty. Sets `*runs` to the contiguous runs
  /// written.
  Status WriteFrames(std::vector<uint32_t>* targets, size_t* runs);

  void ReleaseGuard(char* data, bool dirty);

  size_t FrameIndexOf(const char* data) const {
    const size_t off = static_cast<size_t>(data - arena_);
    // page_shift_ is nonzero iff page_size_ is a power of two (the common
    // case); a shift keeps the per-unpin cost to a couple of cycles.
    return page_shift_ != 0 ? off >> page_shift_ : off / page_size_;
  }

  DiskManager* disk_;
  size_t num_frames_ = 0;
  size_t page_size_ = 0;
  unsigned page_shift_ = 0;  ///< log2(page_size_) when it is a power of two
  char* arena_ = nullptr;  // 4096-aligned so O_DIRECT can read straight in
  std::unique_ptr<Frame[]> frames_;
  std::vector<Slot> table_;  // power-of-two size, >= 2x the frame count
  size_t table_mask_ = 0;
  std::vector<uint32_t> free_list_;
  uint32_t hand_ = 0;  // CLOCK hand

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> dirty_writebacks_{0};
  std::atomic<uint64_t> batch_fetches_{0};
  std::atomic<uint64_t> flusher_passes_{0};
  std::atomic<uint64_t> flusher_pages_{0};
  std::atomic<uint64_t> flusher_coalesced_runs_{0};

 public:
  class BatchFetch {
   public:
    BatchFetch() = default;
    BatchFetch(BatchFetch&&) = default;
    BatchFetch& operator=(BatchFetch&&) = default;
    BatchFetch(const BatchFetch&) = delete;
    BatchFetch& operator=(const BatchFetch&) = delete;

   private:
    friend class BufferPool;
    std::vector<PageGuard>* guards = nullptr;  // the caller's, 1:1 with
                                               // the request
    std::vector<Claim> claims;     // frames this fetch is loading
    DiskManager::IoTicket ticket;  // in-flight reads for `claims`
  };
};

}  // namespace nblb
