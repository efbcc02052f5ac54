// BufferPool: fixed-size page cache with striped clock-sweep replacement.
//
// The buffer pool is the arbiter of the paper's cost regimes: an index-cache
// hit avoids touching it entirely, a buffer-pool hit costs a memory access,
// and a miss costs a (real or simulated) disk read. Stats expose hit rates so
// every experiment can report where its time went.
//
// Layout (see src/storage/README.md for the long version):
//
//   - Pages map to one of N stripes by splitmix64(page_id). Each stripe owns
//     a fixed slice of the frame array, an open-addressing page table, a
//     CLOCK (second-chance) hand, a free list, and atomic stat counters —
//     there is no global mutex and no linked list.
//   - Per-frame replacement state (pin count, dirty, reference, io-pending,
//     valid, failed) is packed into a single atomic word, so Unpin is one
//     CAS with no stripe lock at all.
//   - Disk I/O (miss reads and dirty write-back) happens OUTSIDE the stripe
//     critical section: a miss claims a frame with the `io` bit set and
//     releases the stripe lock before touching the device; concurrent
//     fetchers of the same page pin the frame and spin until `io` clears.
//   - FetchPages() batches misses per stripe and submits them as one async
//     read group (DiskManager::SubmitReads — io_uring or the preadv thread
//     fallback): one vectored op per contiguous run, every run in flight at
//     the device at once. StartFetchPages/FinishFetchPages expose the two
//     halves so a caller (HeapFile::GetBatch) can overlap work with the I/O.
//   - A flush pass (FlushColdPages, which a shard's worker runs between
//     service groups) pre-cleans the frames the CLOCK sweep will evict
//     next — unpinned, dirty, usage 0 — so eviction mostly finds clean
//     victims. Hot pages stay dirty until the sweep ages them, until
//     eviction, or until FlushAll (Checkpoint, close). A pass never
//     fsyncs: it is not a durability mechanism. The pool starts no thread.
//   - Write-back is batched and asynchronous everywhere (flush passes,
//     dirty eviction victims in StartFetchPages, FlushAll/Checkpoint):
//     dirty sets drain sorted through DiskManager::SubmitWrites — one
//     vectored op per contiguous run, all runs at the device at once —
//     with a single fsync behind a checkpoint drain (group fsync).
//
// Threads: the pool itself is thread safe, and the legacy buffer_pool_scan
// bench and the pool's concurrency tests drive one pool from many threads.
// But the heap files and B+Trees over a pool are driven by one thread (a
// shard's worker): they never wait for another thread's pins to drop, so
// ResourceExhausted from a fetch means the caller's own pins fill the pool.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// \brief Fixed-capacity page cache over a DiskManager. Thread safe for all
/// operations (page content synchronization is the caller's concern; use the
/// per-frame cache_latch for in-page cache bytes).
class BufferPool {
 public:
  /// \param disk         backing disk manager (not owned); must be thread
  ///                     safe (DiskManager is)
  /// \param num_frames   capacity in pages
  /// \param num_stripes  stripe count (rounded down to a power of two,
  ///                     clamped to [1, num_frames]); 0 picks automatically:
  ///                     one stripe per 64 frames, at most 64 stripes, so
  ///                     tiny pools degenerate to a single exact stripe.
  BufferPool(DiskManager* disk, size_t num_frames, size_t num_stripes = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Fetches (pinning) an existing page.
  Result<PageGuard> FetchPage(PageId id);

  /// \brief In-flight state of a batched fetch started with
  /// StartFetchPages: claimed miss frames (io bit set), the async read
  /// ticket covering them, and the caller's guard buffer. Move-only; must
  /// be handed to FinishFetchPages exactly once (dropping it would leave
  /// claimed frames loading — Finish is what completes them).
  class BatchFetch;

  /// \brief Fetches many pages at once, returning guards 1:1 with `ids`
  /// (duplicates allowed — each occurrence holds its own pin). Misses are
  /// grouped per stripe, sorted, and submitted as one async read group —
  /// one vectored op per contiguous page run, all runs in flight at the
  /// device simultaneously. All-or-nothing: on error no pins are retained.
  /// Every page stays pinned until its guard drops, so callers must keep
  /// batches well below the pool capacity (HeapFile::GetBatch chunks to a
  /// quarter of the frames); oversized batches fail ResourceExhausted.
  /// Equivalent to StartFetchPages + FinishFetchPages.
  Result<std::vector<PageGuard>> FetchPages(const std::vector<PageId>& ids);

  /// \brief Begins a batched fetch into the caller's guard buffer: pins
  /// every resident page, claims frames for the misses (they sit in the
  /// io-in-progress state), performs any displaced dirty write-backs, and
  /// submits the miss reads through DiskManager::SubmitReads — then returns
  /// while the reads are still in flight. `*guards` is replaced by one
  /// guard per id (capacity reused, so a caller that keeps the buffer
  /// allocates nothing here) and must outlive the fetch. Callers overlap
  /// useful work (HeapFile::GetBatch submits the next chunk's reads while
  /// it decodes the current chunk) and call FinishFetchPages; the guards
  /// are usable once it returns OK. On failure `*guards` is left empty.
  /// Holding two unfinished fetches is safe only when no other thread
  /// loads pages in the pool: two threads that each finish one fetch while
  /// holding another can wait on each other's claimed frames forever.
  Result<BatchFetch> StartFetchPages(const std::vector<PageId>& ids,
                                     std::vector<PageGuard>* guards);

  /// \brief Completes a StartFetchPages: waits for the in-flight reads,
  /// publishes the loaded frames, and resolves any stragglers (pages whose
  /// dirty write-back was in flight at claim time). All-or-nothing like
  /// FetchPages: on failure the guard buffer is left empty. On success
  /// the pins live in the buffer until the caller clears it.
  Status FinishFetchPages(BatchFetch bf);

  /// \brief Allocates a new zeroed page and returns it pinned.
  Result<PageGuard> NewPage();

  /// \brief Writes a page back if dirty.
  Status FlushPage(PageId id);

  /// \brief Writes back all dirty pages.
  Status FlushAll();

  /// \brief Drops every unpinned page (clean or dirty-after-flush) from the
  /// pool. Simulates a cold cache; fails if any page is pinned.
  Status EvictAll();

  /// Most dirty frames one flush pass writes back, drained as one sorted
  /// async write group.
  static constexpr size_t kFlushBatchPages = 64;

  /// \brief One flush pass, on the calling thread: writes back up to
  /// kFlushBatchPages frames that are dirty, unpinned and at usage count 0
  /// (round-robin over stripes) — the frames the CLOCK sweep would evict
  /// next — so eviction mostly finds clean victims. Referenced (hot) pages
  /// stay dirty until the sweep ages them to 0, until eviction writes them
  /// back, or until FlushAll (Checkpoint, close). Never fsyncs; not a
  /// durability mechanism. Returns the pages written, or the write error
  /// (its pages are re-marked dirty, so a later pass or eviction retries).
  /// Safe beside other threads' fetches and FlushAll/EvictAll.
  Result<size_t> FlushColdPages();

  size_t num_frames() const { return num_frames_; }
  size_t num_stripes() const { return num_stripes_; }
  size_t page_size() const { return page_size_; }
  DiskManager* disk() { return disk_; }

  /// \brief Publishes the pool's counters under `prefix` (e.g.
  /// "buffer_pool.") in the unified registry (see src/obs/), the one read
  /// API for them. Per-stripe counters are registered as cross-stripe
  /// aggregate reader callbacks: hits, misses, evictions,
  /// dirty_writebacks, and batch_fetches (FetchPages/StartFetchPages
  /// calls, each may cover many pages). The flush passes' are direct
  /// atomics: flusher_passes, flusher_pages (dirty pages they wrote back)
  /// and flusher_coalesced_runs (contiguous runs those pages coalesced
  /// into, one vectored write each). "hit_rate" is a gauge
  /// over the pool's lifetime; a phase's rate comes from the hits and
  /// misses of two subtracted snapshots. The registry must not outlive
  /// this BufferPool.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  friend class PageGuard;

  // ---- Packed frame state word ---------------------------------------------
  // [0..15] pin count   [16] dirty   [17] io (load in flight)
  // [18] valid (holds a page)   [19] failed   [20..22] usage count
  //
  // The usage count is the CLOCK second chance, Postgres-style: each re-hit
  // saturates it toward kUsageMax, each sweep pass decrements it, and only a
  // frame at zero is evictable — near-capacity skewed working sets keep
  // LRU-like protection for their hot pages instead of degrading to FIFO.
  static constexpr uint64_t kPinMask = 0xffffull;
  static constexpr uint64_t kDirtyBit = 1ull << 16;
  static constexpr uint64_t kIoBit = 1ull << 17;
  static constexpr uint64_t kValidBit = 1ull << 18;
  static constexpr uint64_t kFailedBit = 1ull << 19;
  /// Set WITH kFailedBit when a claim was aborted for a transient,
  /// non-device reason (the owning batch hit ResourceExhausted in another
  /// stripe): waiters piggybacked on the load get backpressure they can
  /// retry, not a spurious IOError.
  static constexpr uint64_t kTransientBit = 1ull << 23;
  static constexpr unsigned kUsageShift = 20;
  static constexpr uint64_t kUsageOne = 1ull << kUsageShift;
  static constexpr uint64_t kUsageMask = 7ull << kUsageShift;
  static constexpr uint64_t kUsageMax = 5;  // like Postgres' BM_MAX_USAGE_COUNT
  /// State of a frame just claimed for a load: pinned once, io in flight.
  static constexpr uint64_t kClaimedState = kValidBit | kIoBit | 1;

  static constexpr uint32_t kNoFrame = ~0u;

  struct Frame {
    /// Packed pin/dirty/ref/io/valid/failed word; see bit layout above.
    /// Pins and unpins are lock-free RMWs; everything else mutates under the
    /// owning stripe's mutex.
    std::atomic<uint64_t> state{0};
    /// Page held (or being loaded). Written only under the stripe mutex
    /// while the frame is claimed (io set); atomic so the optimistic hit
    /// path can validate it without the lock.
    std::atomic<PageId> id{kInvalidPageId};
    char* data = nullptr;
    SpinLatch cache_latch;
  };

  /// Per-stripe live counters (relaxed: independent monotonic event counts).
  struct StripeStats {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> dirty_writebacks{0};
    std::atomic<uint64_t> batch_fetches{0};
  };

  struct alignas(64) Stripe {
    std::mutex mu;
    /// Open-addressing page table (linear probing, backshift deletion).
    /// slot_key[i] == kInvalidPageId means empty. Power-of-two sized, load
    /// factor <= 0.5 by construction (2x the stripe's frame count).
    /// Mutations happen under `mu`; the slots are atomics so the optimistic
    /// hit path may probe without it (stale/torn reads are caught by frame
    /// validation or resolved by falling back to the locked path).
    std::unique_ptr<std::atomic<PageId>[]> slot_key;
    std::unique_ptr<std::atomic<uint32_t>[]> slot_frame;  // global frame idx
    size_t table_mask = 0;
    /// Frames owned: global indexes [begin, end).
    uint32_t begin = 0;
    uint32_t end = 0;
    /// CLOCK hand, offset within [begin, end).
    uint32_t hand = 0;
    std::vector<uint32_t> free_list;
    /// Page ids whose dirty write-back is in flight outside the lock; a miss
    /// on one of these must wait for the write to land before re-reading.
    std::vector<PageId> flushing;
    StripeStats stats;
  };

  /// One frame claimed for a load, plus the eviction it displaced.
  struct Claim {
    uint32_t frame = kNoFrame;
    PageId id = kInvalidPageId;       // page being loaded
    PageId old_id = kInvalidPageId;   // dirty page to write back first
    bool writeback = false;
  };

  static uint64_t Mix(PageId id);
  Stripe& StripeFor(PageId id) { return stripes_[Mix(id) & stripe_mask_]; }

  // Page-table helpers; stripe mutex held.
  uint32_t TableFind(const Stripe& st, PageId id) const;
  void TableInsert(Stripe& st, PageId id, uint32_t frame);
  void TableErase(Stripe& st, PageId id);
  static bool Contains(const std::vector<PageId>& v, PageId id);

  /// Claims a frame for loading `id` (stripe mutex held): free list first,
  /// then CLOCK sweep. On success the frame is in kClaimedState, mapped in
  /// the table, and any displaced dirty page is queued on st.flushing.
  Result<Claim> ClaimFrame(Stripe& st, PageId id);

  /// Completes a claim whose load will not happen: unmaps the page and
  /// marks the frame failed so concurrent waiters bail out. `transient`
  /// distinguishes "the owning batch aborted under capacity pressure"
  /// (waiters get retryable ResourceExhausted) from a real device error
  /// (waiters get IOError). Takes the stripe mutex.
  void AbortClaim(Stripe& st, const Claim& claim, bool transient = false);

  /// Aborts every claim in the list, writing back any still-pending
  /// displaced dirty page first (landing the data AND removing the
  /// stripe's flushing entry, which would otherwise wedge future fetches
  /// of that page in the flush-conflict retry loop).
  void AbortClaims(std::vector<Claim>* claims, bool transient = false);

  /// Writes back a displaced dirty page and clears its flushing entry.
  Status WriteBack(Stripe& st, const Claim& claim);

  /// Removes `id` from the stripe's flushing list (stripe mutex taken
  /// inside).
  void RemoveFlushing(Stripe& st, PageId id);

  /// Batched write-back of every displaced dirty page in `claims` (the
  /// eviction-under-pressure path): sorts the victims by page id, puts all
  /// runs in flight through DiskManager::SubmitWrites, waits the group,
  /// and clears the flushing entries. Each claim's `writeback` flag is
  /// cleared whether or not the group succeeded (the flushing entries are
  /// gone either way — see the data-loss NOTE on WriteBack). A single
  /// victim takes the per-page WriteBack.
  Status WriteBackBatch(std::vector<Claim>* claims);

  /// One selected flush target: a frame pinned with its dirty bit already
  /// cleared, plus the page id it held at selection time.
  struct FlushTarget {
    Frame* frame = nullptr;
    PageId id = kInvalidPageId;
    /// True when the selector io-claimed the frame (flush pass): the
    /// snapshot owns the bytes outright — concurrent pins wait on the io
    /// bit — and FlushTargets must clear kIoBit right after its memcpy.
    bool claimed = false;
  };

  /// Writes `targets` back in sorted batched groups (snapshotting each
  /// page into the staging arena under its cache latch, then
  /// SubmitWrites/WaitWrites per staging-sized chunk). Failed pages are
  /// re-marked dirty (the whole failing chunk — conservative, a clean page
  /// flushed twice is harmless). Does NOT unpin. Returns the first
  /// error and sets `*flushed`/`*runs` to the successful page and run
  /// counts.
  Status FlushTargets(std::vector<FlushTarget>* targets, size_t* flushed,
                      size_t* runs);

  /// Spins until the frame's io bit clears; IOError if the load failed.
  Status WaitForLoad(Frame& f);

  /// Lock-free unpin by frame: one CAS folding the pin decrement and the
  /// dirty transfer so eviction can never observe the pin drop without the
  /// dirty bit. Guards call this with the frame derived from their data
  /// pointer (there is no by-page-id unpin; guards are the only pin owners).
  void UnpinFrame(Frame& f, bool dirty);
  /// One CAS that pins and (for hits) saturates the usage count. Returns the
  /// pre-CAS state so callers can detect an in-flight load (kIoBit).
  uint64_t PinFrame(Frame& f, bool reference);

  /// Lock-free hit attempt: probe the stripe's atomic slots, pin with one
  /// CAS, validate against ABA. False means "use the locked path".
  bool TryOptimisticHit(Stripe& st, uint64_t h, PageId id, PageGuard* out);
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
  std::unique_ptr<Stripe[]> stripes_;
  size_t num_stripes_ = 0;
  uint64_t stripe_mask_ = 0;

  // ---- Flush passes --------------------------------------------------------
  /// Held for the duration of each FlushColdPages pass; FlushAll and
  /// EvictAll take it first so they never interleave with a half-done pass
  /// run from another thread (a pass pins its targets, which would flip
  /// EvictAll to Busy and let Checkpoint sync before an in-flight
  /// write-back lands).
  std::mutex flusher_pass_mu_;
  size_t flusher_cursor_ = 0;  // stripe rotation across passes
  std::atomic<uint64_t> flusher_passes_{0};
  std::atomic<uint64_t> flusher_pages_{0};
  std::atomic<uint64_t> flusher_coalesced_runs_{0};

  /// Staging arena for batched flushes: up to kFlushStagingPages pages are
  /// snapshotted here (4096-aligned, so O_DIRECT group writes transfer
  /// directly) while their cache latches are released — the device reads a
  /// latch-consistent copy, never live frame memory. Allocated lazily and
  /// used only under flusher_pass_mu_, which FlushColdPages and FlushAll
  /// both hold.
  static constexpr size_t kFlushStagingPages = 256;
  char* flush_staging_ = nullptr;

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
                                               // the request; stragglers
                                               // invalid until Finish
                                               // resolves them
    std::vector<Claim> claims;        // frames this fetch is loading
    std::vector<Frame*> waits;        // frames another thread is loading
    /// (position, page) pairs that collided with an in-flight write-back.
    std::vector<std::pair<uint32_t, PageId>> stragglers;
    DiskManager::IoTicket ticket;     // in-flight reads for `claims`
  };
};

}  // namespace nblb
