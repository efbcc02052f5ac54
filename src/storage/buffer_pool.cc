#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nblb {

// ---------------------------------------------------------------------------
// PageGuard
// ---------------------------------------------------------------------------

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bp_ = other.bp_;
    id_ = other.id_;
    data_ = other.data_;
    latch_ = other.latch_;
    dirty_ = other.dirty_;
    other.bp_ = nullptr;
    other.data_ = nullptr;
    other.latch_ = nullptr;
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (bp_ != nullptr) {
    bp_->ReleaseGuard(data_, dirty_);
    bp_ = nullptr;
    data_ = nullptr;
    latch_ = nullptr;
    dirty_ = false;
  }
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

BufferPool::BufferPool(DiskManager* disk, size_t num_frames, size_t num_stripes)
    : disk_(disk), num_frames_(num_frames), page_size_(disk->page_size()) {
  NBLB_CHECK(num_frames > 0);
  if ((page_size_ & (page_size_ - 1)) == 0) {
    while ((size_t{1} << page_shift_) < page_size_) ++page_shift_;
  }

  // 4096-aligned arena: with a 4 KiB-multiple page size every frame buffer is
  // O_DIRECT-transfer aligned, so vectored miss reads land straight in frames.
  void* mem = nullptr;
  NBLB_CHECK(::posix_memalign(&mem, 4096, num_frames * page_size_) == 0);
  arena_ = static_cast<char*>(mem);
  frames_.reset(new Frame[num_frames]);

  size_t s = num_stripes;
  if (s == 0) {
    // One stripe per 64 frames, at most 64: tiny pools (unit tests with 2-4
    // frames) get one stripe and therefore exact global CLOCK behaviour.
    s = 1;
    while (s * 2 <= num_frames / 64 && s * 2 <= 64) s *= 2;
  }
  size_t pow2 = 1;
  while (pow2 * 2 <= s) pow2 *= 2;
  s = pow2;
  while (s > num_frames) s /= 2;
  num_stripes_ = s;
  stripe_mask_ = s - 1;
  stripes_.reset(new Stripe[s]);

  const size_t q = num_frames / s;
  const size_t r = num_frames % s;
  uint32_t begin = 0;
  for (size_t i = 0; i < s; ++i) {
    Stripe& st = stripes_[i];
    const uint32_t count = static_cast<uint32_t>(q + (i < r ? 1 : 0));
    st.begin = begin;
    st.end = begin + count;
    begin = st.end;
    size_t tsize = 8;
    while (tsize < 2 * static_cast<size_t>(count)) tsize *= 2;
    st.slot_key.reset(new std::atomic<PageId>[tsize]);
    st.slot_frame.reset(new std::atomic<uint32_t>[tsize]);
    for (size_t k = 0; k < tsize; ++k) {
      st.slot_key[k].store(kInvalidPageId, std::memory_order_relaxed);
      st.slot_frame[k].store(kNoFrame, std::memory_order_relaxed);
    }
    st.table_mask = tsize - 1;
    st.free_list.reserve(count);
    // Push descending so frames are handed out in index order (deterministic
    // victim order for the unit tests, like the seed pool's free list).
    for (uint32_t f = st.end; f > st.begin; --f) st.free_list.push_back(f - 1);
    for (uint32_t f = st.begin; f < st.end; ++f) {
      frames_[f].data = arena_ + static_cast<size_t>(f) * page_size_;
    }
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back of dirty pages.
  (void)FlushAll();
  std::free(flush_staging_);
  std::free(arena_);
}

// ---------------------------------------------------------------------------
// Stripe page table (linear probing, backshift deletion)
// ---------------------------------------------------------------------------

uint64_t BufferPool::Mix(PageId id) { return SplitMix64(id); }

uint32_t BufferPool::TableFind(const Stripe& st, PageId id) const {
  // Slot hash uses the high mixer bits; the stripe choice used the low ones.
  size_t i = (Mix(id) >> 32) & st.table_mask;
  for (;;) {
    const PageId key = st.slot_key[i].load(std::memory_order_relaxed);
    if (key == id) return st.slot_frame[i].load(std::memory_order_relaxed);
    if (key == kInvalidPageId) return kNoFrame;
    i = (i + 1) & st.table_mask;
  }
}

void BufferPool::TableInsert(Stripe& st, PageId id, uint32_t frame) {
  size_t i = (Mix(id) >> 32) & st.table_mask;
  while (st.slot_key[i].load(std::memory_order_relaxed) != kInvalidPageId) {
    NBLB_DCHECK(st.slot_key[i].load(std::memory_order_relaxed) != id);
    i = (i + 1) & st.table_mask;
  }
  // Frame before key: an optimistic prober that matches the key must see a
  // plausible frame (a torn pair is caught by its frame validation anyway).
  st.slot_frame[i].store(frame, std::memory_order_relaxed);
  st.slot_key[i].store(id, std::memory_order_relaxed);
}

void BufferPool::TableErase(Stripe& st, PageId id) {
  size_t i = (Mix(id) >> 32) & st.table_mask;
  for (;;) {
    const PageId key = st.slot_key[i].load(std::memory_order_relaxed);
    if (key == id) break;
    if (key == kInvalidPageId) return;
    i = (i + 1) & st.table_mask;
  }
  size_t hole = i;
  st.slot_key[hole].store(kInvalidPageId, std::memory_order_relaxed);
  size_t j = hole;
  for (;;) {
    j = (j + 1) & st.table_mask;
    const PageId key = st.slot_key[j].load(std::memory_order_relaxed);
    if (key == kInvalidPageId) return;
    const size_t ideal = (Mix(key) >> 32) & st.table_mask;
    // Shift back iff the hole lies cyclically within [ideal, j).
    if (((j - ideal) & st.table_mask) >= ((j - hole) & st.table_mask)) {
      st.slot_frame[hole].store(
          st.slot_frame[j].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      st.slot_key[hole].store(key, std::memory_order_relaxed);
      st.slot_key[j].store(kInvalidPageId, std::memory_order_relaxed);
      hole = j;
    }
  }
}

bool BufferPool::Contains(const std::vector<PageId>& v, PageId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

// ---------------------------------------------------------------------------
// Frame state transitions
// ---------------------------------------------------------------------------

void BufferPool::UnpinFrame(Frame& f, bool dirty) {
  if (!dirty) {
    // Clean unpin: one unconditional RMW. The release half publishes the
    // pinner's reads-era ordering to the next evictor via the state word's
    // release sequence.
    const uint64_t prev = f.state.fetch_sub(1, std::memory_order_release);
    NBLB_CHECK_MSG((prev & kPinMask) > 0, "unpin of unpinned page");
    return;
  }
  uint64_t s = f.state.load(std::memory_order_relaxed);
  for (;;) {
    NBLB_CHECK_MSG((s & kPinMask) > 0, "unpin of unpinned page");
    uint64_t ns = s - 1;
    if (dirty) ns |= kDirtyBit;
    // One CAS covers both the pin drop and the dirty transfer, so a victim
    // scan can never observe pin==0 without the dirty bit it must honor.
    // acq_rel: release publishes this pinner's page writes to the next
    // evictor; acquire keeps the guard's lifetime ordered after them.
    if (f.state.compare_exchange_weak(s, ns, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

uint64_t BufferPool::PinFrame(Frame& f, bool reference) {
  uint64_t s = f.state.load(std::memory_order_relaxed);
  for (;;) {
    NBLB_CHECK_MSG((s & kPinMask) != kPinMask, "pin count overflow");
    uint64_t ns = s + 1;
    if (reference && ((s & kUsageMask) >> kUsageShift) < kUsageMax) {
      ns += kUsageOne;
    }
    if (f.state.compare_exchange_weak(s, ns, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      return s;
    }
  }
}

void BufferPool::ReleaseGuard(char* data, bool dirty) {
  UnpinFrame(frames_[FrameIndexOf(data)], dirty);
}

Result<BufferPool::Claim> BufferPool::ClaimFrame(Stripe& st, PageId id) {
  Claim c;
  c.id = id;
  if (!st.free_list.empty()) {
    c.frame = st.free_list.back();
    st.free_list.pop_back();
    Frame& f = frames_[c.frame];
    f.state.store(kClaimedState, std::memory_order_relaxed);
    f.id.store(id, std::memory_order_relaxed);
    TableInsert(st, id, c.frame);
    return c;
  }
  const uint32_t n = st.end - st.begin;
  // kUsageMax+1 full sweeps drain every usage count; one more must then find
  // an unpinned frame if one exists.
  for (uint64_t step = 0; step < (kUsageMax + 2) * uint64_t{n}; ++step) {
    const uint32_t idx = st.begin + st.hand;
    Frame& f = frames_[idx];
    st.hand = (st.hand + 1) % n;
    uint64_t s = f.state.load(std::memory_order_relaxed);
    if ((s & kPinMask) != 0 || (s & kIoBit) != 0) continue;
    if ((s & kValidBit) != 0 && (s & kUsageMask) != 0) {
      // Sweep decrement is exclusive (we hold the stripe mutex; hits only
      // ever increment), so a plain subtract cannot underflow.
      f.state.fetch_sub(kUsageOne, std::memory_order_relaxed);
      continue;
    }
    // Pins and unpins are lock-free (TryOptimisticHit does not take the
    // stripe mutex we hold) — this CAS is exactly what catches them: an
    // optimistic pin bumps the pin count and usage away from the expected
    // value, the CAS fails, and the sweep revisits. Do not weaken it to a
    // store or drop the usage==0 precondition.
    if (!f.state.compare_exchange_strong(s, kClaimedState,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      continue;
    }
    if ((s & kValidBit) != 0) {
      const PageId old = f.id.load(std::memory_order_relaxed);
      TableErase(st, old);
      st.stats.evictions.fetch_add(1, std::memory_order_relaxed);
      if ((s & kDirtyBit) != 0) {
        // Write-back happens outside the stripe lock; park the old id on the
        // flushing list so a re-fetch cannot read stale bytes meanwhile.
        c.old_id = old;
        c.writeback = true;
        st.flushing.push_back(old);
      }
    }
    c.frame = idx;
    f.id.store(id, std::memory_order_relaxed);
    TableInsert(st, id, c.frame);
    return c;
  }
  return Status::ResourceExhausted("all buffer pool frames are pinned (stripe of page " +
                                   std::to_string(id) + ")");
}

Status BufferPool::WriteBack(Stripe& st, const Claim& c) {
  // NOTE: by the time this runs the displaced page's mapping is gone and
  // waiters may already be pinned on the frame for the NEW page, so a write
  // failure cannot restore the old page to the pool — its last version is
  // lost and the caller sees the IOError. Unlike the seed pool this is not
  // retriable; acceptable because WritePage never extends the file (pages
  // are preallocated, so no ENOSPC-style transient failures — a failure
  // here is a real device fault).
  Frame& f = frames_[c.frame];
  Status s = disk_->WritePage(c.old_id, f.data);
  RemoveFlushing(st, c.old_id);
  if (s.ok()) st.stats.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
  return s;
}

void BufferPool::RemoveFlushing(Stripe& st, PageId id) {
  std::lock_guard<std::mutex> lk(st.mu);
  auto it = std::find(st.flushing.begin(), st.flushing.end(), id);
  NBLB_DCHECK(it != st.flushing.end());
  *it = st.flushing.back();
  st.flushing.pop_back();
}

Status BufferPool::WriteBackBatch(std::vector<Claim>* claims) {
  std::vector<Claim*> wb;
  for (Claim& c : *claims) {
    if (c.writeback) wb.push_back(&c);
  }
  if (wb.empty()) return Status::OK();
  // A single victim has nothing to overlap.
  if (wb.size() == 1) {
    Status ws = WriteBack(StripeFor(wb[0]->old_id), *wb[0]);
    wb[0]->writeback = false;
    return ws;
  }
  // The claimed frames are exclusively ours (io bit set, displaced pages
  // already unmapped), so the group writes straight from frame memory —
  // no snapshot needed. Sort by the DISPLACED page id so contiguous dirty
  // victims coalesce into vectored runs.
  std::sort(wb.begin(), wb.end(), [](const Claim* a, const Claim* b) {
    return a->old_id < b->old_id;
  });
  std::vector<PageId> ids;
  std::vector<const char*> srcs;
  ids.reserve(wb.size());
  srcs.reserve(wb.size());
  for (Claim* c : wb) {
    ids.push_back(c->old_id);
    srcs.push_back(frames_[c->frame].data);
  }
  DiskManager::IoTicket ticket;
  Status ws = disk_->SubmitWrites(ids.data(), srcs.data(), ids.size(),
                                  &ticket);
  if (ws.ok()) ws = disk_->WaitWrites(&ticket);
  // Clear the flushing entries whether or not the group succeeded: the
  // mappings are gone and a failed victim's last version is lost either
  // way (see the NOTE on WriteBack) — a wedged flushing entry would hang
  // every future fetch of that page on top of it.
  for (Claim* c : wb) {
    Stripe& st = StripeFor(c->old_id);
    RemoveFlushing(st, c->old_id);
    c->writeback = false;
    if (ws.ok()) {
      st.stats.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return ws;
}

Status BufferPool::FlushTargets(std::vector<FlushTarget>* targets,
                                size_t* flushed, size_t* runs) {
  *flushed = 0;
  *runs = 0;
  if (targets->empty()) return Status::OK();
  // Sorting makes contiguous dirty pages adjacent, so the submit path
  // coalesces them into vectored runs.
  std::sort(targets->begin(), targets->end(),
            [](const FlushTarget& a, const FlushTarget& b) {
              return a.id < b.id;
            });
  if (flush_staging_ == nullptr) {
    void* mem = nullptr;
    NBLB_CHECK(::posix_memalign(&mem, 4096,
                                kFlushStagingPages * page_size_) == 0);
    flush_staging_ = static_cast<char*>(mem);
  }
  Status first_error;
  for (size_t base = 0; base < targets->size(); base += kFlushStagingPages) {
    const size_t count =
        std::min(kFlushStagingPages, targets->size() - base);
    std::vector<PageId> ids(count);
    std::vector<const char*> srcs(count);
    size_t chunk_runs = 1;
    for (size_t k = 0; k < count; ++k) {
      FlushTarget& t = (*targets)[base + k];
      char* slot = flush_staging_ + k * page_size_;
      {
        // Snapshot under the cache latch: the bytes that reach the device
        // are latch-consistent even though the write itself flies with no
        // latch held — the FlushPage discipline, one memcpy removed from
        // the device. A content write that lands after the snapshot
        // re-marks the frame dirty (unpin-dirty) and is flushed next pass.
        LatchGuard latch(t.frame->cache_latch);
        std::memcpy(slot, t.frame->data, page_size_);
      }
      if (t.claimed) {
        // Release the pass's io-claim the moment the bytes are staged:
        // writers blocked in WaitForLoad stall only for the memcpy, never
        // for the device write.
        t.frame->state.fetch_and(~kIoBit, std::memory_order_release);
      }
      ids[k] = t.id;
      srcs[k] = slot;
      if (k > 0 && ids[k] != ids[k - 1] + 1) ++chunk_runs;
    }
    DiskManager::IoTicket ticket;
    Status ws = disk_->SubmitWrites(ids.data(), srcs.data(), count, &ticket);
    if (ws.ok()) ws = disk_->WaitWrites(&ticket);
    if (ws.ok()) {
      *flushed += count;
      *runs += chunk_runs;
    } else {
      // Which pages of the chunk landed is unknown; re-mark them ALL dirty
      // so the next pass retries (a clean page flushed twice is harmless —
      // the frames stayed resident, so nothing is lost).
      for (size_t k = 0; k < count; ++k) {
        (*targets)[base + k].frame->state.fetch_or(
            kDirtyBit, std::memory_order_relaxed);
      }
      RecordFlightEvent(FlightEvent::kRedirty, count);
      if (first_error.ok()) first_error = ws;
    }
  }
  return first_error;
}

void BufferPool::AbortClaim(Stripe& st, const Claim& c, bool transient) {
  if (transient) RecordFlightEvent(FlightEvent::kTransientAbort, c.id);
  Frame& f = frames_[c.frame];
  std::lock_guard<std::mutex> lk(st.mu);
  TableErase(st, c.id);
  uint64_t s = f.state.load(std::memory_order_relaxed);
  for (;;) {
    // Keep the pins (the failed loader's guard and any waiters still hold
    // them); clear valid+io and raise failed so waiters bail out (with the
    // transient marker when no device error was involved). The frame
    // becomes claimable again once the pins drain.
    const uint64_t ns =
        (s & kPinMask) | kFailedBit | (transient ? kTransientBit : 0);
    if (f.state.compare_exchange_weak(s, ns, std::memory_order_release,
                                      std::memory_order_relaxed)) {
      break;
    }
  }
  f.id.store(kInvalidPageId, std::memory_order_relaxed);
}

Status BufferPool::WaitForLoad(Frame& f) {
  uint64_t s = f.state.load(std::memory_order_acquire);
  int spins = 0;
  while ((s & kIoBit) != 0) {
    if (++spins >= 64) {
      std::this_thread::yield();
      spins = 0;
    }
    s = f.state.load(std::memory_order_acquire);
  }
  if ((s & kFailedBit) != 0) {
    // A transiently aborted claim is backpressure (the loading batch ran
    // out of frames elsewhere), not a device fault: waiters get
    // ResourceExhausted, nobody reports a phantom IO error.
    if ((s & kTransientBit) != 0) {
      RecordFlightEvent(FlightEvent::kTransientWait,
                        f.id.load(std::memory_order_relaxed));
      return Status::ResourceExhausted(
          "concurrent page load aborted under capacity pressure");
    }
    return Status::IOError("concurrent page load failed");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fetch / allocate
// ---------------------------------------------------------------------------

bool BufferPool::TryOptimisticHit(Stripe& st, uint64_t h, PageId id,
                                  PageGuard* out) {
  // Probe the atomic table slots and pin with a single CAS, no stripe
  // mutex. Anything unusual — empty slot, probe-length cap, frame mid-load,
  // lost CAS race — returns false so the caller falls back to the locked
  // path, which resolves every case correctly. The post-pin id recheck
  // closes the ABA window where the frame was evicted and reloaded between
  // our state read and the CAS.
  size_t i = (h >> 32) & st.table_mask;
  for (int probes = 0; probes < 16; ++probes, i = (i + 1) & st.table_mask) {
    const PageId key = st.slot_key[i].load(std::memory_order_relaxed);
    if (key == kInvalidPageId) return false;
    if (key != id) continue;
    const uint32_t fidx = st.slot_frame[i].load(std::memory_order_relaxed);
    if (fidx >= num_frames_) return false;  // torn pair
    Frame& f = frames_[fidx];
    uint64_t s = f.state.load(std::memory_order_relaxed);
    while ((s & (kValidBit | kIoBit | kFailedBit)) == kValidBit &&
           f.id.load(std::memory_order_relaxed) == id) {
      NBLB_CHECK_MSG((s & kPinMask) != kPinMask, "pin count overflow");
      uint64_t ns = s + 1;
      if (((s & kUsageMask) >> kUsageShift) < kUsageMax) ns += kUsageOne;
      if (f.state.compare_exchange_weak(s, ns, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
        if (f.id.load(std::memory_order_relaxed) != id) {
          // ABA: same state bits, different page. Undo; take the lock.
          UnpinFrame(f, false);
          return false;
        }
        // Sloppy increment (atomic load + store, no lock prefix): exact
        // whenever the pool is quiesced, may undercount marginally when
        // two optimistic hits on one stripe collide — a diagnostic-grade
        // trade that keeps the hot path at two locked RMWs (pin, unpin).
        st.stats.hits.store(
            st.stats.hits.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        *out = PageGuard(this, id, f.data, &f.cache_latch);
        return true;
      }
    }
    return false;
  }
  return false;
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  if (id >= disk_->num_pages()) {
    return Status::OutOfRange("fetch of unallocated page " + std::to_string(id));
  }
  const uint64_t h = Mix(id);
  Stripe& st = stripes_[h & stripe_mask_];

  PageGuard fast;
  if (TryOptimisticHit(st, h, id, &fast)) return fast;

  for (;;) {
    Claim claim;
    Frame* wait_frame = nullptr;
    bool hit = false;
    bool flush_conflict = false;
    PageGuard guard;
    {
      std::lock_guard<std::mutex> lk(st.mu);
      const uint32_t idx = TableFind(st, id);
      if (idx != kNoFrame) {
        Frame& f = frames_[idx];
        const uint64_t prev = PinFrame(f, /*reference=*/true);
        st.stats.hits.fetch_add(1, std::memory_order_relaxed);
        guard = PageGuard(this, id, f.data, &f.cache_latch);
        hit = true;
        if ((prev & kIoBit) != 0) wait_frame = &f;
      } else if (Contains(st.flushing, id)) {
        // Its dirty write-back is in flight; re-reading now would see stale
        // bytes. Rare — wait for its writer to land it.
        flush_conflict = true;
      } else {
        st.stats.misses.fetch_add(1, std::memory_order_relaxed);
        auto claimed = ClaimFrame(st, id);
        if (!claimed.ok()) return claimed.status();
        claim = *claimed;
        guard = PageGuard(this, id, frames_[claim.frame].data,
                          &frames_[claim.frame].cache_latch);
      }
    }
    if (flush_conflict) {
      std::this_thread::yield();
      continue;
    }
    if (hit) {
      if (wait_frame != nullptr) {
        NBLB_RETURN_NOT_OK(WaitForLoad(*wait_frame));
      }
      return guard;
    }
    // Loader path: displaced dirty page first, then our read — all outside
    // the stripe critical section.
    if (claim.writeback) {
      Status ws = WriteBack(st, claim);
      if (!ws.ok()) {
        AbortClaim(st, claim);
        return ws;
      }
    }
    Frame& f = frames_[claim.frame];
    Status rs = disk_->ReadPage(id, f.data);
    if (!rs.ok()) {
      AbortClaim(st, claim);
      return rs;
    }
    f.state.fetch_and(~kIoBit, std::memory_order_release);
    return guard;
  }
}

void BufferPool::AbortClaims(std::vector<Claim>* claims, bool transient) {
  for (Claim& c : *claims) {
    if (c.writeback) {
      // The batch failed before this claim's displaced dirty page was
      // written back (e.g. ResourceExhausted in a later stripe). Write it
      // now — best effort, but it both lands the data and removes the
      // stripe's flushing entry, which would otherwise wedge every future
      // fetch of that page in the flush-conflict retry loop.
      (void)WriteBack(StripeFor(c.old_id), c);
      c.writeback = false;
    }
    AbortClaim(StripeFor(c.id), c, transient);
  }
  claims->clear();
}

Result<BufferPool::BatchFetch> BufferPool::StartFetchPages(
    const std::vector<PageId>& ids, std::vector<PageGuard>* guards) {
  TraceTimer span(TracePhase::kFetchStart);
  guards->clear();
  BatchFetch bf;
  if (ids.empty()) return bf;
  const PageId num_pages = disk_->num_pages();
  for (PageId id : ids) {
    if (id >= num_pages) {
      return Status::OutOfRange("fetch of unallocated page " +
                                std::to_string(id));
    }
  }
  guards->resize(ids.size());
  bf.guards = guards;
  std::vector<PageGuard>& pinned = *guards;
  StripeFor(ids[0]).stats.batch_fetches.fetch_add(1, std::memory_order_relaxed);

  // Pass 0 — optimistic lock-free pins. An all-hit batch (the common case
  // for a warm working set) resolves here with no stripe lock, no sort, and
  // no per-stripe grouping at all.
  size_t unresolved = 0;
  for (size_t k = 0; k < ids.size(); ++k) {
    const uint64_t h = Mix(ids[k]);
    if (!TryOptimisticHit(stripes_[h & stripe_mask_], h, ids[k],
                          &pinned[k])) {
      ++unresolved;
    }
  }
  if (unresolved == 0) return bf;

  // Group positions by stripe (stable: input order preserved per stripe).
  std::vector<uint32_t> order(ids.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return (Mix(ids[a]) & stripe_mask_) < (Mix(ids[b]) & stripe_mask_);
  });

  Status error;
  size_t gi = 0;
  while (gi < order.size() && error.ok()) {
    Stripe& st = StripeFor(ids[order[gi]]);
    size_t ge = gi;
    while (ge < order.size() && &StripeFor(ids[order[ge]]) == &st) ++ge;
    bool pending = false;
    for (size_t k = gi; k < ge; ++k) {
      if (!pinned[order[k]].valid()) pending = true;
    }
    if (!pending) {
      gi = ge;
      continue;
    }
    std::lock_guard<std::mutex> lk(st.mu);
    // Pass 1 — pin every resident page first, so a page requested by this
    // batch can never be chosen as a victim for one of its misses.
    for (size_t k = gi; k < ge; ++k) {
      const uint32_t pos = order[k];
      if (pinned[pos].valid()) continue;
      const uint32_t idx = TableFind(st, ids[pos]);
      if (idx == kNoFrame) continue;
      Frame& f = frames_[idx];
      const uint64_t prev = PinFrame(f, /*reference=*/true);
      st.stats.hits.fetch_add(1, std::memory_order_relaxed);
      pinned[pos] = PageGuard(this, ids[pos], f.data, &f.cache_latch);
      if ((prev & kIoBit) != 0) bf.waits.push_back(&f);
    }
    // Pass 2 — claim frames for the misses (a duplicate miss finds the
    // first occurrence's claim and just pins it). A page whose dirty
    // write-back is in flight elsewhere cannot be re-read yet; it is left
    // for FinishFetchPages to resolve with a blocking fetch (rare).
    for (size_t k = gi; k < ge; ++k) {
      const uint32_t pos = order[k];
      if (pinned[pos].valid()) continue;
      const PageId id = ids[pos];
      const uint32_t idx = TableFind(st, id);
      if (idx != kNoFrame) {
        Frame& f = frames_[idx];
        const uint64_t prev = PinFrame(f, /*reference=*/false);
        st.stats.hits.fetch_add(1, std::memory_order_relaxed);
        pinned[pos] = PageGuard(this, id, f.data, &f.cache_latch);
        if ((prev & kIoBit) != 0) bf.waits.push_back(&f);
        continue;
      }
      if (Contains(st.flushing, id)) {
        bf.stragglers.emplace_back(pos, id);
        continue;
      }
      st.stats.misses.fetch_add(1, std::memory_order_relaxed);
      auto claimed = ClaimFrame(st, id);
      if (!claimed.ok()) {
        error = claimed.status();
        break;
      }
      bf.claims.push_back(*claimed);
      pinned[pos] = PageGuard(this, id, frames_[claimed->frame].data,
                              &frames_[claimed->frame].cache_latch);
    }
    gi = ge;
  }

  // Displaced dirty pages go back to disk before the miss reads are
  // submitted: a claimed frame's buffer still holds the displaced page
  // until its read overwrites it, so every write-back must LAND before any
  // read into the same frames goes out. The victims fly as one batched
  // async group (all runs at the device at once) and the barrier is the
  // single WaitWrites inside WriteBackBatch — eviction under memory
  // pressure no longer pays one synchronous pwrite per dirty victim.
  if (error.ok()) {
    error = WriteBackBatch(&bf.claims);
  }
  if (error.ok() && !bf.claims.empty()) {
    std::sort(bf.claims.begin(), bf.claims.end(),
              [](const Claim& a, const Claim& b) { return a.id < b.id; });
    std::vector<PageId> read_ids;
    std::vector<char*> dsts;
    read_ids.reserve(bf.claims.size());
    dsts.reserve(bf.claims.size());
    for (const Claim& c : bf.claims) {
      read_ids.push_back(c.id);
      dsts.push_back(frames_[c.frame].data);
    }
    // The reads go out now and proceed while the caller does other work;
    // FinishFetchPages harvests them.
    error = disk_->SubmitReads(read_ids.data(), dsts.data(), read_ids.size(),
                               &bf.ticket);
  }
  if (!error.ok()) {
    // ResourceExhausted is capacity backpressure, not a device fault:
    // waiters piggybacked on these claims get a retryable status.
    AbortClaims(&bf.claims, /*transient=*/error.IsResourceExhausted());
    guards->clear();  // drops every pin taken so far
    return error;
  }
  return bf;
}

Status BufferPool::FinishFetchPages(BatchFetch bf) {
  if (bf.guards == nullptr) return Status::OK();  // an empty request
  Status rs = disk_->WaitReads(&bf.ticket);
  if (!rs.ok()) {
    // Write-backs already landed in Start; just unmap the failed loads so
    // waiters bail out and the frames self-heal.
    for (Claim& c : bf.claims) AbortClaim(StripeFor(c.id), c);
    bf.guards->clear();  // no pins retained
    return rs;
  }
  for (const Claim& c : bf.claims) {
    frames_[c.frame].state.fetch_and(~kIoBit, std::memory_order_release);
  }
  for (Frame* f : bf.waits) {
    Status st = WaitForLoad(*f);
    if (!st.ok()) {
      bf.guards->clear();
      return st;
    }
  }
  // Stragglers collided with an in-flight write-back of the same page; the
  // blocking per-page path waits it out (duplicates each take their own
  // pin, same as the batch path would have).
  for (const auto& [pos, id] : bf.stragglers) {
    Result<PageGuard> guard = FetchPage(id);
    if (!guard.ok()) {
      bf.guards->clear();
      return guard.status();
    }
    (*bf.guards)[pos] = std::move(*guard);
  }
  return Status::OK();
}

Result<std::vector<PageGuard>> BufferPool::FetchPages(
    const std::vector<PageId>& ids) {
  std::vector<PageGuard> guards;
  NBLB_ASSIGN_OR_RETURN(BatchFetch bf, StartFetchPages(ids, &guards));
  NBLB_RETURN_NOT_OK(FinishFetchPages(std::move(bf)));
  return guards;
}

Result<PageGuard> BufferPool::NewPage() {
  NBLB_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  Stripe& st = StripeFor(id);
  Claim claim;
  PageGuard guard;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    // A freshly allocated id cannot be resident or flushing.
    auto claimed = ClaimFrame(st, id);
    if (!claimed.ok()) return claimed.status();
    claim = *claimed;
    guard = PageGuard(this, id, frames_[claim.frame].data,
                      &frames_[claim.frame].cache_latch);
  }
  if (claim.writeback) {
    Status ws = WriteBack(st, claim);
    if (!ws.ok()) {
      AbortClaim(st, claim);
      return ws;
    }
  }
  Frame& f = frames_[claim.frame];
  std::memset(f.data, 0, page_size_);
  // A fresh page must reach disk even if never re-touched.
  f.state.fetch_or(kDirtyBit, std::memory_order_relaxed);
  f.state.fetch_and(~kIoBit, std::memory_order_release);
  return guard;
}

// ---------------------------------------------------------------------------
// Flush / evict
// ---------------------------------------------------------------------------

Status BufferPool::FlushPage(PageId id) {
  Stripe& st = StripeFor(id);
  std::lock_guard<std::mutex> lk(st.mu);
  const uint32_t idx = TableFind(st, id);
  if (idx == kNoFrame) return Status::OK();
  Frame& f = frames_[idx];
  const uint64_t s = f.state.load(std::memory_order_acquire);
  if ((s & kIoBit) != 0 || (s & kDirtyBit) == 0) return Status::OK();
  // Clear dirty before writing: a concurrent unpin-dirty after the clear is
  // preserved, whereas clearing after the write could swallow it.
  f.state.fetch_and(~kDirtyBit, std::memory_order_relaxed);
  Status ws;
  {
    // Hold the frame's cache latch so latch-disciplined content writers
    // (index-cache writes, concurrency tests) never overlap the flush read.
    LatchGuard latch(f.cache_latch);
    ws = disk_->WritePage(id, f.data);
  }
  if (!ws.ok()) {
    f.state.fetch_or(kDirtyBit, std::memory_order_relaxed);
    return ws;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Exclude a flush pass: a pass in flight holds pins and may
  // have cleared dirty bits for writes that have not landed yet — letting
  // FlushAll (and the Checkpoint fsync behind it) overtake those writes
  // would unsync what "checkpoint" promises.
  std::lock_guard<std::mutex> fl(flusher_pass_mu_);
  // Drain stripe by stripe UNDER the stripe mutex, like the pre-async
  // FlushAll: a concurrent fetch blocks briefly on the mutex and then
  // succeeds, instead of failing ResourceExhausted against a wall of
  // checkpoint pins (no pins are taken — frame identity is stable under
  // the mutex, since victim claims require it and EvictAll requires
  // flusher_pass_mu_, which we hold). Every dirty frame of the stripe
  // (pinned by readers or not — a checkpoint flushes everything) has its
  // dirty bit cleared up front (the FlushPage discipline: a concurrent
  // re-dirty after the clear is preserved for the next flush) and the
  // stripe's whole dirty set goes out through SubmitWrites in sorted
  // batched runs. The caller's single fsync behind this
  // (Database::Checkpoint) is the group-fsync: one barrier for the whole
  // drain instead of per-page write+sync interleavings.
  for (size_t i = 0; i < num_stripes_; ++i) {
    Stripe& st = stripes_[i];
    std::lock_guard<std::mutex> lk(st.mu);
    std::vector<FlushTarget> targets;
    for (uint32_t fi = st.begin; fi < st.end; ++fi) {
      Frame& f = frames_[fi];
      const uint64_t s = f.state.load(std::memory_order_acquire);
      if ((s & kValidBit) == 0 || (s & kIoBit) != 0 || (s & kDirtyBit) == 0) {
        continue;
      }
      f.state.fetch_and(~kDirtyBit, std::memory_order_relaxed);
      targets.push_back({&f, f.id.load(std::memory_order_relaxed)});
    }
    size_t flushed = 0, runs = 0;
    NBLB_RETURN_NOT_OK(FlushTargets(&targets, &flushed, &runs));
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  // Exclude a flush pass first: it pins frames, which would make the
  // pinned-check below report spurious Busy.
  std::lock_guard<std::mutex> fl(flusher_pass_mu_);
  // Take every stripe lock (in index order) so the pinned-check and the
  // eviction see one consistent pool state, like the seed's single mutex.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(num_stripes_);
  for (size_t i = 0; i < num_stripes_; ++i) {
    locks.emplace_back(stripes_[i].mu);
  }
  for (size_t i = 0; i < num_frames_; ++i) {
    const uint64_t s = frames_[i].state.load(std::memory_order_acquire);
    if ((s & kPinMask) != 0) {
      return Status::Busy("cannot evict: page " +
                          std::to_string(frames_[i].id.load(
                              std::memory_order_relaxed)) +
                          " is pinned");
    }
  }
  for (size_t i = 0; i < num_stripes_; ++i) {
    Stripe& st = stripes_[i];
    for (uint32_t fi = st.begin; fi < st.end; ++fi) {
      Frame& f = frames_[fi];
      uint64_t s = f.state.load(std::memory_order_acquire);
      if ((s & kPinMask) != 0) {
        // An optimistic lock-free pin landed after the first pinned-check
        // pass (it does not take the stripe mutexes we hold). Between this
        // load and the CAS below the CAS itself catches the race; here the
        // load catches it.
        return Status::Busy("cannot evict: page " +
                            std::to_string(
                                f.id.load(std::memory_order_relaxed)) +
                            " was pinned mid-eviction");
      }
      if ((s & kValidBit) != 0) {
        // Claim the frame (io bit blocks optimistic pins) BEFORE the dirty
        // write-back. A CAS-to-0 after the write-back would be ABA-prone: a
        // complete optimistic pin -> content write -> unpin-dirty cycle can
        // restore the identical state word (usage saturated, dirty already
        // set), and freeing the frame then would discard that write. With
        // the claim-first order any such cycle either lands before the CAS
        // (its content is what we write back) or fails to pin at all.
        const uint64_t claim = kValidBit | kIoBit | (s & kDirtyBit);
        if (!f.state.compare_exchange_strong(s, claim,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
          return Status::Busy("cannot evict: page " +
                              std::to_string(
                                  f.id.load(std::memory_order_relaxed)) +
                              " was pinned mid-eviction");
        }
        if ((s & kDirtyBit) != 0) {
          Status ws;
          {
            LatchGuard latch(f.cache_latch);  // see FlushPage
            ws = disk_->WritePage(f.id.load(std::memory_order_relaxed),
                                  f.data);
          }
          if (!ws.ok()) {
            // Leave the frame claimed-but-failed rather than half-evicted.
            f.state.store(kFailedBit, std::memory_order_release);
            TableErase(st, f.id.load(std::memory_order_relaxed));
            f.id.store(kInvalidPageId, std::memory_order_relaxed);
            return ws;
          }
          st.stats.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
        }
        TableErase(st, f.id.load(std::memory_order_relaxed));
        st.stats.evictions.fetch_add(1, std::memory_order_relaxed);
        f.state.store(0, std::memory_order_release);
      } else if ((s & kFailedBit) == 0) {
        continue;  // already on the free list
      } else {
        f.state.store(0, std::memory_order_relaxed);
      }
      f.id.store(kInvalidPageId, std::memory_order_relaxed);
      st.free_list.push_back(fi);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Flush passes
// ---------------------------------------------------------------------------

Result<size_t> BufferPool::FlushColdPages() {
  std::lock_guard<std::mutex> pass(flusher_pass_mu_);
  flusher_passes_.fetch_add(1, std::memory_order_relaxed);
  size_t budget = kFlushBatchPages;
  // Select under the stripe locks; write outside them. Each target is
  // PINNED for the duration of the pass — a pinned frame can never be
  // claimed by an evictor, so the frame's identity and buffer are stable
  // while the stripe locks are released.
  std::vector<FlushTarget> targets;
  targets.reserve(std::min(budget, num_frames_));
  for (size_t s = 0; s < num_stripes_ && budget > 0; ++s) {
    Stripe& st = stripes_[(flusher_cursor_ + s) & stripe_mask_];
    std::lock_guard<std::mutex> lk(st.mu);
    for (uint32_t fi = st.begin; fi < st.end && budget > 0; ++fi) {
      Frame& f = frames_[fi];
      uint64_t s0 = f.state.load(std::memory_order_acquire);
      if ((s0 & (kValidBit | kDirtyBit)) != (kValidBit | kDirtyBit) ||
          (s0 & (kIoBit | kFailedBit)) != 0) {
        continue;
      }
      // Clean only what the CLOCK sweep would evict next: unpinned and at
      // usage 0 (PostgreSQL's bgwriter rule). A pinned or recently
      // referenced page is likely to be re-dirtied before it is evicted,
      // so writing it now is wasted I/O; eviction, FlushAll or close
      // writes its final bytes once (a WAL-on shard has its updates
      // durable in the log meanwhile). The sweep decrements usage as it
      // passes, so a page that goes cold is aged to 0 and cleaned here
      // before the hand comes back for it.
      if ((s0 & (kPinMask | kUsageMask)) != 0) continue;
      // Claim the frame in ONE CAS: pin it (stable identity for the
      // pass), set the io bit (content writers pin through the locked
      // path and WaitForLoad until the snapshot memcpy is done — heap
      // and B+Tree writers mutate page bytes under their pin without
      // taking the cache latch, so a pin-only pass would snapshot a
      // torn page), and clear dirty BEFORE the write (the FlushPage
      // discipline: an unpin-dirty after the snapshot re-marks the frame,
      // which then reaches disk by a later pass once aged, by eviction,
      // or by FlushAll). A CAS failure means someone pinned or referenced
      // the page since the check — it is hot again; skip.
      uint64_t claimed = ((s0 + 1) | kIoBit) & ~kDirtyBit;
      if (!f.state.compare_exchange_strong(s0, claimed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
        continue;
      }
      targets.push_back({&f, f.id.load(std::memory_order_relaxed),
                         /*claimed=*/true});
      --budget;
    }
  }
  // The whole pass drains as ONE sorted async group (snapshot + submit +
  // wait inside FlushTargets): every contiguous dirty run is a vectored
  // write and every run is at the device at once, instead of one
  // synchronous pwrite per page. No fsync: a pass only pre-cleans eviction
  // victims; durability is the WAL's and Checkpoint's. Errors re-dirty
  // their pages; the frames stayed resident, so the next pass (or
  // eviction) retries.
  size_t flushed = 0, runs = 0;
  const Status ws = FlushTargets(&targets, &flushed, &runs);
  flusher_pages_.fetch_add(flushed, std::memory_order_relaxed);
  flusher_coalesced_runs_.fetch_add(runs, std::memory_order_relaxed);
  if (flushed > 0) RecordFlightEvent(FlightEvent::kFlusherPass, flushed, runs);
  for (FlushTarget& t : targets) UnpinFrame(*t.frame, /*dirty=*/false);
  flusher_cursor_ = (flusher_cursor_ + 1) & stripe_mask_;
  if (!ws.ok()) return ws;
  return flushed;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void BufferPool::RegisterMetrics(MetricsRegistry* registry,
                                 const std::string& prefix) const {
  // Per-stripe counters are aggregated at snapshot time through reader
  // callbacks; nothing on the serving path changes.
  auto reg = [this, registry, &prefix](const char* name, auto member) {
    registry->RegisterCounterFn(prefix + name, [this, member] {
      uint64_t total = 0;
      for (size_t i = 0; i < num_stripes_; ++i) {
        total += (stripes_[i].stats.*member).load(std::memory_order_relaxed);
      }
      return total;
    });
  };
  reg("hits", &StripeStats::hits);
  reg("misses", &StripeStats::misses);
  reg("evictions", &StripeStats::evictions);
  reg("dirty_writebacks", &StripeStats::dirty_writebacks);
  reg("batch_fetches", &StripeStats::batch_fetches);
  registry->RegisterCounter(prefix + "flusher_passes", &flusher_passes_);
  registry->RegisterCounter(prefix + "flusher_pages", &flusher_pages_);
  registry->RegisterCounter(prefix + "flusher_coalesced_runs",
                            &flusher_coalesced_runs_);
  registry->RegisterGauge(prefix + "hit_rate", [this] {
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (size_t i = 0; i < num_stripes_; ++i) {
      hits += stripes_[i].stats.hits.load(std::memory_order_relaxed);
      misses += stripes_[i].stats.misses.load(std::memory_order_relaxed);
    }
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  });
}

}  // namespace nblb
