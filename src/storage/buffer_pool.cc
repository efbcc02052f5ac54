#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

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

BufferPool::BufferPool(DiskManager* disk, size_t num_frames)
    : disk_(disk), num_frames_(num_frames), page_size_(disk->page_size()) {
  NBLB_CHECK(num_frames > 0 && num_frames < kNoFrame);
  if ((page_size_ & (page_size_ - 1)) == 0) {
    while ((size_t{1} << page_shift_) < page_size_) ++page_shift_;
  }

  // 4096-aligned arena: with a 4 KiB-multiple page size every frame buffer is
  // O_DIRECT-transfer aligned, so vectored reads and writes go straight
  // between the device and the frames.
  void* mem = nullptr;
  NBLB_CHECK(::posix_memalign(&mem, 4096, num_frames * page_size_) == 0);
  arena_ = static_cast<char*>(mem);
  frames_.reset(new Frame[num_frames]);
  for (size_t f = 0; f < num_frames; ++f) {
    frames_[f].data = arena_ + f * page_size_;
  }

  size_t table_size = 8;
  while (table_size < 2 * num_frames) table_size *= 2;
  table_.resize(table_size);
  table_mask_ = table_size - 1;

  free_list_.reserve(num_frames);
  // Push descending so frames are handed out in index order (deterministic
  // victim order for the unit tests, like the seed pool's free list).
  for (size_t f = num_frames; f > 0; --f) {
    free_list_.push_back(static_cast<uint32_t>(f - 1));
  }
}

BufferPool::~BufferPool() {
  // Best effort write-back of dirty pages.
  (void)FlushAll();
  std::free(arena_);
}

// ---------------------------------------------------------------------------
// Page table (linear probing, backshift deletion)
// ---------------------------------------------------------------------------

uint32_t BufferPool::TableFind(PageId id) const {
  for (size_t i = SplitMix64(id) & table_mask_;; i = (i + 1) & table_mask_) {
    const Slot& slot = table_[i];
    if (slot.key == id) return slot.frame;
    if (slot.key == kInvalidPageId) return kNoFrame;
  }
}

void BufferPool::TableInsert(PageId id, uint32_t frame) {
  size_t i = SplitMix64(id) & table_mask_;
  while (table_[i].key != kInvalidPageId) {
    NBLB_DCHECK(table_[i].key != id);
    i = (i + 1) & table_mask_;
  }
  table_[i] = {id, frame};
}

void BufferPool::TableErase(PageId id) {
  size_t hole = SplitMix64(id) & table_mask_;
  for (;; hole = (hole + 1) & table_mask_) {
    if (table_[hole].key == id) break;
    if (table_[hole].key == kInvalidPageId) return;
  }
  table_[hole] = Slot{};
  for (size_t j = (hole + 1) & table_mask_; table_[j].key != kInvalidPageId;
       j = (j + 1) & table_mask_) {
    const size_t ideal = SplitMix64(table_[j].key) & table_mask_;
    // Shift back iff the hole lies cyclically within [ideal, j).
    if (((j - ideal) & table_mask_) >= ((j - hole) & table_mask_)) {
      table_[hole] = table_[j];
      table_[j] = Slot{};
      hole = j;
    }
  }
}

// ---------------------------------------------------------------------------
// Frame state transitions
// ---------------------------------------------------------------------------

void BufferPool::ReleaseGuard(char* data, bool dirty) {
  Frame& f = frames_[FrameIndexOf(data)];
  NBLB_CHECK_MSG(f.pins > 0, "unpin of unpinned page");
  --f.pins;
  if (dirty) f.dirty = true;
}

PageGuard BufferPool::PinHit(uint32_t frame, bool reference) {
  Frame& f = frames_[frame];
  ++f.pins;
  if (reference && f.usage < kUsageMax) ++f.usage;
  Bump(hits_);
  return PageGuard(this, f.id, f.data, &f.cache_latch);
}

Result<BufferPool::Claim> BufferPool::ClaimFrame(PageId id) {
  Claim c;
  c.id = id;
  if (!free_list_.empty()) {
    c.frame = free_list_.back();
    free_list_.pop_back();
  } else {
    // Every frame holds a page here: a frame leaves the page table only
    // onto the free list. kUsageMax+1 full sweeps drain every usage count;
    // one more must then find an unpinned frame if one exists. A loading
    // frame is pinned by its claimant, so the sweep never takes it.
    for (uint64_t step = 0; step < (kUsageMax + 2) * uint64_t{num_frames_};
         ++step) {
      Frame& f = frames_[hand_];
      const uint32_t idx = hand_;
      hand_ = hand_ + 1 == num_frames_ ? 0 : hand_ + 1;
      if (f.pins != 0) continue;
      if (f.usage != 0) {
        --f.usage;
        continue;
      }
      c.frame = idx;
      break;
    }
    if (c.frame == kNoFrame) {
      return Status::ResourceExhausted(
          "all buffer pool frames are pinned (fetch of page " +
          std::to_string(id) + ")");
    }
    Frame& victim = frames_[c.frame];
    TableErase(victim.id);
    if (victim.dirty) {
      // Counted as evicted once its write-back lands (UndoClaim maps it
      // back if that fails).
      c.old_id = victim.id;
      c.writeback = true;
    } else {
      Bump(evictions_);
    }
  }
  Frame& f = frames_[c.frame];
  f.id = id;
  f.pins = 1;
  f.usage = 0;
  f.dirty = false;
  f.loading = true;
  TableInsert(id, c.frame);
  return c;
}

void BufferPool::UndoClaim(const Claim& c) {
  Frame& f = frames_[c.frame];
  NBLB_DCHECK(f.pins == 0);
  TableErase(c.id);
  f.loading = false;
  f.usage = 0;
  if (c.writeback) {
    f.id = c.old_id;
    f.dirty = true;
    TableInsert(c.old_id, c.frame);
    return;
  }
  f.id = kInvalidPageId;
  free_list_.push_back(c.frame);
}

void BufferPool::AbortFetch(BatchFetch* bf) {
  bf->guards->clear();  // drops every pin, the claims' included
  for (const Claim& c : bf->claims) UndoClaim(c);
  bf->claims.clear();
}

Status BufferPool::WriteBack(Claim* c) {
  NBLB_RETURN_NOT_OK(disk_->WritePage(c->old_id, frames_[c->frame].data));
  c->writeback = false;
  Bump(dirty_writebacks_);
  Bump(evictions_);
  return Status::OK();
}

Status BufferPool::WriteBackBatch(std::vector<Claim>* claims) {
  std::vector<Claim*> wb;
  for (Claim& c : *claims) {
    if (c.writeback) wb.push_back(&c);
  }
  if (wb.empty()) return Status::OK();
  // A single victim has nothing to overlap.
  if (wb.size() == 1) return WriteBack(wb[0]);
  // Sort by the DISPLACED page id so contiguous dirty victims coalesce
  // into vectored runs.
  std::sort(wb.begin(), wb.end(), [](const Claim* a, const Claim* b) {
    return a->old_id < b->old_id;
  });
  std::vector<PageId> ids;
  std::vector<const char*> srcs;
  ids.reserve(wb.size());
  srcs.reserve(wb.size());
  for (const Claim* c : wb) {
    ids.push_back(c->old_id);
    srcs.push_back(frames_[c->frame].data);
  }
  DiskManager::IoTicket ticket;
  NBLB_RETURN_NOT_OK(
      disk_->SubmitWrites(ids.data(), srcs.data(), ids.size(), &ticket));
  NBLB_RETURN_NOT_OK(disk_->WaitWrites(&ticket));
  for (Claim* c : wb) c->writeback = false;
  Bump(dirty_writebacks_, wb.size());
  Bump(evictions_, wb.size());
  return Status::OK();
}

Status BufferPool::WriteFrames(std::vector<uint32_t>* targets, size_t* runs) {
  *runs = 0;
  if (targets->empty()) return Status::OK();
  // Sorting makes contiguous dirty pages adjacent, so the submit path
  // coalesces them into vectored runs.
  std::sort(targets->begin(), targets->end(), [this](uint32_t a, uint32_t b) {
    return frames_[a].id < frames_[b].id;
  });
  std::vector<PageId> ids;
  std::vector<const char*> srcs;
  ids.reserve(targets->size());
  srcs.reserve(targets->size());
  size_t group_runs = 0;
  for (uint32_t t : *targets) {
    const Frame& f = frames_[t];
    if (ids.empty() || f.id != ids.back() + 1) ++group_runs;
    ids.push_back(f.id);
    srcs.push_back(f.data);
  }
  DiskManager::IoTicket ticket;
  Status ws = disk_->SubmitWrites(ids.data(), srcs.data(), ids.size(),
                                  &ticket);
  if (ws.ok()) ws = disk_->WaitWrites(&ticket);
  if (!ws.ok()) {
    // Which pages landed is unknown, so every one stays dirty and a later
    // pass, eviction or FlushAll retries (a clean page written twice is
    // harmless; the frames stayed resident, so nothing is lost).
    RecordFlightEvent(FlightEvent::kRedirty, ids.size());
    return ws;
  }
  for (uint32_t t : *targets) frames_[t].dirty = false;
  *runs = group_runs;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fetch / allocate
// ---------------------------------------------------------------------------

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  if (id >= disk_->num_pages()) {
    return Status::OutOfRange("fetch of unallocated page " + std::to_string(id));
  }
  const uint32_t idx = TableFind(id);
  if (idx != kNoFrame) {
    // A loading frame belongs to an unfinished batch fetch of the caller's.
    NBLB_DCHECK(!frames_[idx].loading);
    return PinHit(idx, /*reference=*/true);
  }
  Bump(misses_);
  NBLB_ASSIGN_OR_RETURN(Claim claim, ClaimFrame(id));
  Frame& f = frames_[claim.frame];
  PageGuard guard(this, id, f.data, &f.cache_latch);
  // The displaced dirty page first, then our read into the same frame.
  Status s = claim.writeback ? WriteBack(&claim) : Status::OK();
  if (s.ok()) s = disk_->ReadPage(id, f.data);
  if (!s.ok()) {
    guard.Release();
    UndoClaim(claim);
    return s;
  }
  f.loading = false;
  return guard;
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
  Bump(batch_fetches_);

  // Pass 1 — pin every resident page first, so a page requested by this
  // batch can never be chosen as a victim for one of its misses. An all-hit
  // batch (the common case for a warm working set) ends here.
  size_t missing = 0;
  for (size_t k = 0; k < ids.size(); ++k) {
    const uint32_t idx = TableFind(ids[k]);
    if (idx == kNoFrame) {
      ++missing;
      continue;
    }
    NBLB_DCHECK(!frames_[idx].loading);  // see FetchPage
    pinned[k] = PinHit(idx, /*reference=*/true);
  }
  if (missing == 0) return bf;

  // Pass 2 — claim frames for the misses (a duplicate miss finds the first
  // occurrence's claim and just pins it).
  Status error;
  for (size_t k = 0; k < ids.size(); ++k) {
    if (pinned[k].valid()) continue;
    const uint32_t idx = TableFind(ids[k]);
    if (idx != kNoFrame) {
      pinned[k] = PinHit(idx, /*reference=*/false);
      continue;
    }
    Bump(misses_);
    Result<Claim> claimed = ClaimFrame(ids[k]);
    if (!claimed.ok()) {
      error = claimed.status();
      break;
    }
    Frame& f = frames_[claimed->frame];
    pinned[k] = PageGuard(this, ids[k], f.data, &f.cache_latch);
    bf.claims.push_back(*claimed);
  }

  // Displaced dirty pages go back to disk before the miss reads are
  // submitted: a claimed frame's buffer still holds the displaced page
  // until its read overwrites it, so every write-back must LAND before any
  // read into the same frames goes out. The victims fly as one batched
  // async group, and the barrier is its single WaitWrites.
  if (error.ok()) error = WriteBackBatch(&bf.claims);
  if (error.ok()) {
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
    AbortFetch(&bf);
    return error;
  }
  return bf;
}

Status BufferPool::FinishFetchPages(BatchFetch bf) {
  if (bf.guards == nullptr) return Status::OK();  // an empty request
  Status rs = disk_->WaitReads(&bf.ticket);
  if (!rs.ok()) {
    // The write-backs landed in Start, so every claimed frame goes back to
    // the free list.
    AbortFetch(&bf);
    return rs;
  }
  for (const Claim& c : bf.claims) frames_[c.frame].loading = false;
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
  NBLB_ASSIGN_OR_RETURN(Claim claim, ClaimFrame(id));
  Frame& f = frames_[claim.frame];
  PageGuard guard(this, id, f.data, &f.cache_latch);
  if (claim.writeback) {
    if (Status ws = WriteBack(&claim); !ws.ok()) {
      guard.Release();
      UndoClaim(claim);
      return ws;
    }
  }
  std::memset(f.data, 0, page_size_);
  // A fresh page must reach disk even if never re-touched.
  f.dirty = true;
  f.loading = false;
  return guard;
}

// ---------------------------------------------------------------------------
// Flush / evict
// ---------------------------------------------------------------------------

Status BufferPool::FlushPage(PageId id) {
  const uint32_t idx = TableFind(id);
  if (idx == kNoFrame || !frames_[idx].dirty) return Status::OK();
  Frame& f = frames_[idx];
  NBLB_RETURN_NOT_OK(disk_->WritePage(id, f.data));
  f.dirty = false;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Every dirty frame, pinned or not — a checkpoint flushes everything —
  // drains as one sorted async group. The caller's single fsync behind
  // this (Database::Checkpoint) is the group fsync: one barrier for the
  // whole drain instead of per-page write+sync interleavings.
  std::vector<uint32_t> targets;
  for (uint32_t i = 0; i < num_frames_; ++i) {
    if (frames_[i].dirty) targets.push_back(i);
  }
  size_t runs = 0;
  return WriteFrames(&targets, &runs);
}

Status BufferPool::EvictAll() {
  for (size_t i = 0; i < num_frames_; ++i) {
    if (frames_[i].pins != 0) {
      return Status::Busy("cannot evict: page " +
                          std::to_string(frames_[i].id) + " is pinned");
    }
  }
  for (uint32_t i = 0; i < num_frames_; ++i) {
    Frame& f = frames_[i];
    if (f.id == kInvalidPageId) continue;  // already on the free list
    if (f.dirty) {
      // On failure the page stays mapped and dirty, and the frames before
      // it stay evicted.
      NBLB_RETURN_NOT_OK(disk_->WritePage(f.id, f.data));
      f.dirty = false;
      Bump(dirty_writebacks_);
    }
    TableErase(f.id);
    Bump(evictions_);
    f.id = kInvalidPageId;
    f.usage = 0;
    free_list_.push_back(i);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Flush passes
// ---------------------------------------------------------------------------

Result<size_t> BufferPool::FlushColdPages() {
  Bump(flusher_passes_);
  // Clean only what the CLOCK sweep would evict next: unpinned and at usage
  // 0 (PostgreSQL's bgwriter rule). A pinned or recently referenced page is
  // likely to be re-dirtied before it is evicted, so writing it now is
  // wasted I/O; eviction, FlushAll or close writes its final bytes once (a
  // WAL-on shard has its updates durable in the log meanwhile). The sweep
  // decrements usage as it passes, so a page that goes cold is aged to 0
  // and cleaned here before the hand comes back for it.
  std::vector<uint32_t> targets;
  for (uint32_t i = 0; i < num_frames_ && targets.size() < kFlushBatchPages;
       ++i) {
    const Frame& f = frames_[i];
    if (f.dirty && f.pins == 0 && f.usage == 0) targets.push_back(i);
  }
  // The whole pass drains as ONE sorted async group: every contiguous dirty
  // run is a vectored write and every run is at the device at once. No
  // fsync: a pass only pre-cleans eviction victims; durability is the
  // WAL's and Checkpoint's.
  size_t runs = 0;
  NBLB_RETURN_NOT_OK(WriteFrames(&targets, &runs));
  Bump(flusher_pages_, targets.size());
  Bump(flusher_coalesced_runs_, runs);
  if (!targets.empty()) {
    RecordFlightEvent(FlightEvent::kFlusherPass, targets.size(), runs);
  }
  return targets.size();
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

void BufferPool::RegisterMetrics(MetricsRegistry* registry,
                                 const std::string& prefix) const {
  registry->RegisterCounter(prefix + "hits", &hits_);
  registry->RegisterCounter(prefix + "misses", &misses_);
  registry->RegisterCounter(prefix + "evictions", &evictions_);
  registry->RegisterCounter(prefix + "dirty_writebacks", &dirty_writebacks_);
  registry->RegisterCounter(prefix + "batch_fetches", &batch_fetches_);
  registry->RegisterCounter(prefix + "flusher_passes", &flusher_passes_);
  registry->RegisterCounter(prefix + "flusher_pages", &flusher_pages_);
  registry->RegisterCounter(prefix + "flusher_coalesced_runs",
                            &flusher_coalesced_runs_);
  registry->RegisterGauge(prefix + "hit_rate", [this] {
    const uint64_t hits = hits_.load(std::memory_order_relaxed);
    const uint64_t total = hits + misses_.load(std::memory_order_relaxed);
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  });
}

}  // namespace nblb
