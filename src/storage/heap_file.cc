#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"
#include "obs/event_ring.h"
#include "obs/trace.h"

namespace nblb {

namespace {

// Heap page layout (integers little endian):
//   [0]  u16 page_type (kPageTypeHeap)
//   [2]  u16 slot count (directory entries, live or free)
//   [4]  u16 live (live tuples)
//   [6]  u16 free end: tuple bytes occupy [free end, page end); the free
//        gap is [16 + 4 * slot count, free end)
//   [8]  u32 next_page
//   [12] u32 reserved
//   [16] slot directory, one (u16 offset, u16 length) per slot; offset 0
//        marks a free slot (no tuple starts inside the header)
// Tuple bytes are packed down from the page end. Bytes a delete, a move or
// a shrinking update leaves behind are dead until the page is compacted.
constexpr size_t kHeaderSize = HeapFile::kPageHeaderSize;
constexpr size_t kEntrySize = HeapFile::kSlotEntrySize;
/// Passed to Compact when no slot's bytes are to be dropped.
constexpr size_t kNoSlot = ~size_t{0};

uint16_t LoadU16(const char* p) { return DecodeFixed16(p); }
void StoreU16(char* p, size_t v) { EncodeFixed16(p, static_cast<uint16_t>(v)); }
uint32_t LoadU32(const char* p) { return DecodeFixed32(p); }
void StoreU32(char* p, uint32_t v) { EncodeFixed32(p, v); }

size_t SlotCount(const char* d) { return LoadU16(d + 2); }
size_t Live(const char* d) { return LoadU16(d + 4); }
size_t FreeEnd(const char* d) { return LoadU16(d + 6); }
size_t DirEnd(const char* d) { return kHeaderSize + SlotCount(d) * kEntrySize; }
size_t Gap(const char* d) { return FreeEnd(d) - DirEnd(d); }
char* Entry(char* d, size_t slot) { return d + kHeaderSize + slot * kEntrySize; }
const char* Entry(const char* d, size_t slot) {
  return d + kHeaderSize + slot * kEntrySize;
}

void InitPage(char* d, size_t page_size) {
  StoreU16(d + 0, kPageTypeHeap);
  StoreU16(d + 2, 0);
  StoreU16(d + 4, 0);
  StoreU16(d + 6, page_size);
  StoreU32(d + 8, kInvalidPageId);
  StoreU32(d + 12, 0);
}

/// Corruption unless `d` is a heap page whose directory ends at or before
/// its free end, whose free end lies inside the page, and whose live count
/// does not exceed its slot count. Everything below relies on it.
Status CheckHeader(const char* d, size_t page_size) {
  if (LoadU16(d) != kPageTypeHeap) return Status::Corruption("not a heap page");
  if (DirEnd(d) > FreeEnd(d) || FreeEnd(d) > page_size ||
      Live(d) > SlotCount(d)) {
    return Status::Corruption("heap page header does not fit the page");
  }
  return Status::OK();
}

/// The tuple in `rid.slot` of a checked page: NotFound for a free or absent
/// slot, Corruption for one that does not lie between the free end and the
/// page end.
Status FindTuple(const char* d, size_t page_size, const Rid& rid,
                 Slice* out) {
  if (rid.slot >= SlotCount(d)) {
    return Status::NotFound("no tuple at " + rid.ToString());
  }
  const char* e = Entry(d, rid.slot);
  const size_t off = LoadU16(e);
  const size_t len = LoadU16(e + 2);
  if (off == 0) return Status::NotFound("no tuple at " + rid.ToString());
  if (off < FreeEnd(d) || off + len > page_size) {
    return Status::Corruption("heap slot " + rid.ToString() +
                              " lies outside the page's tuple space");
  }
  *out = Slice(d + off, len);
  return Status::OK();
}

Status ReadTuple(const char* d, size_t page_size, const Rid& rid,
                 Slice* out) {
  NBLB_RETURN_NOT_OK(CheckHeader(d, page_size));
  return FindTuple(d, page_size, rid, out);
}

/// Checks every live slot of a checked page, that the live count matches
/// them and that their bytes fit the tuple space; returns the bytes the
/// live tuples use. Compact relies on the last check.
Result<size_t> ScanDirectory(const char* d, size_t page_size, PageId id) {
  size_t bytes = 0, live = 0;
  for (size_t s = 0; s < SlotCount(d); ++s) {
    if (LoadU16(Entry(d, s)) == 0) continue;
    Slice t;
    NBLB_RETURN_NOT_OK(
        FindTuple(d, page_size, Rid(id, static_cast<uint16_t>(s)), &t));
    bytes += t.size();
    ++live;
  }
  if (live != Live(d)) {
    return Status::Corruption("heap page " + std::to_string(id) +
                              " live count does not match its slots");
  }
  if (bytes > page_size - FreeEnd(d)) {
    return Status::Corruption("heap page " + std::to_string(id) +
                              " has overlapping tuples");
  }
  return bytes;
}

/// Repacks the live tuples of a page whose directory ScanDirectory
/// accepted, down from the page end, keeping every slot number. The bytes
/// of slot `drop` are left out (its entry is the caller's to rewrite).
void Compact(char* d, size_t page_size, size_t drop, std::string* scratch) {
  scratch->assign(d, page_size);
  const char* copy = scratch->data();
  size_t end = page_size;
  for (size_t s = 0; s < SlotCount(d); ++s) {
    char* e = Entry(d, s);
    const size_t off = LoadU16(e);
    if (off == 0 || s == drop) continue;
    const size_t len = LoadU16(e + 2);
    end -= len;
    std::memcpy(d + end, copy + off, len);
    StoreU16(e, end);
  }
  StoreU16(d + 6, end);
}

/// Stores `tuple` in the gap of a checked page as slot `slot`'s bytes.
void PlaceInGap(char* d, size_t slot, const Slice& tuple) {
  const size_t at = FreeEnd(d) - tuple.size();
  if (!tuple.empty()) std::memcpy(d + at, tuple.data(), tuple.size());
  StoreU16(Entry(d, slot), at);
  StoreU16(Entry(d, slot) + 2, tuple.size());
  StoreU16(d + 6, at);
}

}  // namespace

HeapFile::HeapFile(BufferPool* bp, HeapFileOptions options)
    : bp_(bp), options_(options) {}

Result<std::unique_ptr<HeapFile>> HeapFile::Create(BufferPool* bp,
                                                   HeapFileOptions options) {
  if (bp->page_size() > 0xffff) {
    return Status::InvalidArgument("heap pages address bytes with 16 bits");
  }
  std::unique_ptr<HeapFile> hf(new HeapFile(bp, options));
  NBLB_RETURN_NOT_OK(hf->AppendPage());
  return hf;
}

Result<std::unique_ptr<HeapFile>> HeapFile::Attach(BufferPool* bp,
                                                   PageId first_page,
                                                   HeapFileOptions options) {
  return Walk(bp, first_page, options, /*tolerant=*/false);
}

Result<std::unique_ptr<HeapFile>> HeapFile::AttachTolerant(
    BufferPool* bp, PageId first_page, HeapFileOptions options) {
  return Walk(bp, first_page, options, /*tolerant=*/true);
}

Result<std::unique_ptr<HeapFile>> HeapFile::Walk(BufferPool* bp,
                                                 PageId first_page,
                                                 HeapFileOptions options,
                                                 bool tolerant) {
  if (bp->page_size() > 0xffff) {
    return Status::InvalidArgument("heap pages address bytes with 16 bits");
  }
  std::unique_ptr<HeapFile> hf(new HeapFile(bp, options));
  const PageId limit = bp->disk()->num_pages();
  std::vector<bool> seen(limit, false);
  PageId id = first_page;
  while (id != kInvalidPageId) {
    if (id >= limit || seen[id]) {
      // The chain extends only at the tail, so a link past the file or
      // back into the chain is a stale link that survived a crash.
      if (tolerant) break;
      return Status::Corruption("heap chain link " + std::to_string(id) +
                                (id >= limit ? " is past the end of the file"
                                             : " closes a cycle"));
    }
    seen[id] = true;
    NBLB_ASSIGN_OR_RETURN(PageGuard page, bp->FetchPage(id));
    const char* d = page.data();
    // A linked-to page that was never flushed as a heap page: the chain
    // ends at the previous page.
    if (tolerant && LoadU16(d) != kPageTypeHeap) break;
    Status st = CheckHeader(d, bp->page_size());
    if (!st.ok()) {
      return Status::Corruption(st.message() + ": page " + std::to_string(id));
    }
    NBLB_RETURN_NOT_OK(ScanDirectory(d, bp->page_size(), id).status());
    hf->tuple_count_ += Live(d);
    if (Live(d) < SlotCount(d)) hf->pages_with_holes_.push_back(id);
    hf->pages_.push_back(id);
    id = LoadU32(d + 8);
  }
  if (hf->pages_.empty()) {
    return tolerant ? Status::Corruption("heap first page is not a heap page")
                    : Status::InvalidArgument("heap file has no pages");
  }
  if (tolerant) {
    // Repair the tail link so later Attach/ForEach walks see a clean chain.
    NBLB_ASSIGN_OR_RETURN(PageGuard tail, bp->FetchPage(hf->pages_.back()));
    if (LoadU32(tail.data() + 8) != kInvalidPageId) {
      StoreU32(tail.data() + 8, kInvalidPageId);
      tail.MarkDirty();
    }
  }
  return hf;
}

Status HeapFile::AppendPage() {
  NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->NewPage());
  InitPage(page.data(), bp_->page_size());
  page.MarkDirty();
  const PageId new_id = page.id();
  page.Release();

  if (!pages_.empty()) {
    NBLB_ASSIGN_OR_RETURN(PageGuard prev, bp_->FetchPage(pages_.back()));
    StoreU32(prev.data() + 8, new_id);
    prev.MarkDirty();
  }
  pages_.push_back(new_id);
  return Status::OK();
}

Result<bool> HeapFile::PlaceOnPage(PageGuard* page, const Slice& tuple,
                                   Rid* rid) {
  const size_t page_size = bp_->page_size();
  char* d = page->data();
  NBLB_RETURN_NOT_OK(CheckHeader(d, page_size));
  // Reuse a free slot when the live count says there is one.
  size_t slot = SlotCount(d);
  if (Live(d) < SlotCount(d)) {
    for (size_t s = 0; s < SlotCount(d); ++s) {
      if (LoadU16(Entry(d, s)) == 0) {
        slot = s;
        break;
      }
    }
  }
  const size_t need = tuple.size() + (slot == SlotCount(d) ? kEntrySize : 0);
  if (need > Gap(d)) {
    NBLB_ASSIGN_OR_RETURN(size_t live_bytes,
                          ScanDirectory(d, page_size, page->id()));
    if (need > page_size - DirEnd(d) - live_bytes) return false;
    Compact(d, page_size, kNoSlot, &scratch_);
  }
  if (slot == SlotCount(d)) StoreU16(d + 2, slot + 1);
  PlaceInGap(d, slot, tuple);
  StoreU16(d + 4, Live(d) + 1);
  page->MarkDirty();
  ++tuple_count_;
  *rid = Rid(page->id(), static_cast<uint16_t>(slot));
  return true;
}

Result<Rid> HeapFile::Insert(const Slice& tuple) {
  // Optional hole reuse (off by default: the paper's append-to-table policy).
  if (options_.reuse_free_slots &&
      tuple.size() <= MaxTupleSize(bp_->page_size())) {
    while (!pages_with_holes_.empty()) {
      NBLB_ASSIGN_OR_RETURN(PageGuard page,
                            bp_->FetchPage(pages_with_holes_.back()));
      Rid rid;
      NBLB_ASSIGN_OR_RETURN(bool placed, PlaceOnPage(&page, tuple, &rid));
      if (placed) return rid;
      pages_with_holes_.pop_back();
    }
  }
  return Append(tuple);
}

Result<Rid> HeapFile::Append(const Slice& tuple) {
  if (tuple.size() > MaxTupleSize(bp_->page_size())) {
    return Status::InvalidArgument("tuple larger than a heap page holds");
  }
  Rid rid;
  {
    NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(pages_.back()));
    NBLB_ASSIGN_OR_RETURN(bool placed, PlaceOnPage(&page, tuple, &rid));
    if (placed) return rid;
  }
  NBLB_RETURN_NOT_OK(AppendPage());
  NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(pages_.back()));
  NBLB_ASSIGN_OR_RETURN(bool placed, PlaceOnPage(&page, tuple, &rid));
  NBLB_CHECK(placed);  // an empty page holds any tuple up to MaxTupleSize
  return rid;
}

Status HeapFile::Get(const Rid& rid, std::string* out) {
  NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(rid.page));
  Slice tuple;
  NBLB_RETURN_NOT_OK(ReadTuple(page.data(), bp_->page_size(), rid, &tuple));
  out->assign(tuple.data(), tuple.size());
  return Status::OK();
}

Status HeapFile::GetBatch(const std::vector<Rid>& rids, const TupleFn& fn) {
  if (rids.empty()) return Status::OK();

  // One pinned guard per distinct page, fetched in batched calls so misses
  // coalesce into overlapped vectored reads. Chunked to a fraction of the
  // pool so a huge batch can never pin more frames than the pool can spare
  // (the per-op path held one pin at a time; wholesale ResourceExhausted on
  // a big batch would be a regression). Chunks are pipelined: the next
  // chunk's miss reads are submitted (StartFetchPages) before the current
  // chunk's tuples are handed to fn, so the device stays busy while the CPU
  // decodes. The cap leaves room for two chunks pinned at once.
  std::vector<PageId>& page_ids = batch_pages_;
  page_ids.clear();
  for (const Rid& rid : rids) page_ids.push_back(rid.page);
  std::sort(page_ids.begin(), page_ids.end());
  page_ids.erase(std::unique(page_ids.begin(), page_ids.end()),
                 page_ids.end());
  // The chunk being read and the one prefetched behind it pin into the two
  // reused guard buffers; every exit drops their pins and keeps their
  // capacity.
  struct Unpin {
    std::vector<PageGuard>* buffers;
    ~Unpin() {
      buffers[0].clear();
      buffers[1].clear();
    }
  } unpin{guards_};
  std::vector<PageGuard>* guards = &guards_[0];
  std::vector<PageGuard>* ahead_guards = &guards_[1];
  const auto start_chunk = [&](size_t begin, size_t end,
                               std::vector<PageGuard>* dst) {
    chunk_pages_.assign(page_ids.begin() + begin, page_ids.begin() + end);
    return bp_->StartFetchPages(chunk_pages_, dst);
  };
  size_t chunk_cap = std::max<size_t>(8, bp_->num_frames() / 8);
  const size_t page_size = bp_->page_size();

  size_t base = 0;
  BufferPool::BatchFetch pending;
  size_t pending_begin = 0, pending_end = 0;
  bool have_pending = false;
  while (base < page_ids.size() || have_pending) {
    if (!have_pending) {
      const size_t end = std::min(base + chunk_cap, page_ids.size());
      auto started = start_chunk(base, end, guards);
      if (!started.ok()) {
        // The caller may hold pins of its own, so even a capped chunk can
        // exhaust. Degrade by halving the chunk — at size 1 this is exactly
        // the old one-pin-at-a-time path, so anything it could serve, this
        // serves. Past that, only the caller's own pins fill the pool, so
        // the failure is final.
        if (started.status().IsResourceExhausted() && chunk_cap > 1) {
          chunk_cap /= 2;
          RecordFlightEvent(FlightEvent::kChunkHalve, chunk_cap);
          continue;
        }
        return started.status();
      }
      pending = std::move(*started);
      pending_begin = base;
      pending_end = end;
      base = end;
      have_pending = true;
    }
    // Prefetch the next chunk before blocking on the current one. The two
    // unfinished fetches ask for disjoint pages (the chunks split one
    // sorted, deduplicated list), as StartFetchPages requires.
    BufferPool::BatchFetch ahead;
    size_t ahead_begin = 0, ahead_end = 0;
    bool have_ahead = false;
    if (base < page_ids.size()) {
      const size_t end = std::min(base + chunk_cap, page_ids.size());
      auto started = start_chunk(base, end, ahead_guards);
      if (started.ok()) {
        ahead = std::move(*started);
        ahead_begin = base;
        ahead_end = end;
        base = end;
        have_ahead = true;
      } else if (started.status().IsResourceExhausted()) {
        // Not enough spare frames for two chunks in flight: fall back to
        // sequential chunks (and shrink them) rather than failing.
        if (chunk_cap > 1) {
          chunk_cap /= 2;
          RecordFlightEvent(FlightEvent::kChunkHalve, chunk_cap);
        }
      } else {
        (void)bp_->FinishFetchPages(std::move(pending));
        return started.status();
      }
    }
    const Status fetched = bp_->FinishFetchPages(std::move(pending));
    have_pending = false;
    if (!fetched.ok()) {
      if (have_ahead) {
        (void)bp_->FinishFetchPages(std::move(ahead));
        ahead_guards->clear();
      }
      return fetched;
    }
    const PageId lo = page_ids[pending_begin];
    const PageId hi = page_ids[pending_end - 1];
    const auto chunk_begin = page_ids.begin() + pending_begin;
    const auto chunk_end_it = page_ids.begin() + pending_end;
    TraceTimer copy_span(TracePhase::kCopy);
    for (size_t i = 0; i < rids.size(); ++i) {
      const Rid& rid = rids[i];
      if (rid.page < lo || rid.page > hi) continue;
      const size_t gi = static_cast<size_t>(
          std::lower_bound(chunk_begin, chunk_end_it, rid.page) -
          chunk_begin);
      Slice tuple;
      const Status st =
          ReadTuple((*guards)[gi].data(), page_size, rid, &tuple);
      fn(i, st, st.ok() ? tuple : Slice());
    }
    guards->clear();  // this chunk's pins
    if (have_ahead) {
      std::swap(guards, ahead_guards);
      pending = std::move(ahead);
      pending_begin = ahead_begin;
      pending_end = ahead_end;
      have_pending = true;
    }
  }
  return Status::OK();
}

Result<bool> HeapFile::Update(const Rid& rid, const Slice& tuple) {
  const size_t page_size = bp_->page_size();
  if (tuple.size() > MaxTupleSize(page_size)) {
    return Status::InvalidArgument("tuple larger than a heap page holds");
  }
  NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(rid.page));
  char* d = page.data();
  Slice old;
  NBLB_RETURN_NOT_OK(ReadTuple(d, page_size, rid, &old));
  if (tuple.size() <= old.size()) {
    // Over the old bytes; the rest of them are dead until a compaction.
    char* e = Entry(d, rid.slot);
    if (!tuple.empty()) std::memcpy(d + LoadU16(e), tuple.data(), tuple.size());
    StoreU16(e + 2, tuple.size());
  } else if (tuple.size() <= Gap(d)) {
    PlaceInGap(d, rid.slot, tuple);
  } else {
    NBLB_ASSIGN_OR_RETURN(size_t live_bytes,
                          ScanDirectory(d, page_size, rid.page));
    // The room a compaction that drops the old bytes would leave.
    if (tuple.size() > page_size - DirEnd(d) - (live_bytes - old.size())) {
      return false;
    }
    Compact(d, page_size, rid.slot, &scratch_);
    PlaceInGap(d, rid.slot, tuple);
  }
  page.MarkDirty();
  return true;
}

Status HeapFile::Delete(const Rid& rid) {
  NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(rid.page));
  char* d = page.data();
  Slice old;
  NBLB_RETURN_NOT_OK(ReadTuple(d, bp_->page_size(), rid, &old));
  if (Live(d) == 0) {
    return Status::Corruption("heap page " + std::to_string(rid.page) +
                              " counts no live tuple");
  }
  StoreU16(Entry(d, rid.slot), 0);
  StoreU16(Entry(d, rid.slot) + 2, 0);
  StoreU16(d + 4, Live(d) - 1);
  page.MarkDirty();
  --tuple_count_;
  if (options_.reuse_free_slots) {
    pages_with_holes_.push_back(rid.page);
  }
  return Status::OK();
}

Status HeapFile::ForEach(
    const std::function<Status(const Rid&, const Slice&)>& fn) {
  const size_t page_size = bp_->page_size();
  for (PageId id : pages_) {
    NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(id));
    const char* d = page.data();
    NBLB_RETURN_NOT_OK(CheckHeader(d, page_size));
    for (size_t s = 0; s < SlotCount(d); ++s) {
      if (LoadU16(Entry(d, s)) == 0) continue;
      const Rid rid(id, static_cast<uint16_t>(s));
      Slice tuple;
      NBLB_RETURN_NOT_OK(FindTuple(d, page_size, rid, &tuple));
      NBLB_RETURN_NOT_OK(fn(rid, tuple));
    }
  }
  return Status::OK();
}

Result<HeapFileStats> HeapFile::ComputeStats() {
  const size_t page_size = bp_->page_size();
  HeapFileStats st;
  st.pages = pages_.size();
  st.capacity_bytes = pages_.size() * (page_size - kHeaderSize);
  for (PageId id : pages_) {
    NBLB_ASSIGN_OR_RETURN(PageGuard page, bp_->FetchPage(id));
    const char* d = page.data();
    NBLB_RETURN_NOT_OK(CheckHeader(d, page_size));
    NBLB_ASSIGN_OR_RETURN(size_t bytes, ScanDirectory(d, page_size, id));
    st.tuples += Live(d);
    st.used_bytes += bytes + Live(d) * kEntrySize;
  }
  return st;
}

}  // namespace nblb
