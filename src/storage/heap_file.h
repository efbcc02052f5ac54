// HeapFile: variable-width tuple storage in slotted pages over a page chain.
//
// A tuple is stored as exactly the bytes it is given (the table stores a
// row's trimmed image, RowCodec::EncodeTrimmed), so a page holds as many
// tuples as their bytes allow: no bits left behind for VARCHAR padding.
// Each page keeps a slot directory of (offset, length) pairs growing up from
// its header and the tuple bytes growing down from its end; a rid is
// (page, slot) and stays valid while the tuple lives.
//
// Insertion is append-to-last-page by default — exactly the "append to
// table" placement the paper blames for locality waste (§3.1): deleting a
// tuple leaves a hole that is NOT reused unless `reuse_free_slots` is set,
// so hot/cold clustering by delete-then-append behaves like the paper
// describes. Update rewrites a tuple in place when the new bytes fit its
// page and reports when they do not; the caller then moves the tuple
// (Append + Delete), see Table::UpdateByKey.
//
// Every read checks the page header and the slot against the page (the
// tuple must lie between the free-space boundary and the page end) and
// reports Corruption otherwise: heap pages carry no checksum, so these
// checks and RowCodec::Decode are what stand between damaged bytes on disk
// and a read outside the page.
//
// One thread drives a heap file and every other structure over its pool
// (see storage/buffer_pool.h): a fetch that finds every frame pinned fails
// ResourceExhausted at once, since only the caller's own pins can fill it.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/buffer_pool.h"
#include "storage/rid.h"

namespace nblb {

/// \brief Placement policy knobs for a heap file.
struct HeapFileOptions {
  /// When true, Insert fills holes left by Delete before extending the file.
  bool reuse_free_slots = false;
};

/// \brief Occupancy summary across all pages of a heap file, in bytes.
struct HeapFileStats {
  uint64_t pages = 0;
  uint64_t tuples = 0;
  /// Bytes the pages offer tuples and their slot entries (page size minus
  /// the page header, per page).
  uint64_t capacity_bytes = 0;
  /// Bytes live tuples use: their bytes plus one slot entry each.
  uint64_t used_bytes = 0;

  /// Fraction of the pages' bytes holding live tuples.
  double Utilization() const {
    return capacity_bytes == 0
               ? 0.0
               : static_cast<double>(used_bytes) /
                     static_cast<double>(capacity_bytes);
  }
};

/// \brief Variable-width tuple heap. Not thread safe; callers serialize.
class HeapFile {
 public:
  /// Bytes of the page header.
  static constexpr size_t kPageHeaderSize = 16;
  /// Bytes of one slot-directory entry (u16 offset, u16 length).
  static constexpr size_t kSlotEntrySize = 4;

  /// \brief Creates a new heap file (allocates its first page).
  static Result<std::unique_ptr<HeapFile>> Create(BufferPool* bp,
                                                  HeapFileOptions options = {});

  /// \brief Re-attaches to an existing heap file by its first page id,
  /// walking the page chain to rebuild the in-memory directory. A page that
  /// is not a heap page or whose header does not fit the page is
  /// Corruption.
  static Result<std::unique_ptr<HeapFile>> Attach(BufferPool* bp,
                                                  PageId first_page,
                                                  HeapFileOptions options = {});

  /// \brief Crash-recovery attach: walks the chain like Attach but treats a
  /// bad link (a page that is not a heap page, a next pointer past the end
  /// of the file, or a cycle) as the end of the heap instead of an error —
  /// the tail page's link may never have been flushed before the crash.
  /// The last good page's next pointer is repaired to kInvalidPageId (and
  /// marked dirty) so the chain is consistent again. A heap page whose
  /// header does not fit the page is still Corruption. Only valid after the
  /// WAL replay path re-applies lost tail inserts.
  static Result<std::unique_ptr<HeapFile>> AttachTolerant(
      BufferPool* bp, PageId first_page, HeapFileOptions options = {});

  /// \brief Largest tuple a page of `page_size` bytes can hold.
  static size_t MaxTupleSize(size_t page_size) {
    return page_size - kPageHeaderSize - kSlotEntrySize;
  }

  /// \brief Inserts a tuple: into a page with a hole first when
  /// `reuse_free_slots` is set, else as Append does. InvalidArgument if it
  /// is longer than MaxTupleSize.
  Result<Rid> Insert(const Slice& tuple);

  /// \brief Inserts a tuple on the last page, extending the chain when it
  /// does not fit there; never fills holes on earlier pages, whatever the
  /// placement policy. So a tuple appended later is later in chain order.
  Result<Rid> Append(const Slice& tuple);

  /// \brief Copies the tuple at `rid` into `out`.
  Status Get(const Rid& rid, std::string* out);

  /// \brief Receives one tuple of a batched read (GetBatch): its index into
  /// the rids, its status, and its bytes (empty unless the status is OK).
  using TupleFn =
      std::function<void(size_t index, const Status& status, const Slice& tuple)>;

  /// \brief Batched point reads: fetches the distinct pages of `rids`
  /// through chunked, pipelined BufferPool batch fetches (each chunk's
  /// misses are one overlapped async read group, and the next chunk's
  /// reads are submitted before the current chunk's tuples are handed
  /// out), then calls fn once per rid while its page is pinned, chunk by
  /// chunk rather than in rid order. The tuple's bytes point into the page
  /// and live only until fn returns; fn must fetch no page (it runs with a
  /// chunk pinned and the next one loading). A missing tuple reaches fn as
  /// NotFound without failing the call. The returned Status covers
  /// infrastructure failures only; after one, some rids got no call. When
  /// the caller's own pins leave no room, the chunks halve down to one
  /// page and then the call fails ResourceExhausted.
  Status GetBatch(const std::vector<Rid>& rids, const TupleFn& fn);

  /// \brief Replaces the tuple at `rid` without moving it: over its old
  /// bytes when the new tuple is no longer, else in the page's free space
  /// (compacting the page if its dead bytes make the room). Returns false,
  /// with nothing written, when the page cannot hold the new tuple; the
  /// caller then moves it (Append, then Delete the old rid).
  Result<bool> Update(const Rid& rid, const Slice& tuple);

  /// \brief Removes the tuple at `rid` (slot becomes a hole).
  Status Delete(const Rid& rid);

  /// \brief Calls fn(rid, bytes) for every live tuple in page-chain order.
  /// Stops early and propagates if fn returns a non-OK status.
  Status ForEach(const std::function<Status(const Rid&, const Slice&)>& fn);

  /// \brief Live-tuple count.
  uint64_t tuple_count() const { return tuple_count_; }
  PageId first_page_id() const { return pages_.front(); }
  const std::vector<PageId>& pages() const { return pages_; }

  /// \brief Walks all pages and reports byte occupancy (the §3.1 "2%
  /// utilization" measurement).
  Result<HeapFileStats> ComputeStats();

 private:
  HeapFile(BufferPool* bp, HeapFileOptions options);

  static Result<std::unique_ptr<HeapFile>> Walk(BufferPool* bp,
                                                PageId first_page,
                                                HeapFileOptions options,
                                                bool tolerant);
  Status AppendPage();
  /// Places `tuple` on the pinned page `page` (a free slot if there is one,
  /// else a new slot), compacting the page if that makes the room. Returns
  /// false, with nothing written, when it does not fit.
  Result<bool> PlaceOnPage(PageGuard* page, const Slice& tuple, Rid* rid);

  BufferPool* bp_;
  HeapFileOptions options_;
  std::vector<PageId> pages_;
  std::vector<PageId> pages_with_holes_;  // only used when reuse_free_slots
  uint64_t tuple_count_ = 0;
  std::string scratch_;  // page copy for compaction
  // GetBatch's buffers, reused across calls: the batch's distinct pages,
  // the chunk being started, and the guards of the chunk being read and of
  // the one prefetched behind it (empty between calls).
  std::vector<PageId> batch_pages_;
  std::vector<PageId> chunk_pages_;
  std::vector<PageGuard> guards_[2];
};

}  // namespace nblb
