// Table: heap file + primary B+Tree index + in-page index cache, glued by
// the row/key codecs. This is the integration point where the paper's §2.1
// read path lives:
//
//   lookup(key, projection):
//     leaf = index.FindLeaf(key); tid = leaf[key]
//     if projection ⊆ key ∪ cached fields and cache hit on tid:
//         answer straight from the index page          <- no heap access
//     else:
//         row = heap[tid]; cache.Populate(leaf, tid, cached fields)
//
// Updates append invalidation predicates (§2.1.2) before touching the heap.
//
// The heap stores each row as its trimmed image (RowCodec::EncodeTrimmed:
// every VARCHAR cut to the bytes it uses), the same bytes the WAL logs for a
// put, so a page holds as many rows as their bytes allow. An update that
// grows a row past what its page can hold moves the row: the new image is
// appended at the heap's tail and the index repointed, so the younger copy
// is always later in chain order (the rule AttachRebuild resolves
// duplicates by).

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/index_cache.h"
#include "catalog/key_codec.h"
#include "catalog/row_codec.h"
#include "catalog/schema.h"
#include "common/result.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"

namespace nblb {

/// \brief Per-table configuration.
struct TableOptions {
  /// Schema column indexes forming the primary key (significance order).
  std::vector<size_t> key_columns;
  /// Columns replicated into the index cache (must be disjoint from key
  /// columns to be useful; stable, rarely updated fields per §2.1.4).
  std::vector<size_t> cached_columns;
  /// Enable the in-page index cache.
  bool enable_index_cache = true;
  /// Reuse heap holes left by deletes (default off: append-to-table).
  bool reuse_free_slots = false;
  /// Index cache tuning.
  IndexCacheOptions cache_options;
};

/// \brief Read-path counters distinguishing the paper's three regimes.
struct TableStats {
  uint64_t lookups = 0;
  uint64_t answered_from_cache = 0;  ///< no heap access at all
  uint64_t heap_fetches = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t moves = 0;  ///< updates too big for their page (new rid)
  uint64_t deletes = 0;
};

/// \brief Where a batched get puts one key's answer (Table::GetBatchEncoded):
/// a Row, or, when `images` is set, an image destination.
struct RowSlot {
  Status* status;       ///< OK, NotFound, or the key's error
  Row* row = nullptr;   ///< the decoded row when *status is OK, else empty
  /// Image destination: the tuple, checked as DecodeInto checks it, is
  /// appended to *images and placed by *image (present only when OK).
  std::string* images = nullptr;
  ImageSpan* image = nullptr;

  /// Answers the key with a failure and no row or image.
  void Fail(const Status& s) const {
    *status = s;
    if (row != nullptr) row->clear();
    if (image != nullptr) image->present = false;
  }
};

/// \brief A table with one primary index. Not thread safe for structural
/// mutations; see BTree concurrency notes. The batched get reuses member
/// scratch, so it serves one caller at a time (a shard's Table has one
/// thread).
class Table {
 public:
  /// \brief Creates the backing heap + index inside `bp`'s file.
  static Result<std::unique_ptr<Table>> Create(BufferPool* bp, Schema schema,
                                               TableOptions options);

  /// \brief Reattaches to existing structures after a clean shutdown: walks
  /// the heap chain from `heap_first_page` and opens the B+Tree at
  /// `btree_meta_page`. Both roots come from the superblock.
  static Result<std::unique_ptr<Table>> Attach(BufferPool* bp, Schema schema,
                                               TableOptions options,
                                               PageId heap_first_page,
                                               PageId btree_meta_page);

  /// \brief Crash-recovery attach: tolerant heap walk (a torn tail link
  /// ends the chain) plus a FRESH index rebuilt by scanning the heap. The
  /// on-disk index is untrusted after a crash — the flusher persists
  /// arbitrary page subsets, so a half-persisted split can dangle — and a
  /// heap scan is ground truth. If post-checkpoint churn left two live
  /// tuples for one key (delete unflushed + reinsert flushed), the later
  /// tuple in chain order wins and the older one is heap-deleted; the WAL
  /// replay that follows re-applies the authoritative values either way.
  /// Old index pages are leaked as dead space (vacuum is future work).
  static Result<std::unique_ptr<Table>> AttachRebuild(BufferPool* bp,
                                                      Schema schema,
                                                      TableOptions options,
                                                      PageId heap_first_page);

  // ---- Write path --------------------------------------------------------

  /// \brief Inserts a full row; fails AlreadyExists on a duplicate key.
  Status Insert(const Row& row);

  /// \brief Idempotent put: Insert, falling back to UpdateByKey when the
  /// key already exists. WAL replay applies records through this.
  Status UpsertByKey(const Row& row);

  /// \brief Replaces the non-key columns of the row with key `key_values`.
  /// Logs an invalidation predicate so no cache serves the old version.
  /// The row keeps its rid when its new image fits its page; otherwise it
  /// moves to the heap's tail (HeapFile::Append) and the index follows.
  /// The slot a move leaves is freed at once, unless `moved_from` is set:
  /// then it stays live and its rid lands there (invalid when the row did
  /// not move), for the caller to HeapFile::Delete once the update is
  /// durable. Until then a crash keeps a copy of the row on disk whatever
  /// pages the pool wrote back (see Shard::CommitWal).
  Status UpdateByKey(const std::vector<Value>& key_values, const Row& new_row,
                     Rid* moved_from = nullptr);

  /// \brief Deletes by key (index entry, heap tuple, cache predicate).
  Status DeleteByKey(const std::vector<Value>& key_values);

  // ---- Read path ---------------------------------------------------------

  /// \brief Full-row point lookup through the index (heap access).
  Result<Row> GetByKey(const std::vector<Value>& key_values);

  /// \brief The batched-get core. Looks up `n` encoded keys, key_size()
  /// bytes each and back to back at `keys`, and answers key i in slots[i]:
  /// its row is decoded from the pinned heap page straight into
  /// *slots[i].row (or, for an image destination, its stored bytes are
  /// checked and appended under the pin), and *slots[i].status is set to
  /// OK, NotFound or the key's error. Keys are sorted internally so the
  /// B+Tree descent is shared across the batch (BTree::GetBatch) and the
  /// heap tuples are read with one batched page fetch (HeapFile::GetBatch
  /// -> vectored miss I/O). The returned Status covers infrastructure
  /// failures only; after one, some slots are unset.
  Status GetBatchEncoded(const char* keys, size_t n, const RowSlot* slots);

  /// \brief GetBatchEncoded, pushing one Result per key onto `out`, in
  /// input order (nothing on an infrastructure failure).
  Status GetBatchEncoded(const char* keys, size_t n,
                         std::vector<Result<Row>>* out);

  /// \brief Batched full-row point lookups by key values: GetBatchEncoded
  /// over the keys that encode, while a key that does not gets its encoding
  /// error. Pushes one Result per key onto `out`, in input order.
  Status GetBatchByKey(const std::vector<std::vector<Value>>& keys,
                       std::vector<Result<Row>>* out);

  /// \brief Projected point lookup; served from the index cache when the
  /// projection is covered by key ∪ cached columns and the item is cached.
  /// Returns values in `project_columns` order.
  Result<Row> LookupProjected(const std::vector<Value>& key_values,
                              const std::vector<size_t>& project_columns);

  /// \brief Physically relocates a tuple to the end of the heap
  /// (delete-then-append, §3.1) and repoints the index. Returns the new RID.
  Result<Rid> Relocate(const std::vector<Value>& key_values);

  /// \brief Scans all rows in heap order.
  Status ForEachRow(const std::function<Status(const Rid&, const Row&)>& fn);

  // ---- Introspection ------------------------------------------------------

  const Schema& schema() const { return schema_; }
  const TableOptions& options() const { return options_; }
  const TableStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TableStats{}; }

  HeapFile* heap() { return heap_.get(); }
  BTree* index() { return index_.get(); }
  /// nullptr when the index cache is disabled.
  IndexCache* cache() { return cache_.get(); }
  const KeyCodec& key_codec() const { return *key_codec_; }
  const RowCodec& row_codec() const { return *row_codec_; }
  /// \brief The trimmed image the last successful Insert, UpdateByKey or
  /// UpsertByKey stored; valid until the next write. A shard logs these
  /// bytes as the WAL put, so a put encodes its row once.
  Slice last_image() const { return Slice(image_); }
  BufferPool* buffer_pool() { return bp_; }

  /// \brief True if every column in `project_columns` is available from the
  /// index alone (key column or cached column).
  bool ProjectionCoveredByIndex(const std::vector<size_t>& project_columns) const;

 private:
  Table(BufferPool* bp, Schema schema, TableOptions options);

  /// Validation + codec wiring shared by Create/Attach/AttachRebuild (heap
  /// and index are filled in by the caller).
  static Result<std::unique_ptr<Table>> MakeShell(BufferPool* bp,
                                                  Schema schema,
                                                  TableOptions options);

  /// Options for a fresh index: the key width, and the cache geometry when
  /// the index cache is on.
  Result<BTreeOptions> NewIndexOptions() const;

  /// Writes `row` over the tuple `tid` that `key` indexes (UpdateByKey).
  Status Rewrite(const Slice& key, uint64_t tid, const Row& row,
                 Rid* moved_from);

  /// Builds the cache payload (cached columns, fixed width) from a full row.
  Result<std::string> BuildCachePayload(const Row& row) const;

  /// Assembles the projected result from key values + cached payload bytes
  /// (Corruption if the payload does not decode).
  Result<Row> AssembleFromIndex(
      const std::vector<Value>& key_values, const char* cache_payload,
      const std::vector<size_t>& project_columns) const;

  BufferPool* bp_;
  Schema schema_;
  TableOptions options_;
  Schema cache_schema_;  // projected schema of cached columns
  std::unique_ptr<RowCodec> row_codec_;
  std::unique_ptr<RowCodec> cache_codec_;
  std::unique_ptr<KeyCodec> key_codec_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<BTree> index_;
  std::unique_ptr<IndexCache> cache_;
  TableStats stats_;
  std::string image_;  ///< the write path's reused trimmed-image buffer

  /// GetBatchEncoded's scratch, reused across calls.
  struct BatchScratch {
    std::vector<uint32_t> order;         ///< key indexes in key order
    std::vector<Slice> sorted_keys;      ///< the keys in that order
    std::vector<Result<uint64_t>> tids;  ///< 1:1 with sorted_keys
    std::vector<Rid> rids;               ///< the found keys' tuples
    std::vector<uint32_t> rid_keys;      ///< key index of each rid
    std::vector<Status> statuses;        ///< the Result<Row> overload's
    std::vector<RowSlot> slots;          ///< the Result<Row> overload's
  };
  BatchScratch batch_;
};

}  // namespace nblb
