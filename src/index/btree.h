// BTree: a disk-backed B+Tree over fixed-width memcmp-ordered keys.
//
// Leaf payloads are 8-byte values (heap RIDs); internal payloads are 4-byte
// child page ids. Splits rebuild pages from sorted scratch (zeroing reclaimed
// bytes), deletes are lazy (no rebalancing — which is precisely how real
// trees drift to the 45% fill factors the paper measured on CarTel).
//
// A full leaf splits in half, except when the new key sorts after every key
// of the rightmost leaf of a tree without an index cache: then the full leaf
// stays as it is and a new rightmost leaf starts with the key (PostgreSQL's
// nbtree does the same for rightmost splits). So ascending keys, the common
// load, leave every leaf but the last full instead of half full. A tree
// with an index cache keeps the half split, because its leaves' free space
// is the cache (§2.1).
//
// The tree persists a meta page holding the root, the leaf-chain head, entry
// count and the index-wide cache sequence number CSNidx (§2.1.2). Open()
// bumps CSNidx so any cache bytes that happened to reach disk before a crash
// are invalid on restart.
//
// Concurrency: one thread drives a tree and every other structure over its
// pool (see storage/buffer_pool.h): a fetch that finds every frame pinned
// fails ResourceExhausted at once instead of waiting for another thread's
// pins to drop. In-page cache writes (cache::IndexCache) still take the
// frame's cache latch and give up when it is held (§2.1.3); with one
// thread per pool that is tested on one thread (index_cache_test's
// LatchGiveUpSkipsWork and common_test's LatchTest cases).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "index/btree_page.h"
#include "storage/buffer_pool.h"

namespace nblb {

/// \brief Construction-time options for a BTree.
struct BTreeOptions {
  /// Fixed key width in bytes (use KeyCodec::key_size()).
  uint16_t key_size = 8;
  /// Leaf payload width; 8 = packed RID.
  uint16_t leaf_payload_size = 8;
  /// Cache item width for the in-page index cache; 0 disables the cache
  /// geometry on leaves. Item = 8-byte tuple id + cached field bytes.
  uint16_t cache_item_size = 0;
};

/// \brief Shape/occupancy summary of a tree.
struct BTreeStats {
  uint32_t height = 0;  ///< 1 = root is a leaf
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;
  uint64_t entries = 0;
  /// Mean leaf fill factor: live (entry+dir) bytes over usable bytes. Random
  /// inserts settle near the canonical 68% (Yao), churn drives it lower.
  double avg_leaf_fill = 0;
  /// Total free bytes across leaves — the space the index cache recycles.
  uint64_t leaf_free_bytes = 0;
};

class BTree;

/// \brief Forward iterator over leaf entries in key order. Must not outlive
/// its tree.
class BTreeIterator {
 public:
  BTreeIterator() = default;

  bool Valid() const { return valid_; }
  /// Key bytes at the current position.
  Slice key() const;
  /// Leaf value (RID) at the current position.
  uint64_t value() const;
  /// Advances; Valid() goes false past the last entry.
  Status Next();

 private:
  friend class BTree;
  BTree* tree_ = nullptr;
  PageGuard leaf_;
  size_t pos_ = 0;
  bool valid_ = false;

  Status SkipEmptyLeaves();
};

/// \brief The B+Tree. Create() makes a fresh (empty) tree; Open() re-attaches
/// to an existing one by meta page id.
class BTree {
 public:
  static Result<std::unique_ptr<BTree>> Create(BufferPool* bp,
                                               BTreeOptions options);
  static Result<std::unique_ptr<BTree>> Open(BufferPool* bp,
                                             PageId meta_page_id);

  /// \brief Inserts key -> value; AlreadyExists on duplicates.
  Status Insert(const Slice& key, uint64_t value);

  /// \brief Point lookup.
  Result<uint64_t> Get(const Slice& key);

  /// \brief Batched point lookups over keys sorted ascending (duplicates
  /// allowed). Pushes one Result per key onto `out`, in input order.
  ///
  /// Walks the keys left to right and shares the pinned leaf across
  /// consecutive keys. While keys keep landing without a descent, it follows
  /// the leaf chain to the next sibling instead of descending again; a
  /// sparse batch pays one root-to-leaf descent per key and fetches no
  /// sibling on speculation. At most two pages are pinned at a time.
  /// Returns non-OK only on infrastructure failure (per-key NotFound lands
  /// in `out`).
  Status GetBatch(const std::vector<Slice>& sorted_keys,
                  std::vector<Result<uint64_t>>* out);

  /// \brief Overwrites the value of an existing key.
  Status SetValue(const Slice& key, uint64_t value);

  /// \brief Removes a key (lazy: pages never merge).
  Status Delete(const Slice& key);

  /// \brief Pinned leaf that would contain `key` (for index-cache access).
  Result<PageGuard> FindLeaf(const Slice& key);

  /// \brief Iterator at the first key >= `key`.
  Result<BTreeIterator> Seek(const Slice& key);
  /// \brief Iterator at the smallest key.
  Result<BTreeIterator> SeekToFirst();

  /// \brief Builds a fresh tree from sorted unique (key, value) pairs,
  /// packing each leaf to `fill_fraction` of capacity (the knob behind the
  /// paper's "68% full" index experiments). Tree must be empty.
  Status BulkLoad(const std::vector<std::pair<std::string, uint64_t>>& sorted,
                  double fill_fraction);

  /// \brief Walks the tree and reports shape/fill.
  Result<BTreeStats> ComputeStats();

  uint64_t num_entries() const { return num_entries_; }
  PageId meta_page_id() const { return meta_page_id_; }
  PageId root_page_id() const { return root_; }
  PageId first_leaf_id() const { return first_leaf_; }
  const BTreeOptions& options() const { return options_; }
  BufferPool* buffer_pool() { return bp_; }

  /// \brief Max entries per leaf page at this geometry.
  size_t LeafCapacity() const;

  /// \brief Index-wide cache sequence number CSNidx (§2.1.2). Relaxed load:
  /// CSNidx is a monotonic validity fence read concurrently with bumps; a
  /// stale read is indistinguishable from reading just before the bump, and
  /// the cache-page latching already orders the payload bytes it guards.
  uint64_t global_csn() const {
    return global_csn_.load(std::memory_order_relaxed);
  }
  /// \brief Bumps CSNidx — invalidates every page cache at once.
  Status BumpGlobalCsn();

  /// \brief Flushes the meta page (root/counters/CSNidx).
  Status WriteMeta();

 private:
  friend class BTreeIterator;

  BTree(BufferPool* bp, BTreeOptions options)
      : bp_(bp), options_(options) {}

  /// BTreePageView::Validate against this tree's key, payload and cache
  /// item sizes. Every path that reads a node runs it first.
  Status ValidatePage(const char* data) const;
  /// BufferPool::FetchPage followed by ValidatePage.
  Result<PageGuard> FetchValidated(PageId id);

  struct SplitResult {
    bool happened = false;
    std::string sep_key;
    PageId right_id = kInvalidPageId;
  };

  Status InsertRec(PageId node_id, const Slice& key, const Slice& payload,
                   SplitResult* split);
  Status SplitLeaf(BTreePageView* leaf, PageGuard* leaf_guard,
                   const Slice& key, const Slice& payload, SplitResult* split);
  Status SplitInternal(BTreePageView* node, const Slice& sep,
                       PageId right_child, SplitResult* split);
  Result<PageId> DescendToLeaf(const Slice& key);

  BufferPool* bp_;
  BTreeOptions options_;
  PageId meta_page_id_ = kInvalidPageId;
  PageId root_ = kInvalidPageId;
  PageId first_leaf_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  /// Atomic: readers poll it from cache probes while an invalidator bumps it
  /// (see global_csn() for the memory-ordering rationale).
  std::atomic<uint64_t> global_csn_{0};
};

}  // namespace nblb
