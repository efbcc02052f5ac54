#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace nblb {

namespace {

// Meta page layout (little endian):
//   [0]  u16 page_type (kPageTypeMeta)
//   [2]  u16 key_size
//   [4]  u16 leaf_payload_size
//   [6]  u16 cache_item_size
//   [8]  u32 root_page
//   [12] u32 first_leaf
//   [16] u64 num_entries
//   [24] u64 global_csn
//   [32] u64 magic
constexpr uint64_t kBTreeMetaMagic = 0x6e626c622d627472ull;  // "nblb-btr"

// Deepest descent a read path follows. Every internal node has at least two
// children, so 64 levels hold more keys than a u64 entry count; a longer
// walk can only be a child-pointer cycle in corrupt pages.
constexpr uint32_t kMaxHeight = 64;

std::string EncodeChild(PageId id) {
  std::string s(4, '\0');
  EncodeFixed32(s.data(), id);
  return s;
}

std::string EncodeValue(uint64_t v) {
  std::string s(8, '\0');
  EncodeFixed64(s.data(), v);
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / persistence
// ---------------------------------------------------------------------------

Result<std::unique_ptr<BTree>> BTree::Create(BufferPool* bp,
                                             BTreeOptions options) {
  if (options.key_size == 0) {
    return Status::InvalidArgument("key_size must be > 0");
  }
  if (options.leaf_payload_size != 8) {
    return Status::InvalidArgument("leaf payload must be 8 bytes");
  }
  std::unique_ptr<BTree> tree(new BTree(bp, options));

  NBLB_ASSIGN_OR_RETURN(PageGuard meta, bp->NewPage());
  tree->meta_page_id_ = meta.id();
  meta.MarkDirty();
  meta.Release();

  // Fresh root leaf.
  NBLB_ASSIGN_OR_RETURN(PageGuard rootp, bp->NewPage());
  BTreePageView::Init(rootp.data(), bp->page_size(), kPageTypeBTreeLeaf,
                      options.key_size, options.leaf_payload_size,
                      options.cache_item_size);
  rootp.MarkDirty();
  tree->root_ = rootp.id();
  tree->first_leaf_ = rootp.id();
  rootp.Release();

  NBLB_RETURN_NOT_OK(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<BTree>> BTree::Open(BufferPool* bp,
                                           PageId meta_page_id) {
  NBLB_ASSIGN_OR_RETURN(PageGuard meta, bp->FetchPage(meta_page_id));
  const char* d = meta.data();
  if (DecodeFixed16(d) != kPageTypeMeta ||
      DecodeFixed64(d + 32) != kBTreeMetaMagic) {
    return Status::Corruption("not a btree meta page");
  }
  BTreeOptions options;
  options.key_size = DecodeFixed16(d + 2);
  options.leaf_payload_size = DecodeFixed16(d + 4);
  options.cache_item_size = DecodeFixed16(d + 6);
  if (options.key_size == 0 || options.leaf_payload_size != 8) {
    return Status::Corruption("btree meta page has a bad key or payload size");
  }
  std::unique_ptr<BTree> tree(new BTree(bp, options));
  tree->meta_page_id_ = meta_page_id;
  tree->root_ = DecodeFixed32(d + 8);
  tree->first_leaf_ = DecodeFixed32(d + 12);
  tree->num_entries_ = DecodeFixed64(d + 16);
  tree->global_csn_.store(DecodeFixed64(d + 24), std::memory_order_relaxed);
  meta.Release();
  // Crash discipline (§2.1.2): any page cache persisted before the previous
  // shutdown is invalidated wholesale by bumping CSNidx.
  NBLB_RETURN_NOT_OK(tree->BumpGlobalCsn());
  return tree;
}

Status BTree::WriteMeta() {
  NBLB_ASSIGN_OR_RETURN(PageGuard meta, bp_->FetchPage(meta_page_id_));
  char* d = meta.data();
  EncodeFixed16(d + 0, kPageTypeMeta);
  EncodeFixed16(d + 2, options_.key_size);
  EncodeFixed16(d + 4, options_.leaf_payload_size);
  EncodeFixed16(d + 6, options_.cache_item_size);
  EncodeFixed32(d + 8, root_);
  EncodeFixed32(d + 12, first_leaf_);
  EncodeFixed64(d + 16, num_entries_);
  EncodeFixed64(d + 24, global_csn_.load(std::memory_order_relaxed));
  EncodeFixed64(d + 32, kBTreeMetaMagic);
  meta.MarkDirty();
  return Status::OK();
}

Status BTree::BumpGlobalCsn() {
  global_csn_.fetch_add(1, std::memory_order_relaxed);
  return WriteMeta();
}

size_t BTree::LeafCapacity() const {
  const size_t entry = options_.key_size + options_.leaf_payload_size;
  return (bp_->page_size() - kBTreeHeaderSize - kBTreeFooterSize) /
         (entry + kBTreeDirEntrySize);
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

Status BTree::ValidatePage(const char* data) const {
  return BTreePageView(const_cast<char*>(data), bp_->page_size())
      .Validate(options_.key_size, options_.leaf_payload_size,
                options_.cache_item_size);
}

Result<PageGuard> BTree::FetchValidated(PageId id) {
  NBLB_ASSIGN_OR_RETURN(PageGuard guard, bp_->FetchPage(id));
  NBLB_RETURN_NOT_OK(ValidatePage(guard.data()));
  return guard;
}

Result<PageId> BTree::DescendToLeaf(const Slice& key) {
  PageId id = root_;
  for (uint32_t depth = 0; depth < kMaxHeight; ++depth) {
    NBLB_ASSIGN_OR_RETURN(PageGuard guard, FetchValidated(id));
    BTreePageView view(guard.data(), bp_->page_size());
    if (view.IsLeaf()) return id;
    id = view.ChildFor(key);
    if (id == kInvalidPageId) {
      return Status::Corruption("internal node with invalid child");
    }
  }
  return Status::Corruption("btree descent deeper than any tree");
}

Result<PageGuard> BTree::FindLeaf(const Slice& key) {
  if (key.size() != options_.key_size) {
    return Status::InvalidArgument("key size mismatch");
  }
  // The descent validated the leaf. Structural changes are serialized by
  // the caller (see btree.h), so the fetch below sees the header and
  // directory it validated.
  NBLB_ASSIGN_OR_RETURN(PageId leaf_id, DescendToLeaf(key));
  return bp_->FetchPage(leaf_id);
}

Result<uint64_t> BTree::Get(const Slice& key) {
  NBLB_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key));
  BTreePageView view(leaf.data(), bp_->page_size());
  size_t pos;
  if (!view.FindExact(key, &pos)) {
    return Status::NotFound("key not found");
  }
  return view.ValueAt(pos);
}

Status BTree::GetBatch(const std::vector<Slice>& sorted_keys,
                       std::vector<Result<uint64_t>>* out) {
  out->reserve(out->size() + sorted_keys.size());
  PageGuard leaf;   // current leaf, shared across consecutive keys
  bool have_leaf = false;
  // Density heuristic: walk the sibling chain only while consecutive keys
  // keep resolving without a descent. A sparse batch (keys many leaves
  // apart) then pays exactly one descent per key — no speculative sibling
  // fetches polluting a near-capacity buffer pool — while a dense batch
  // (range-scan-like) streams along the chain and skips the inner levels.
  bool dense = false;

  for (const Slice& key : sorted_keys) {
    if (key.size() != options_.key_size) {
      out->push_back(Status::InvalidArgument("key size mismatch"));
      continue;
    }
    bool resolved_gap = false;
    bool descended = false;
    while (have_leaf) {
      BTreePageView view(leaf.data(), bp_->page_size());
      const size_t n = view.num_entries();
      if (n > 0 && key.Compare(view.KeyAt(n - 1)) <= 0) break;
      const PageId next = view.next();
      if (next == kInvalidPageId) {
        if (n > 0) break;  // past the last key in the tree -> NotFound here
        have_leaf = false;
        break;
      }
      if (!dense) {
        have_leaf = false;  // sparse so far; don't speculate, just descend
        break;
      }
      NBLB_ASSIGN_OR_RETURN(PageGuard g, FetchValidated(next));
      BTreePageView next_view(g.data(), bp_->page_size());
      if (!next_view.IsLeaf()) {
        return Status::Corruption("btree leaf chain reaches an internal node");
      }
      const size_t nn = next_view.num_entries();
      if (nn == 0) {
        have_leaf = false;  // lazy-deleted empty leaf; just descend
        break;
      }
      if (key.Compare(next_view.KeyAt(0)) < 0) {
        // Keys are globally ordered across the chain: past the current
        // leaf's last entry but before the sibling's first -> nowhere.
        // Advance to the sibling anyway: later batch keys in the same gap
        // then miss inside it directly instead of re-fetching it per key.
        leaf = std::move(g);
        resolved_gap = true;
        break;
      }
      if (key.Compare(next_view.KeyAt(nn - 1)) > 0) {
        have_leaf = false;  // far away; a fresh descent is cheaper
        break;
      }
      leaf = std::move(g);  // the key is inside this sibling
    }
    if (resolved_gap) {
      out->push_back(Status::NotFound("key not found"));
      dense = true;  // resolved with at most one sibling fetch
      continue;
    }
    if (!have_leaf) {
      NBLB_ASSIGN_OR_RETURN(PageGuard g, FindLeaf(key));
      leaf = std::move(g);
      have_leaf = true;
      descended = true;
    }
    dense = !descended;
    BTreePageView view(leaf.data(), bp_->page_size());
    size_t pos;
    if (view.FindExact(key, &pos)) {
      out->push_back(view.ValueAt(pos));
    } else {
      out->push_back(Status::NotFound("key not found"));
    }
  }
  return Status::OK();
}

Status BTree::SetValue(const Slice& key, uint64_t value) {
  NBLB_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key));
  BTreePageView view(leaf.data(), bp_->page_size());
  size_t pos;
  if (!view.FindExact(key, &pos)) {
    return Status::NotFound("key not found");
  }
  std::string payload = EncodeValue(value);
  view.SetPayloadAt(pos, Slice(payload));
  leaf.MarkDirty();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

Status BTree::Insert(const Slice& key, uint64_t value) {
  if (key.size() != options_.key_size) {
    return Status::InvalidArgument("key size mismatch");
  }
  std::string payload = EncodeValue(value);
  SplitResult split;
  NBLB_RETURN_NOT_OK(InsertRec(root_, key, Slice(payload), &split));
  if (split.happened) {
    // Grow a new root above the old one.
    NBLB_ASSIGN_OR_RETURN(PageGuard rootp, bp_->NewPage());
    BTreePageView root_view(rootp.data(), bp_->page_size());
    BTreePageView::Init(rootp.data(), bp_->page_size(), kPageTypeBTreeInternal,
                        options_.key_size, /*payload_size=*/4,
                        /*cache_item_size=*/0);
    root_view.set_leftmost_child(root_);
    NBLB_RETURN_NOT_OK(root_view.InsertEntry(Slice(split.sep_key),
                                             Slice(EncodeChild(split.right_id))));
    rootp.MarkDirty();
    root_ = rootp.id();
  }
  ++num_entries_;
  return WriteMeta();
}

Status BTree::InsertRec(PageId node_id, const Slice& key, const Slice& payload,
                        SplitResult* split) {
  NBLB_ASSIGN_OR_RETURN(PageGuard guard, bp_->FetchPage(node_id));
  NBLB_RETURN_NOT_OK(ValidatePage(guard.data()));
  BTreePageView view(guard.data(), bp_->page_size());

  if (view.IsLeaf()) {
    size_t pos;
    if (view.FindExact(key, &pos)) {
      return Status::AlreadyExists("duplicate key");
    }
    if (view.HasRoom()) {
      NBLB_RETURN_NOT_OK(view.InsertEntry(key, payload));
      guard.MarkDirty();
      return Status::OK();
    }
    return SplitLeaf(&view, &guard, key, payload, split);
  }

  // Internal node.
  const PageId child = view.ChildFor(key);
  SplitResult child_split;
  NBLB_RETURN_NOT_OK(InsertRec(child, key, payload, &child_split));
  if (!child_split.happened) return Status::OK();

  const std::string right = EncodeChild(child_split.right_id);
  if (view.HasRoom()) {
    NBLB_RETURN_NOT_OK(
        view.InsertEntry(Slice(child_split.sep_key), Slice(right)));
    guard.MarkDirty();
    return Status::OK();
  }
  Status st = SplitInternal(&view, Slice(child_split.sep_key),
                            child_split.right_id, split);
  guard.MarkDirty();
  return st;
}

Status BTree::SplitLeaf(BTreePageView* leaf, PageGuard* leaf_guard,
                        const Slice& key, const Slice& payload,
                        SplitResult* split) {
  NBLB_ASSIGN_OR_RETURN(PageGuard rightg, bp_->NewPage());
  BTreePageView right(rightg.data(), bp_->page_size());
  BTreePageView::Init(rightg.data(), bp_->page_size(), kPageTypeBTreeLeaf,
                      options_.key_size, options_.leaf_payload_size,
                      options_.cache_item_size);

  // Fix the sibling chain: left <-> right <-> old_next.
  const PageId old_next = leaf->next();
  right.set_next(old_next);
  right.set_prev(leaf_guard->id());
  leaf->set_next(rightg.id());
  if (old_next != kInvalidPageId) {
    NBLB_ASSIGN_OR_RETURN(PageGuard nextg, bp_->FetchPage(old_next));
    NBLB_RETURN_NOT_OK(ValidatePage(nextg.data()));
    BTreePageView next_view(nextg.data(), bp_->page_size());
    next_view.set_prev(rightg.id());
    nextg.MarkDirty();
  }

  const size_t n = leaf->num_entries();
  if (options_.cache_item_size == 0 && old_next == kInvalidPageId &&
      key.Compare(leaf->KeyAt(n - 1)) > 0) {
    // An appended key: the full leaf stays full, the key starts a new one.
    NBLB_RETURN_NOT_OK(right.InsertEntry(key, payload));
  } else {
    std::vector<std::pair<std::string, std::string>> entries;
    leaf->ExportSorted(&entries);
    const size_t mid = std::min(std::max<size_t>(n / 2, 1), n - 1);
    std::vector<std::pair<std::string, std::string>> left_half(
        entries.begin(), entries.begin() + static_cast<long>(mid));
    std::vector<std::pair<std::string, std::string>> right_half(
        entries.begin() + static_cast<long>(mid), entries.end());
    NBLB_RETURN_NOT_OK(right.RebuildFromSorted(right_half));
    NBLB_RETURN_NOT_OK(leaf->RebuildFromSorted(left_half));
    // Route the pending entry to the correct half.
    if (key.Compare(Slice(right_half.front().first)) < 0) {
      NBLB_RETURN_NOT_OK(leaf->InsertEntry(key, payload));
    } else {
      NBLB_RETURN_NOT_OK(right.InsertEntry(key, payload));
    }
  }

  rightg.MarkDirty();
  leaf_guard->MarkDirty();
  split->happened = true;
  split->sep_key = right.KeyAt(0).ToString();
  split->right_id = rightg.id();
  return Status::OK();
}

Status BTree::SplitInternal(BTreePageView* node, const Slice& sep,
                            PageId right_child, SplitResult* split) {
  // Merge the pending (sep, right_child) into the sorted entry list, then
  // split around the middle key, which moves up to the parent.
  std::vector<std::pair<std::string, std::string>> entries;
  node->ExportSorted(&entries);
  auto it = std::lower_bound(
      entries.begin(), entries.end(), sep,
      [](const auto& e, const Slice& k) { return Slice(e.first).Compare(k) < 0; });
  entries.insert(it, {sep.ToString(), EncodeChild(right_child)});

  const size_t n = entries.size();
  const size_t mid = n / 2;

  NBLB_ASSIGN_OR_RETURN(PageGuard rightg, bp_->NewPage());
  BTreePageView right(rightg.data(), bp_->page_size());
  BTreePageView::Init(rightg.data(), bp_->page_size(), kPageTypeBTreeInternal,
                      options_.key_size, /*payload_size=*/4,
                      /*cache_item_size=*/0);

  // entries[mid] is promoted: its child becomes the right node's leftmost.
  right.set_leftmost_child(DecodeFixed32(entries[mid].second.data()));
  std::vector<std::pair<std::string, std::string>> right_half(
      entries.begin() + static_cast<long>(mid) + 1, entries.end());
  std::vector<std::pair<std::string, std::string>> left_half(
      entries.begin(), entries.begin() + static_cast<long>(mid));
  NBLB_RETURN_NOT_OK(right.RebuildFromSorted(right_half));
  const PageId leftmost = node->leftmost_child();
  NBLB_RETURN_NOT_OK(node->RebuildFromSorted(left_half));
  node->set_leftmost_child(leftmost);

  rightg.MarkDirty();
  split->happened = true;
  split->sep_key = entries[mid].first;
  split->right_id = rightg.id();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

Status BTree::Delete(const Slice& key) {
  if (key.size() != options_.key_size) {
    return Status::InvalidArgument("key size mismatch");
  }
  NBLB_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key));
  BTreePageView view(leaf.data(), bp_->page_size());
  size_t pos;
  if (!view.FindExact(key, &pos)) {
    return Status::NotFound("key not found");
  }
  NBLB_RETURN_NOT_OK(view.RemoveEntryAt(pos));
  leaf.MarkDirty();
  leaf.Release();
  --num_entries_;
  return WriteMeta();
}

// ---------------------------------------------------------------------------
// Iteration
// ---------------------------------------------------------------------------

Slice BTreeIterator::key() const {
  NBLB_DCHECK(valid_);
  BTreePageView view(const_cast<char*>(leaf_.data()),
                     tree_->buffer_pool()->page_size());
  return view.KeyAt(pos_);
}

uint64_t BTreeIterator::value() const {
  NBLB_DCHECK(valid_);
  BTreePageView view(const_cast<char*>(leaf_.data()),
                     tree_->buffer_pool()->page_size());
  return view.ValueAt(pos_);
}

Status BTreeIterator::SkipEmptyLeaves() {
  // A chain longer than the file has pages can only be a sibling cycle in
  // corrupt pages.
  const PageId max_hops = tree_->buffer_pool()->disk()->num_pages();
  for (PageId hops = 0;; ++hops) {
    BTreePageView view(const_cast<char*>(leaf_.data()),
                       tree_->buffer_pool()->page_size());
    if (pos_ < view.num_entries()) {
      valid_ = true;
      return Status::OK();
    }
    const PageId next = view.next();
    if (next == kInvalidPageId) {
      valid_ = false;
      leaf_.Release();
      return Status::OK();
    }
    if (hops == max_hops) return Status::Corruption("btree leaf chain cycle");
    NBLB_ASSIGN_OR_RETURN(PageGuard g, tree_->FetchValidated(next));
    if (!BTreePageView(g.data(), tree_->buffer_pool()->page_size())
             .IsLeaf()) {
      return Status::Corruption("btree leaf chain reaches an internal node");
    }
    leaf_ = std::move(g);
    pos_ = 0;
  }
}

Status BTreeIterator::Next() {
  NBLB_DCHECK(valid_);
  ++pos_;
  return SkipEmptyLeaves();
}

Result<BTreeIterator> BTree::Seek(const Slice& key) {
  NBLB_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key));
  BTreePageView view(leaf.data(), bp_->page_size());
  BTreeIterator it;
  it.tree_ = this;
  it.pos_ = view.LowerBound(key);
  it.leaf_ = std::move(leaf);
  NBLB_RETURN_NOT_OK(it.SkipEmptyLeaves());
  return it;
}

Result<BTreeIterator> BTree::SeekToFirst() {
  NBLB_ASSIGN_OR_RETURN(PageGuard leaf, FetchValidated(first_leaf_));
  if (!BTreePageView(leaf.data(), bp_->page_size()).IsLeaf()) {
    return Status::Corruption("btree first leaf is an internal node");
  }
  BTreeIterator it;
  it.tree_ = this;
  it.pos_ = 0;
  it.leaf_ = std::move(leaf);
  NBLB_RETURN_NOT_OK(it.SkipEmptyLeaves());
  return it;
}

// ---------------------------------------------------------------------------
// Bulk load
// ---------------------------------------------------------------------------

Status BTree::BulkLoad(
    const std::vector<std::pair<std::string, uint64_t>>& sorted,
    double fill_fraction) {
  if (num_entries_ != 0) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  if (fill_fraction <= 0 || fill_fraction > 1) {
    return Status::InvalidArgument("fill_fraction must be in (0,1]");
  }
  if (sorted.empty()) return Status::OK();

  const size_t leaf_cap = LeafCapacity();
  const size_t per_leaf =
      std::max<size_t>(1, static_cast<size_t>(leaf_cap * fill_fraction));

  // Level 0: pack leaves left to right, reusing the existing root leaf first.
  struct NodeRef {
    std::string first_key;
    PageId id;
  };
  std::vector<NodeRef> level;
  size_t i = 0;
  PageId prev_leaf = kInvalidPageId;
  while (i < sorted.size()) {
    PageGuard g;
    if (level.empty()) {
      NBLB_ASSIGN_OR_RETURN(PageGuard first, bp_->FetchPage(first_leaf_));
      g = std::move(first);
    } else {
      NBLB_ASSIGN_OR_RETURN(PageGuard fresh, bp_->NewPage());
      g = std::move(fresh);
    }
    BTreePageView view(g.data(), bp_->page_size());
    BTreePageView::Init(g.data(), bp_->page_size(), kPageTypeBTreeLeaf,
                        options_.key_size, options_.leaf_payload_size,
                        options_.cache_item_size);
    const size_t end = std::min(i + per_leaf, sorted.size());
    for (; i < end; ++i) {
      const auto& [k, v] = sorted[i];
      if (k.size() != options_.key_size) {
        return Status::InvalidArgument("bulk key size mismatch");
      }
      NBLB_RETURN_NOT_OK(view.AppendEntry(Slice(k), Slice(EncodeValue(v))));
    }
    view.set_prev(prev_leaf);
    if (prev_leaf != kInvalidPageId) {
      NBLB_ASSIGN_OR_RETURN(PageGuard pg, bp_->FetchPage(prev_leaf));
      BTreePageView pv(pg.data(), bp_->page_size());
      pv.set_next(g.id());
      pg.MarkDirty();
    }
    g.MarkDirty();
    level.push_back({view.KeyAt(0).ToString(), g.id()});
    prev_leaf = g.id();
  }
  first_leaf_ = level.front().id;

  // Build internal levels until a single node remains.
  const size_t int_entry = options_.key_size + 4u;
  const size_t int_cap = (bp_->page_size() - kBTreeHeaderSize -
                          kBTreeFooterSize) /
                         (int_entry + kBTreeDirEntrySize);
  const size_t per_int =
      std::max<size_t>(2, static_cast<size_t>(int_cap * fill_fraction));
  while (level.size() > 1) {
    std::vector<NodeRef> parent_level;
    size_t j = 0;
    while (j < level.size()) {
      NBLB_ASSIGN_OR_RETURN(PageGuard g, bp_->NewPage());
      BTreePageView view(g.data(), bp_->page_size());
      BTreePageView::Init(g.data(), bp_->page_size(), kPageTypeBTreeInternal,
                          options_.key_size, /*payload_size=*/4, 0);
      // One node consumes up to per_int+1 children: the first becomes the
      // leftmost child, the rest become (first_key, child) entries.
      const size_t end = std::min(j + per_int + 1, level.size());
      view.set_leftmost_child(level[j].id);
      const std::string group_first_key = level[j].first_key;
      for (size_t c = j + 1; c < end; ++c) {
        NBLB_RETURN_NOT_OK(view.AppendEntry(
            Slice(level[c].first_key), Slice(EncodeChild(level[c].id))));
      }
      g.MarkDirty();
      parent_level.push_back({group_first_key, g.id()});
      j = end;
    }
    level = std::move(parent_level);
  }
  root_ = level.front().id;
  num_entries_ = sorted.size();
  return WriteMeta();
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

Result<BTreeStats> BTree::ComputeStats() {
  BTreeStats st;
  st.entries = num_entries_;

  // Height + internal page count by walking down the leftmost spine and
  // counting internal nodes breadth-first.
  std::vector<PageId> frontier = {root_};
  uint32_t height = 1;
  for (;;) {
    NBLB_ASSIGN_OR_RETURN(PageGuard g, FetchValidated(frontier.front()));
    BTreePageView view(g.data(), bp_->page_size());
    if (view.IsLeaf()) break;
    if (height == kMaxHeight) {
      return Status::Corruption("btree deeper than any tree");
    }
    ++height;
    std::vector<PageId> next_frontier;
    for (PageId id : frontier) {
      NBLB_ASSIGN_OR_RETURN(PageGuard ig, FetchValidated(id));
      BTreePageView iv(ig.data(), bp_->page_size());
      ++st.internal_pages;
      next_frontier.push_back(iv.leftmost_child());
      for (size_t e = 0; e < iv.num_entries(); ++e) {
        next_frontier.push_back(iv.ChildAt(e));
      }
      if (next_frontier.size() > bp_->disk()->num_pages()) {
        return Status::Corruption("btree level larger than the file");
      }
    }
    frontier = std::move(next_frontier);
  }
  st.height = height;

  // Leaf statistics via the sibling chain.
  double fill_sum = 0;
  for (PageId id = first_leaf_; id != kInvalidPageId;) {
    if (st.leaf_pages == bp_->disk()->num_pages()) {
      return Status::Corruption("btree leaf chain cycle");
    }
    NBLB_ASSIGN_OR_RETURN(PageGuard g, FetchValidated(id));
    BTreePageView view(g.data(), bp_->page_size());
    ++st.leaf_pages;
    fill_sum += static_cast<double>(view.UsedBytes()) /
                static_cast<double>(view.UsableBytes());
    st.leaf_free_bytes += view.FreeBytes();
    id = view.next();
  }
  if (st.leaf_pages > 0) {
    st.avg_leaf_fill = fill_sum / static_cast<double>(st.leaf_pages);
  }
  return st;
}

}  // namespace nblb
