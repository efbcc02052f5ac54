#include "exec/table.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "index/btree_page.h"

namespace nblb {

Table::Table(BufferPool* bp, Schema schema, TableOptions options)
    : bp_(bp), schema_(std::move(schema)), options_(std::move(options)) {}

Result<std::unique_ptr<Table>> Table::Create(BufferPool* bp, Schema schema,
                                             TableOptions options) {
  NBLB_ASSIGN_OR_RETURN(auto t, MakeShell(bp, std::move(schema), options));
  NBLB_ASSIGN_OR_RETURN(
      t->heap_,
      HeapFile::Create(bp, HeapFileOptions{options.reuse_free_slots}));
  NBLB_ASSIGN_OR_RETURN(BTreeOptions bt, t->NewIndexOptions());
  NBLB_ASSIGN_OR_RETURN(t->index_, BTree::Create(bp, bt));
  if (bt.cache_item_size > 0) {
    t->cache_.reset(new IndexCache(t->index_.get(), options.cache_options));
  }
  return t;
}

Result<std::unique_ptr<Table>> Table::Attach(BufferPool* bp, Schema schema,
                                             TableOptions options,
                                             PageId heap_first_page,
                                             PageId btree_meta_page) {
  NBLB_ASSIGN_OR_RETURN(auto t, MakeShell(bp, std::move(schema), options));
  NBLB_ASSIGN_OR_RETURN(
      t->heap_, HeapFile::Attach(bp, heap_first_page,
                                 HeapFileOptions{options.reuse_free_slots}));
  NBLB_ASSIGN_OR_RETURN(auto index, BTree::Open(bp, btree_meta_page));
  if (index->options().key_size != t->key_codec_->key_size()) {
    return Status::Corruption("index key size does not match schema");
  }
  t->index_ = std::move(index);
  if (options.enable_index_cache && !options.cached_columns.empty()) {
    t->cache_.reset(new IndexCache(t->index_.get(), options.cache_options));
  }
  return t;
}

Result<std::unique_ptr<Table>> Table::AttachRebuild(BufferPool* bp,
                                                    Schema schema,
                                                    TableOptions options,
                                                    PageId heap_first_page) {
  NBLB_ASSIGN_OR_RETURN(auto t, MakeShell(bp, std::move(schema), options));
  NBLB_ASSIGN_OR_RETURN(
      t->heap_,
      HeapFile::AttachTolerant(bp, heap_first_page,
                               HeapFileOptions{options.reuse_free_slots}));
  NBLB_ASSIGN_OR_RETURN(BTreeOptions bt, t->NewIndexOptions());
  NBLB_ASSIGN_OR_RETURN(t->index_, BTree::Create(bp, bt));

  // Rebuild the index from the surviving heap tuples. Chain order is
  // insertion order under the default append-only placement, and a row
  // that outgrows its page moves to the tail, so on a duplicate key the
  // tuple seen later is the younger one: repoint the index at it and drop
  // the stale twin from the heap.
  std::vector<Rid> stale;
  Status walk = t->heap_->ForEach([&](const Rid& rid, const Slice& bytes) {
    NBLB_ASSIGN_OR_RETURN(Row row, t->row_codec_->Decode(bytes));
    NBLB_ASSIGN_OR_RETURN(std::string key, t->key_codec_->EncodeFromRow(row));
    Status st = t->index_->Insert(Slice(key), rid.ToU64());
    if (st.IsAlreadyExists()) {
      NBLB_ASSIGN_OR_RETURN(uint64_t old_tid, t->index_->Get(Slice(key)));
      stale.push_back(Rid::FromU64(old_tid));
      return t->index_->SetValue(Slice(key), rid.ToU64());
    }
    return st;
  });
  NBLB_RETURN_NOT_OK(walk);
  for (const Rid& old_rid : stale) {
    NBLB_RETURN_NOT_OK(t->heap_->Delete(old_rid));
  }

  if (bt.cache_item_size > 0) {
    t->cache_.reset(new IndexCache(t->index_.get(), options.cache_options));
  }
  return t;
}

Result<std::unique_ptr<Table>> Table::MakeShell(BufferPool* bp, Schema schema,
                                                TableOptions options) {
  if (options.key_columns.empty()) {
    return Status::InvalidArgument("table requires key columns");
  }
  for (size_t c : options.key_columns) {
    if (c >= schema.num_columns()) {
      return Status::InvalidArgument("key column out of range");
    }
  }
  for (size_t c : options.cached_columns) {
    if (c >= schema.num_columns()) {
      return Status::InvalidArgument("cached column out of range");
    }
  }
  if (schema.row_size() > HeapFile::MaxTupleSize(bp->page_size())) {
    return Status::InvalidArgument("row too wide for a heap page");
  }
  std::unique_ptr<Table> t(new Table(bp, std::move(schema), options));
  t->row_codec_.reset(new RowCodec(&t->schema_));
  t->key_codec_.reset(new KeyCodec(&t->schema_, options.key_columns));
  t->cache_schema_ = t->schema_.Project(options.cached_columns);
  t->cache_codec_.reset(new RowCodec(&t->cache_schema_));
  return t;
}

Result<BTreeOptions> Table::NewIndexOptions() const {
  BTreeOptions bt;
  bt.key_size = static_cast<uint16_t>(key_codec_->key_size());
  bt.leaf_payload_size = 8;
  if (options_.enable_index_cache && !options_.cached_columns.empty()) {
    const size_t item = 8 + cache_schema_.row_size();
    if (item > kMaxCacheItemSize) {
      return Status::InvalidArgument("cached columns too wide for cache item");
    }
    bt.cache_item_size = static_cast<uint16_t>(item);
  }
  return bt;
}

bool Table::ProjectionCoveredByIndex(
    const std::vector<size_t>& project_columns) const {
  for (size_t c : project_columns) {
    const bool in_key =
        std::find(options_.key_columns.begin(), options_.key_columns.end(),
                  c) != options_.key_columns.end();
    const bool in_cache =
        std::find(options_.cached_columns.begin(),
                  options_.cached_columns.end(), c) !=
        options_.cached_columns.end();
    if (!in_key && !in_cache) return false;
  }
  return true;
}

Result<std::string> Table::BuildCachePayload(const Row& row) const {
  Row projected;
  projected.reserve(options_.cached_columns.size());
  for (size_t c : options_.cached_columns) projected.push_back(row[c]);
  return cache_codec_->Encode(projected);
}

Result<Row> Table::AssembleFromIndex(
    const std::vector<Value>& key_values, const char* cache_payload,
    const std::vector<size_t>& project_columns) const {
  NBLB_ASSIGN_OR_RETURN(
      Row cached,
      cache_codec_->Decode(Slice(cache_payload, cache_schema_.row_size())));
  Row out;
  out.reserve(project_columns.size());
  for (size_t c : project_columns) {
    // Key column: take the caller-provided key value.
    auto kit = std::find(options_.key_columns.begin(),
                         options_.key_columns.end(), c);
    if (kit != options_.key_columns.end()) {
      out.push_back(
          key_values[static_cast<size_t>(kit - options_.key_columns.begin())]);
      continue;
    }
    // Cached column: take it from the decoded cache payload.
    auto cit = std::find(options_.cached_columns.begin(),
                         options_.cached_columns.end(), c);
    NBLB_CHECK(cit != options_.cached_columns.end());
    const size_t idx =
        static_cast<size_t>(cit - options_.cached_columns.begin());
    out.push_back(cached[idx]);
  }
  return out;
}

Status Table::Insert(const Row& row) {
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeFromRow(row));
  NBLB_RETURN_NOT_OK(row_codec_->EncodeTrimmed(row, &image_));
  NBLB_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(Slice(image_)));
  Status st = index_->Insert(Slice(key), rid.ToU64());
  if (!st.ok()) {
    // Roll the heap insert back so the table stays consistent.
    (void)heap_->Delete(rid);
    return st;
  }
  ++stats_.inserts;
  return Status::OK();
}

Status Table::UpsertByKey(const Row& row) {
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeFromRow(row));
  auto tid = index_->Get(Slice(key));
  if (tid.ok()) return Rewrite(Slice(key), *tid, row, nullptr);
  if (!tid.status().IsNotFound()) return tid.status();
  return Insert(row);
}

Result<Row> Table::GetByKey(const std::vector<Value>& key_values) {
  ++stats_.lookups;
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeValues(key_values));
  NBLB_ASSIGN_OR_RETURN(uint64_t tid, index_->Get(Slice(key)));
  std::string bytes;
  NBLB_RETURN_NOT_OK(heap_->Get(Rid::FromU64(tid), &bytes));
  ++stats_.heap_fetches;
  return row_codec_->Decode(Slice(bytes));
}

Status Table::GetBatchEncoded(const char* keys, size_t n,
                              const RowSlot* slots) {
  stats_.lookups += n;
  const size_t width = key_codec_->key_size();
  BatchScratch& b = batch_;

  // Look the keys up in sorted order, so the index descent and the heap
  // page fetches are shared across the batch.
  b.order.resize(n);
  std::iota(b.order.begin(), b.order.end(), 0u);
  std::sort(b.order.begin(), b.order.end(), [&](uint32_t x, uint32_t y) {
    return std::memcmp(keys + x * width, keys + y * width, width) < 0;
  });
  b.sorted_keys.clear();
  for (uint32_t i : b.order) b.sorted_keys.emplace_back(keys + i * width, width);
  b.tids.clear();
  NBLB_RETURN_NOT_OK(index_->GetBatch(b.sorted_keys, &b.tids));
  NBLB_CHECK(b.tids.size() == n);

  // Found keys proceed to one batched heap read (rids are in sorted-key
  // order, so their pages are nearly sorted too — long vectored runs), and
  // each tuple is decoded under its page's pin into its key's slot.
  b.rids.clear();
  b.rid_keys.clear();
  for (size_t k = 0; k < n; ++k) {
    if (b.tids[k].ok()) {
      b.rids.push_back(Rid::FromU64(*b.tids[k]));
      b.rid_keys.push_back(b.order[k]);
    } else {
      slots[b.order[k]].Fail(b.tids[k].status());
    }
  }
  // Two captured pointers keep the callback in std::function's inline
  // storage, so handing it over allocates nothing.
  return heap_->GetBatch(
      b.rids, [this, slots](size_t k, const Status& st, const Slice& tuple) {
        const RowSlot& slot = slots[batch_.rid_keys[k]];
        if (!st.ok()) {
          slot.Fail(st);
          return;
        }
        ++stats_.heap_fetches;
        if (slot.images == nullptr) {
          *slot.status = row_codec_->DecodeInto(tuple, slot.row);
          return;
        }
        Status checked = row_codec_->Check(tuple);
        const size_t offset = slot.images->size();
        if (checked.ok() && offset + tuple.size() > UINT32_MAX) {
          checked = Status::ResourceExhausted("image buffer over 4 GiB");
        }
        if (!checked.ok()) {
          slot.Fail(checked);
          return;
        }
        slot.images->append(tuple.data(), tuple.size());
        *slot.image = {static_cast<uint32_t>(offset),
                       static_cast<uint32_t>(tuple.size()), true};
        *slot.status = Status::OK();
      });
}

Status Table::GetBatchEncoded(const char* keys, size_t n,
                              std::vector<Result<Row>>* out) {
  const size_t first = out->size();
  out->resize(first + n, Result<Row>(Row()));
  batch_.statuses.resize(n);
  batch_.slots.clear();
  for (size_t i = 0; i < n; ++i) {
    batch_.slots.push_back({&batch_.statuses[i], &*(*out)[first + i]});
  }
  Status s = GetBatchEncoded(keys, n, batch_.slots.data());
  if (!s.ok()) {
    out->erase(out->begin() + static_cast<ptrdiff_t>(first), out->end());
    return s;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!batch_.statuses[i].ok()) {
      (*out)[first + i] = std::move(batch_.statuses[i]);
    }
  }
  return Status::OK();
}

Status Table::GetBatchByKey(const std::vector<std::vector<Value>>& keys,
                            std::vector<Result<Row>>* out) {
  std::string encoded;
  std::vector<Status> key_status(keys.size());
  size_t valid = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto enc = key_codec_->EncodeValues(keys[i]);
    if (!enc.ok()) {
      key_status[i] = enc.status();
      continue;
    }
    encoded += *enc;
    ++valid;
  }
  std::vector<Result<Row>> found;
  NBLB_RETURN_NOT_OK(GetBatchEncoded(encoded.data(), valid, &found));
  out->reserve(out->size() + keys.size());
  size_t next = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (key_status[i].ok()) {
      out->push_back(std::move(found[next++]));
    } else {
      out->push_back(std::move(key_status[i]));
    }
  }
  return Status::OK();
}

Result<Row> Table::LookupProjected(const std::vector<Value>& key_values,
                                   const std::vector<size_t>& project_columns) {
  ++stats_.lookups;
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeValues(key_values));

  NBLB_ASSIGN_OR_RETURN(PageGuard leaf, index_->FindLeaf(Slice(key)));
  BTreePageView view(leaf.data(), bp_->page_size());
  size_t pos;
  if (!view.FindExact(Slice(key), &pos)) {
    return Status::NotFound("key not found");
  }
  const uint64_t tid = view.ValueAt(pos);

  const bool covered =
      cache_ != nullptr && ProjectionCoveredByIndex(project_columns);
  char payload[kMaxCacheItemSize];
  if (covered && cache_->Probe(&leaf, tid, payload)) {
    // §2.1.1: "Queries that project a subset of the index key and the cached
    // fields can be answered without retrieving the data pages."
    ++stats_.answered_from_cache;
    return AssembleFromIndex(key_values, payload, project_columns);
  }

  // Miss: fetch the heap tuple and piggy-back cache population.
  std::string bytes;
  NBLB_RETURN_NOT_OK(heap_->Get(Rid::FromU64(tid), &bytes));
  ++stats_.heap_fetches;
  NBLB_ASSIGN_OR_RETURN(Row full, row_codec_->Decode(Slice(bytes)));
  if (cache_ != nullptr) {
    NBLB_ASSIGN_OR_RETURN(std::string cp, BuildCachePayload(full));
    cache_->Populate(&leaf, tid, Slice(cp));
  }
  Row out;
  out.reserve(project_columns.size());
  for (size_t c : project_columns) out.push_back(full[c]);
  return out;
}

Status Table::UpdateByKey(const std::vector<Value>& key_values,
                          const Row& new_row, Rid* moved_from) {
  if (moved_from != nullptr) *moved_from = Rid();
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeValues(key_values));
  NBLB_ASSIGN_OR_RETURN(std::string new_key,
                        key_codec_->EncodeFromRow(new_row));
  if (key != new_key) {
    return Status::InvalidArgument("key columns cannot be updated in place");
  }
  NBLB_ASSIGN_OR_RETURN(uint64_t tid, index_->Get(Slice(key)));
  return Rewrite(Slice(key), tid, new_row, moved_from);
}

Status Table::Rewrite(const Slice& key, uint64_t tid, const Row& row,
                      Rid* moved_from) {
  // Invalidate BEFORE the heap write: a concurrent reader either sees the
  // predicate (and drops the cache) or races ahead with the old-but-
  // consistent version.
  if (cache_ != nullptr) {
    NBLB_RETURN_NOT_OK(cache_->OnTupleModified(key, tid));
  }
  NBLB_RETURN_NOT_OK(row_codec_->EncodeTrimmed(row, &image_));
  const Rid rid = Rid::FromU64(tid);
  NBLB_ASSIGN_OR_RETURN(bool in_place, heap_->Update(rid, Slice(image_)));
  if (!in_place) {
    // Too big for its page: move to the tail, never into a hole, so the
    // younger copy is later in chain order.
    NBLB_ASSIGN_OR_RETURN(Rid moved, heap_->Append(Slice(image_)));
    Status st = index_->SetValue(key, moved.ToU64());
    if (!st.ok()) {
      (void)heap_->Delete(moved);
      return st;
    }
    if (moved_from != nullptr) {
      *moved_from = rid;
    } else {
      NBLB_RETURN_NOT_OK(heap_->Delete(rid));
    }
    ++stats_.moves;
  }
  ++stats_.updates;
  return Status::OK();
}

Status Table::DeleteByKey(const std::vector<Value>& key_values) {
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeValues(key_values));
  NBLB_ASSIGN_OR_RETURN(uint64_t tid, index_->Get(Slice(key)));
  if (cache_ != nullptr) {
    NBLB_RETURN_NOT_OK(cache_->OnTupleModified(Slice(key), tid));
  }
  NBLB_RETURN_NOT_OK(index_->Delete(Slice(key)));
  NBLB_RETURN_NOT_OK(heap_->Delete(Rid::FromU64(tid)));
  ++stats_.deletes;
  return Status::OK();
}

Result<Rid> Table::Relocate(const std::vector<Value>& key_values) {
  NBLB_ASSIGN_OR_RETURN(std::string key, key_codec_->EncodeValues(key_values));
  NBLB_ASSIGN_OR_RETURN(uint64_t tid, index_->Get(Slice(key)));
  const Rid old_rid = Rid::FromU64(tid);
  std::string bytes;
  NBLB_RETURN_NOT_OK(heap_->Get(old_rid, &bytes));
  // §3.1: "relocates hot tuples by deleting then appending them to the end
  // of the table".
  NBLB_RETURN_NOT_OK(heap_->Delete(old_rid));
  NBLB_ASSIGN_OR_RETURN(Rid new_rid, heap_->Insert(Slice(bytes)));
  NBLB_RETURN_NOT_OK(index_->SetValue(Slice(key), new_rid.ToU64()));
  // The old tid may be recycled; make sure no cache serves it.
  if (cache_ != nullptr) {
    NBLB_RETURN_NOT_OK(cache_->OnTupleModified(Slice(key), tid));
  }
  return new_rid;
}

Status Table::ForEachRow(
    const std::function<Status(const Rid&, const Row&)>& fn) {
  return heap_->ForEach([&](const Rid& rid, const Slice& bytes) {
    NBLB_ASSIGN_OR_RETURN(Row row, row_codec_->Decode(bytes));
    return fn(rid, row);
  });
}

}  // namespace nblb
