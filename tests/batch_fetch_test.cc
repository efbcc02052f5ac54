// Batched read-path tests: BufferPool::FetchPages edge cases (partial miss,
// duplicate ids, unknown ids, pin accounting), DiskManager::SubmitReads
// runs, HeapFile::GetBatch, BTree::GetBatch, and Table::GetBatchByKey vs the
// per-op oracle.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "exec/table.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::CopyBatch;
using nblb::testing::MakeStack;
using nblb::testing::Stack;

std::vector<PageId> MakePages(Stack& s, int n) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto g = s.bp->NewPage();
    EXPECT_TRUE(g.ok());
    std::memset(g->data(), 'a' + (g->id() % 26), 32);
    g->MarkDirty();
    ids.push_back(g->id());
  }
  return ids;
}

TEST(FetchPagesTest, EmptyBatchIsANoop) {
  Stack s = MakeStack("fp_empty", 4096, 4);
  ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards,
                       s.bp->FetchPages({}));
  EXPECT_TRUE(guards.empty());
}

TEST(FetchPagesTest, PartialMissMixesHitsAndVectoredReads) {
  Stack s = MakeStack("fp_partial", 4096, 8);
  std::vector<PageId> ids = MakePages(s, 6);
  ASSERT_OK(s.bp->EvictAll());
  // Warm pages 0 and 3 only.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(ids[0])); }
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(ids[3])); }
  const MetricsSnapshot base = s.Snapshot();

  ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards, s.bp->FetchPages(ids));
  ASSERT_EQ(guards.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(guards[i].id(), ids[i]);
    EXPECT_EQ(guards[i].data()[0], 'a' + static_cast<char>(ids[i] % 26));
  }
  const MetricsSnapshot st = s.Snapshot() - base;
  EXPECT_EQ(st.Total("buffer_pool.hits"), 2u);
  EXPECT_EQ(st.Total("buffer_pool.misses"), 4u);
  EXPECT_EQ(st.Total("buffer_pool.batch_fetches"), 1u);
  EXPECT_EQ(st.Total("disk.reads"), 4u);
}

TEST(FetchPagesTest, DuplicateIdsEachHoldAPin) {
  Stack s = MakeStack("fp_dup", 4096, 4);
  std::vector<PageId> ids = MakePages(s, 2);
  ASSERT_OK(s.bp->EvictAll());

  const std::vector<PageId> request = {ids[1], ids[0], ids[1], ids[1]};
  ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards,
                       s.bp->FetchPages(request));
  ASSERT_EQ(guards.size(), 4u);
  // Duplicates share the frame...
  EXPECT_EQ(guards[0].data(), guards[2].data());
  EXPECT_EQ(guards[0].data(), guards[3].data());
  EXPECT_NE(guards[0].data(), guards[1].data());
  // ...but each guard pins independently: dropping two still blocks EvictAll.
  guards[2].Release();
  guards[3].Release();
  EXPECT_TRUE(s.bp->EvictAll().IsBusy());
  guards[0].Release();
  guards[1].Release();
  ASSERT_OK(s.bp->EvictAll());
}

TEST(FetchPagesTest, UnknownIdFailsWholeBatchWithoutLeakingPins) {
  Stack s = MakeStack("fp_unknown", 4096, 4);
  std::vector<PageId> ids = MakePages(s, 2);
  const PageId bogus = 1000;
  auto r = s.bp->FetchPages({ids[0], bogus, ids[1]});
  EXPECT_TRUE(r.status().IsOutOfRange());
  // No guard leaked a pin: the pool evicts cleanly.
  ASSERT_OK(s.bp->EvictAll());
}

TEST(FetchPagesTest, MissBatchInDescendingOrderWithGaps) {
  // Misses requested in descending order with gaps: exercises the sort
  // and multiple vectored runs.
  Stack s = MakeStack("fp_runs", 4096, 64);
  std::vector<PageId> all = MakePages(s, 40);
  ASSERT_OK(s.bp->EvictAll());

  std::vector<PageId> request;
  for (int i = 39; i >= 0; i -= 2) request.push_back(all[i]);
  ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards,
                       s.bp->FetchPages(request));
  ASSERT_EQ(guards.size(), request.size());
  for (size_t i = 0; i < request.size(); ++i) {
    EXPECT_EQ(guards[i].id(), request[i]);
    EXPECT_EQ(guards[i].data()[0],
              'a' + static_cast<char>(request[i] % 26));
  }
}

TEST(DiskManagerSubmitReadsTest, ContiguousRunUsesOneVectoredRead) {
  Stack s = MakeStack("dm_runs", 4096, 16);
  MakePages(s, 8);
  ASSERT_OK(s.bp->FlushAll());

  std::vector<std::vector<char>> bufs(5, std::vector<char>(4096));
  // Pages 1..4 are one run; page 6 stands alone.
  const std::vector<PageId> ids = {1, 2, 3, 4, 6};
  std::vector<char*> dsts;
  for (auto& b : bufs) dsts.push_back(b.data());
  const MetricsSnapshot base = s.Snapshot();
  DiskManager::IoTicket ticket;
  ASSERT_OK(
      s.disk->SubmitReads(ids.data(), dsts.data(), ids.size(), &ticket));
  ASSERT_OK(s.disk->WaitReads(&ticket));
  const MetricsSnapshot st = s.Snapshot() - base;
  EXPECT_EQ(st.Total("disk.reads"), 5u);
  EXPECT_EQ(st.Total("disk.async_batches"), 1u);
  // The 1..4 run is one vectored read; page 6 is a run of its own.
  EXPECT_EQ(st.Total("disk.vectored_reads"), 1u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(bufs[i][0], 'a' + static_cast<char>(ids[i] % 26));
  }
}

TEST(HeapFileBatchTest, GetBatchMatchesGetAndReportsMissingSlots) {
  Stack s = MakeStack("hf_batch", 4096, 32);
  ASSERT_OK_AND_ASSIGN(auto hf, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (int i = 0; i < 300; ++i) {
    std::string tuple(64, static_cast<char>('A' + i % 26));
    ASSERT_OK_AND_ASSIGN(Rid rid, hf->Insert(Slice(tuple)));
    rids.push_back(rid);
  }
  ASSERT_OK(hf->Delete(rids[5]));

  std::vector<Rid> request = {rids[250], rids[0], rids[5], rids[123],
                              rids[250]};
  std::vector<std::string> tuples;
  std::vector<Status> statuses;
  ASSERT_OK(CopyBatch(hf.get(), request, &tuples, &statuses));
  ASSERT_EQ(tuples.size(), request.size());
  for (size_t i = 0; i < request.size(); ++i) {
    if (i == 2) {
      EXPECT_TRUE(statuses[i].IsNotFound());
      continue;
    }
    ASSERT_OK(statuses[i]);
    std::string expect;
    ASSERT_OK(hf->Get(request[i], &expect));
    EXPECT_EQ(tuples[i], expect);
  }
}

TEST(HeapFileBatchTest, BatchLargerThanThePoolIsChunkedNotExhausted) {
  // More distinct heap pages in one batch than the pool has frames: the
  // batch path must chunk its pins instead of failing ResourceExhausted
  // (the per-op path held one pin at a time).
  Stack s = MakeStack("hf_bigbatch", 4096, 16);
  ASSERT_OK_AND_ASSIGN(auto hf, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (int i = 0; i < 120; ++i) {  // ~3 tuples/page -> ~40 pages > 16 frames
    std::string tuple(1024, static_cast<char>('A' + i % 26));
    ASSERT_OK_AND_ASSIGN(Rid rid, hf->Insert(Slice(tuple)));
    rids.push_back(rid);
  }
  std::vector<std::string> tuples;
  std::vector<Status> statuses;
  ASSERT_OK(CopyBatch(hf.get(), rids, &tuples, &statuses));
  for (size_t i = 0; i < rids.size(); ++i) {
    ASSERT_OK(statuses[i]);
    EXPECT_EQ(tuples[i][0], 'A' + static_cast<char>(i % 26));
  }
  ASSERT_OK(s.bp->EvictAll());  // no pins leaked by the chunked path
}

TEST(BTreeBatchTest, GetBatchSharesLeavesAcrossSortedKeys) {
  Stack s = MakeStack("bt_batch", 4096, 128);
  BTreeOptions opts;
  opts.key_size = 8;
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), opts));
  auto key_of = [](uint64_t k) {
    std::string key(8, '\0');
    for (int b = 0; b < 8; ++b) key[b] = static_cast<char>(k >> (56 - 8 * b));
    return key;
  };
  for (uint64_t k = 0; k < 2000; k += 2) {
    ASSERT_OK(tree->Insert(Slice(key_of(k)), k * 10));
  }

  // Sorted batch mixing present keys, absent (odd) keys, duplicates, and a
  // key past the end of the tree.
  std::vector<std::string> storage;
  for (uint64_t k : {0ull, 0ull, 7ull, 8ull, 1200ull, 1201ull, 1998ull,
                     5000ull}) {
    storage.push_back(key_of(k));
  }
  std::vector<Slice> keys(storage.begin(), storage.end());
  std::vector<Result<uint64_t>> out;
  ASSERT_OK(tree->GetBatch(keys, &out));
  ASSERT_EQ(out.size(), keys.size());
  const std::vector<bool> found = {true, true, false, true,
                                   true, false, true, false};
  const std::vector<uint64_t> vals = {0, 0, 0, 80, 12000, 0, 19980, 0};
  for (size_t i = 0; i < keys.size(); ++i) {
    if (found[i]) {
      ASSERT_TRUE(out[i].ok()) << "key " << i;
      EXPECT_EQ(*out[i], vals[i]);
    } else {
      EXPECT_TRUE(out[i].status().IsNotFound()) << "key " << i;
    }
  }
}

Schema UserSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"name", TypeId::kVarchar, 24},
                 {"score", TypeId::kInt64, 0}});
}

Row UserRow(int64_t id) {
  return {Value::Int64(id), Value::Varchar("user-" + std::to_string(id)),
          Value::Int64(id * 3 + 1)};
}

TEST(TableBatchTest, GetBatchByKeyMatchesPerOpOracle) {
  Stack s = MakeStack("tbl_batch", 4096, 256);
  TableOptions topts;
  topts.key_columns = {0};
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), UserSchema(), topts));
  for (int64_t id = 0; id < 500; ++id) {
    ASSERT_OK(t->Insert(UserRow(id * 2)));  // even ids only
  }

  // Unsorted input with misses and duplicates; the table sorts internally.
  std::vector<int64_t> request = {998, 3, 0, 246, 246, 997, 514};
  std::vector<std::vector<Value>> keys;
  for (int64_t id : request) keys.push_back({Value::Int64(id)});
  std::vector<Result<Row>> out;
  ASSERT_OK(t->GetBatchByKey(keys, &out));
  ASSERT_EQ(out.size(), request.size());
  for (size_t i = 0; i < request.size(); ++i) {
    auto oracle = t->GetByKey(keys[i]);
    ASSERT_EQ(out[i].ok(), oracle.ok()) << "id " << request[i];
    if (oracle.ok()) {
      ASSERT_EQ(out[i]->size(), oracle->size());
      for (size_t c = 0; c < oracle->size(); ++c) {
        EXPECT_EQ((*out[i])[c].ToString(), (*oracle)[c].ToString());
      }
    } else {
      EXPECT_TRUE(out[i].status().IsNotFound());
    }
  }
}

TEST(TableBatchTest, GetBatchByKeyColdCacheUsesVectoredReads) {
  Stack s = MakeStack("tbl_batch_cold", 4096, 512);
  TableOptions topts;
  topts.key_columns = {0};
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), UserSchema(), topts));
  std::vector<std::vector<Value>> keys;
  for (int64_t id = 0; id < 2000; ++id) {
    ASSERT_OK(t->Insert(UserRow(id)));
    keys.push_back({Value::Int64(id)});
  }
  ASSERT_OK(s.bp->EvictAll());
  const MetricsSnapshot base = s.Snapshot();
  std::vector<Result<Row>> out;
  ASSERT_OK(t->GetBatchByKey(keys, &out));
  for (auto& r : out) ASSERT_OK(r.status());
  // The heap pages were cold and mostly contiguous: the batch must have
  // read them with vectored syscalls, i.e. clearly fewer syscalls than
  // pages (heap pages interleave with index pages on disk, so runs are
  // short but real).
  const MetricsSnapshot dst = s.Snapshot() - base;
  EXPECT_GT(dst.Total("disk.vectored_reads"), 0u);
  EXPECT_LT(dst.Total("disk.vectored_reads") * 2, dst.Total("disk.reads"));
}

}  // namespace
}  // namespace nblb
