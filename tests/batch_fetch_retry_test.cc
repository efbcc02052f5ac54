// Transient-abort escape-path regression tests: capacity pressure that
// clears (pins held briefly by another thread) must be ridden out by the
// bounded yield-retry loops, not surfaced as retryable ResourceExhausted —
// neither from HeapFile::GetBatch at chunk size 1 (Start side) nor from the
// B+Tree's single-page walk fetches. Before those loops existed, both
// scenarios below returned ResourceExhausted to the caller.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "index/btree.h"
#include "obs/event_ring.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::CopyBatch;
using nblb::testing::MakeStack;
using nblb::testing::Stack;

size_t CountEvents(FlightEvent code) {
  size_t n = 0;
  for (const auto& ring : FlightRecorder::Instance().SnapshotAll()) {
    for (const auto& e : ring) {
      if (e.code == code) ++n;
    }
  }
  return n;
}

/// Blocks until the flight recorder shows at least `min` events of `code`
/// (the other thread is inside its retry loop), so releasing the pins below
/// is ordered after the retry path has provably been entered.
bool WaitForEvents(FlightEvent code, size_t min) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (CountEvents(code) < min) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(BatchFetchRetryTest, HeapGetBatchRidesOutTransientPinPressure) {
  // 8-frame single-stripe pool; ~16 heap pages so there is plenty to fetch
  // that is not pinned.
  Stack s = MakeStack("retry_heap", 4096, 8);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (int i = 0; i < 48; ++i) {
    ASSERT_OK_AND_ASSIGN(
        Rid rid, heap->Insert(Slice(std::string(1000, 'a' + (i % 26)))));
    rids.push_back(rid);
  }
  ASSERT_GE(heap->pages().size(), 12u);
  ASSERT_OK(s.bp->EvictAll());

  // Pin the whole pool with the first 8 heap pages.
  std::vector<PageGuard> pins;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(heap->pages()[i]));
    pins.push_back(std::move(g));
  }

  // Fetch tuples living on UNPINNED pages from another thread: every
  // StartFetchPages hits ResourceExhausted, the chunk halves to 1, and the
  // fetcher must sit in the bounded yield-retry loop until the pins drop.
  std::vector<Rid> want(rids.end() - 8, rids.end());
  Status fetch_status;
  std::vector<std::string> out;
  std::vector<Status> statuses;
  std::thread fetcher(
      [&] { fetch_status = CopyBatch(heap.get(), want, &out, &statuses); });

  // Release only after the retry loop is provably running.
  EXPECT_TRUE(WaitForEvents(FlightEvent::kChunkRetry, 3));
  pins.clear();
  fetcher.join();

  ASSERT_TRUE(fetch_status.ok()) << fetch_status.ToString();
  ASSERT_EQ(out.size(), want.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_OK(statuses[i]);
    EXPECT_EQ(out[i],
              std::string(1000, static_cast<char>('a' + ((40 + i) % 26))));
  }
  EXPECT_GT(CountEvents(FlightEvent::kChunkHalve), 0u);
}

TEST(BatchFetchRetryTest, BtreeWalkRidesOutTransientPinPressure) {
  Stack s = MakeStack("retry_btree", 4096, 8);
  BTreeOptions bo;
  bo.key_size = 8;
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), bo));
  constexpr uint64_t kKeys = 2000;
  std::string key(8, '\0');
  for (uint64_t i = 0; i < kKeys; ++i) {
    EncodeBigEndian64(key.data(), i);
    ASSERT_OK(tree->Insert(Slice(key), i * 10));
  }
  ASSERT_OK(s.bp->EvictAll());

  // Fill the pool with the first 8 pages of the file (meta + early nodes).
  std::vector<PageGuard> pins;
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
    pins.push_back(std::move(g));
  }

  // A batched walk from another thread needs pages that are not resident:
  // its single-page fetches (descent and leaf-chain siblings) all hit
  // ResourceExhausted and must retry until the pins drop.
  std::vector<std::string> key_storage;
  for (uint64_t k : {100u, 900u, 1500u, 1999u}) {
    std::string buf(8, '\0');
    EncodeBigEndian64(buf.data(), k);
    key_storage.push_back(buf);
  }
  std::vector<Slice> keys;
  for (const std::string& ks : key_storage) keys.emplace_back(ks);
  Status walk_status;
  std::vector<Result<uint64_t>> values;
  std::thread walker(
      [&] { walk_status = tree->GetBatch(keys, &values); });

  EXPECT_TRUE(WaitForEvents(FlightEvent::kBtreeRetry, 3));
  pins.clear();
  walker.join();

  ASSERT_TRUE(walk_status.ok()) << walk_status.ToString();
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(*values[0], 1000u);
  EXPECT_EQ(*values[1], 9000u);
  EXPECT_EQ(*values[2], 15000u);
  EXPECT_EQ(*values[3], 19990u);
}

}  // namespace
}  // namespace nblb
