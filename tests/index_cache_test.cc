#include "cache/index_cache.h"

#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

constexpr uint16_t kItemSize = 25;  // 8-byte tid + 17-byte payload
constexpr size_t kPayload = kItemSize - 8;

std::string K(uint64_t v) {
  std::string s(8, '\0');
  EncodeBigEndian64(s.data(), v);
  return s;
}

std::string PayloadFor(uint64_t tid) {
  std::string p(kPayload, '\0');
  for (size_t i = 0; i < kPayload; ++i) {
    p[i] = static_cast<char>('A' + (tid + i) % 26);
  }
  return p;
}

struct CacheFixture {
  Stack stack;
  std::unique_ptr<BTree> tree;
  std::unique_ptr<IndexCache> cache;

  explicit CacheFixture(size_t num_keys = 16, IndexCacheOptions copts = {},
                        size_t page_size = 4096) {
    stack = MakeStack("icache", page_size, 1024);
    BTreeOptions opts;
    opts.key_size = 8;
    opts.cache_item_size = kItemSize;
    auto t = BTree::Create(stack.bp.get(), opts);
    EXPECT_TRUE(t.ok());
    tree = std::move(*t);
    for (uint64_t i = 0; i < num_keys; ++i) {
      EXPECT_TRUE(tree->Insert(Slice(K(i)), /*tid=*/i + 1000).ok());
    }
    cache.reset(new IndexCache(tree.get(), copts));
  }

  PageGuard Leaf(uint64_t key) {
    auto r = tree->FindLeaf(Slice(K(key)));
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }
};

TEST(IndexCacheTest, MissThenPopulateThenHit) {
  CacheFixture f;
  char out[kPayload];
  {
    PageGuard leaf = f.Leaf(0);
    EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out));
  }
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  {
    PageGuard leaf = f.Leaf(0);
    ASSERT_TRUE(f.cache->Probe(&leaf, 1000, out));
    EXPECT_EQ(std::string(out, kPayload), PayloadFor(1000));
  }
  EXPECT_EQ(f.cache->stats().hits, 1u);
  EXPECT_EQ(f.cache->stats().misses, 1u);
  EXPECT_EQ(f.cache->stats().populates, 1u);
}

TEST(IndexCacheTest, DistinctTidsDoNotCollide) {
  CacheFixture f;
  PageGuard leaf = f.Leaf(0);
  for (uint64_t tid : {1000ull, 1001ull, 1002ull, 1003ull}) {
    f.cache->Populate(&leaf, tid, Slice(PayloadFor(tid)));
  }
  char out[kPayload];
  for (uint64_t tid : {1000ull, 1001ull, 1002ull, 1003ull}) {
    ASSERT_TRUE(f.cache->Probe(&leaf, tid, out)) << tid;
    EXPECT_EQ(std::string(out, kPayload), PayloadFor(tid));
  }
  EXPECT_FALSE(f.cache->Probe(&leaf, 9999, out));
}

TEST(IndexCacheTest, PopulateRefreshesExistingItemInPlace) {
  CacheFixture f;
  PageGuard leaf = f.Leaf(0);
  f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  std::string newer(kPayload, 'z');
  f.cache->Populate(&leaf, 1000, Slice(newer));
  char out[kPayload];
  ASSERT_TRUE(f.cache->Probe(&leaf, 1000, out));
  EXPECT_EQ(std::string(out, kPayload), newer);
  ASSERT_OK_AND_ASSIGN(uint64_t items, f.cache->CountCachedItems());
  EXPECT_EQ(items, 1u);
}

TEST(IndexCacheTest, CacheWritesNeverDirtyThePage) {
  CacheFixture f;
  // Make the on-disk state clean and drop all frames.
  ASSERT_OK(f.stack.bp->FlushAll());
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
    char out[kPayload];
    ASSERT_TRUE(f.cache->Probe(&leaf, 1000, out));
  }
  // Evicting must NOT write the cache bytes back (§2.1.1: no added I/O).
  const MetricsSnapshot before = f.stack.Snapshot();
  ASSERT_OK(f.stack.bp->EvictAll());
  EXPECT_EQ(f.stack.Counter("disk.writes", before), 0u);
  // After reload the cache is naturally cold again — a probe misses but
  // nothing is corrupted.
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out));
}

TEST(IndexCacheTest, InvalidateAllDropsEverything) {
  CacheFixture f;
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  ASSERT_OK(f.cache->InvalidateAll());
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out));
  EXPECT_EQ(f.cache->stats().full_invalidations, 1u);
  // The cache is usable again afterwards.
  f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  EXPECT_TRUE(f.cache->Probe(&leaf, 1000, out));
}

TEST(IndexCacheTest, PredicateInvalidatesMatchingPage) {
  CacheFixture f;
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  // Key 0 lives in this leaf; the predicate must zero its cache on next read.
  ASSERT_OK(f.cache->OnTupleModified(Slice(K(0)), 1000));
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out));
  EXPECT_EQ(f.cache->stats().page_cleanings, 1u);
  EXPECT_EQ(f.cache->stats().full_invalidations, 0u);
}

TEST(IndexCacheTest, PredicateReplayHappensOnce) {
  CacheFixture f;
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  ASSERT_OK(f.cache->OnTupleModified(Slice(K(0)), 1000));
  {
    PageGuard leaf = f.Leaf(0);
    char out[kPayload];
    EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out));
  }
  // Re-populate after the cleaning: the same old predicate must not zero the
  // cache again (watermark advanced).
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  EXPECT_TRUE(f.cache->Probe(&leaf, 1000, out));
  EXPECT_EQ(f.cache->stats().page_cleanings, 1u);
}

TEST(IndexCacheTest, PredicateForOtherLeafDoesNotCleanThisOne) {
  // Two leaves: keys 0..N split across them after enough inserts.
  CacheFixture f(/*num_keys=*/400);  // forces multiple leaves on 4 KiB pages
  ASSERT_OK_AND_ASSIGN(BTreeStats st, f.tree->ComputeStats());
  ASSERT_GT(st.leaf_pages, 1u);
  // Cache an item in the leaf holding key 0.
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  // Modify a key in the LAST leaf (far away).
  ASSERT_OK(f.cache->OnTupleModified(Slice(K(399)), 1399));
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  EXPECT_TRUE(f.cache->Probe(&leaf, 1000, out))
      << "unrelated predicate must not clean this page";
}

TEST(IndexCacheTest, PredicateMatchesByTidEvenWhenKeyLeftThePage) {
  CacheFixture f;
  {
    PageGuard leaf = f.Leaf(0);
    f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  }
  // Delete the key from the index, then log a predicate for its tid with a
  // key that no longer falls in the page's (shrunken) range.
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_OK(f.tree->Delete(Slice(K(i))));
  }
  ASSERT_OK(f.cache->OnTupleModified(Slice(K(0)), 1000));
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out))
      << "tid match must clean the page even after the key was deleted";
}

TEST(IndexCacheTest, LogOverflowFallsBackToFullInvalidation) {
  IndexCacheOptions copts;
  copts.predicate_log_limit = 4;
  CacheFixture f(16, copts);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_OK(f.cache->OnTupleModified(Slice(K(i)), 1000 + i));
  }
  EXPECT_GE(f.cache->stats().full_invalidations, 1u);
  // The log was cleared at the overflow point; only entries appended after
  // the invalidation may remain.
  EXPECT_LT(f.cache->predicate_log().size(), copts.predicate_log_limit);
}

TEST(IndexCacheTest, EvictionTargetsPeripheralBucket) {
  CacheFixture f;
  PageGuard leaf = f.Leaf(0);
  BTreePageView view(leaf.data(), 4096);
  const CacheGeometry geo = CacheGeometry::FromLeaf(view, 8);
  const size_t capacity = geo.num_slots();
  // Fill the cache beyond capacity.
  for (uint64_t tid = 0; tid < capacity + 10; ++tid) {
    f.cache->Populate(&leaf, 5000 + tid, Slice(PayloadFor(5000 + tid)));
  }
  EXPECT_GE(f.cache->stats().evictions, 10u);
  ASSERT_OK_AND_ASSIGN(uint64_t items, f.cache->CountCachedItems());
  EXPECT_EQ(items, capacity);
  // The most recently inserted item is present.
  char out[kPayload];
  EXPECT_TRUE(f.cache->Probe(&leaf, 5000 + capacity + 9, out));
}

TEST(IndexCacheTest, RepeatedHitsMigrateItemToInnermostBucket) {
  CacheFixture f;
  PageGuard leaf = f.Leaf(0);
  f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  BTreePageView view(leaf.data(), 4096);
  const CacheGeometry geo = CacheGeometry::FromLeaf(view, 8);

  auto bucket_of_tid = [&](uint64_t tid) -> size_t {
    const uint64_t tag = tid + 1;
    for (size_t s = geo.first_slot(); s < geo.first_slot() + geo.num_slots();
         ++s) {
      if (DecodeFixed64(view.raw() + geo.SlotOffset(s)) == tag) {
        return geo.BucketOfSlot(s);
      }
    }
    ADD_FAILURE() << "tid not found in cache";
    return SIZE_MAX;
  };

  char out[kPayload];
  size_t prev_bucket = bucket_of_tid(1000);
  // Each hit swaps at most one bucket inward; after enough hits the item
  // must sit in bucket 0 and stay there.
  for (size_t hit = 0; hit < geo.num_buckets() + 4; ++hit) {
    ASSERT_TRUE(f.cache->Probe(&leaf, 1000, out));
    const size_t b = bucket_of_tid(1000);
    EXPECT_LE(b, prev_bucket) << "hits must never move the item outward";
    prev_bucket = b;
  }
  EXPECT_EQ(prev_bucket, 0u);
}

TEST(IndexCacheTest, LatchGiveUpSkipsWork) {
  CacheFixture f;
  PageGuard leaf = f.Leaf(0);
  f.cache->Populate(&leaf, 1000, Slice(PayloadFor(1000)));
  char out[kPayload];
  leaf.cache_latch()->Lock();
  EXPECT_FALSE(f.cache->Probe(&leaf, 1000, out))
      << "a held latch must turn the probe into a miss";
  f.cache->Populate(&leaf, 1001, Slice(PayloadFor(1001)));
  leaf.cache_latch()->Unlock();
  EXPECT_EQ(f.cache->stats().latch_give_ups, 2u);
  EXPECT_EQ(f.cache->stats().populate_skips, 1u);
  // After the latch is free both operations succeed.
  EXPECT_TRUE(f.cache->Probe(&leaf, 1000, out));
}

TEST(IndexCacheTest, IndexGrowthOverwritesPeripheryButNeverCorrupts) {
  CacheFixture f(16);
  {
    PageGuard leaf = f.Leaf(0);
    BTreePageView view(leaf.data(), 4096);
    const CacheGeometry geo = CacheGeometry::FromLeaf(view, 8);
    for (uint64_t tid = 0; tid < geo.num_slots(); ++tid) {
      f.cache->Populate(&leaf, 7000 + tid, Slice(PayloadFor(7000 + tid)));
    }
  }
  // Grow the index: new entries overwrite the cache periphery at both ends.
  for (uint64_t i = 100; i < 160; ++i) {
    ASSERT_OK(f.tree->Insert(Slice(K(i)), i + 1000));
  }
  // Every probe must either hit with the exact payload or miss — never
  // return garbage.
  PageGuard leaf = f.Leaf(0);
  char out[kPayload];
  size_t hits = 0;
  BTreePageView view(leaf.data(), 4096);
  const CacheGeometry geo = CacheGeometry::FromLeaf(view, 8);
  for (uint64_t tid = 7000; tid < 7000 + 300; ++tid) {
    if (f.cache->Probe(&leaf, tid, out)) {
      ASSERT_EQ(std::string(out, kPayload), PayloadFor(tid));
      ++hits;
    }
  }
  EXPECT_LE(hits, geo.num_slots());
}

TEST(IndexCacheTest, CountCachedItemsWalksAllLeaves) {
  CacheFixture f(400);
  char unused[kPayload];
  (void)unused;
  {
    PageGuard a = f.Leaf(0);
    f.cache->Populate(&a, 1000, Slice(PayloadFor(1000)));
  }
  {
    PageGuard b = f.Leaf(399);
    f.cache->Populate(&b, 1399, Slice(PayloadFor(1399)));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t items, f.cache->CountCachedItems());
  EXPECT_EQ(items, 2u);
}

}  // namespace
}  // namespace nblb
