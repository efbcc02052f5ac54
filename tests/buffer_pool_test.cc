#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

TEST(BufferPoolTest, NewPageIsZeroedAndPinned) {
  Stack s = MakeStack("bp_new", 4096, 4);
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
  for (size_t i = 0; i < 4096; ++i) ASSERT_EQ(g.data()[i], 0);
  g.data()[0] = 'x';
  g.MarkDirty();
}

TEST(BufferPoolTest, FetchHitsAfterFirstMiss) {
  Stack s = MakeStack("bp_hits", 4096, 4);
  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    id = g.id();
  }
  const MetricsSnapshot base = s.Snapshot();
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id)); }
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id)); }
  EXPECT_EQ(s.Counter("buffer_pool.hits", base), 2u);
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 0u);
  // The gauge covers the pool's lifetime, which saw no miss either.
  EXPECT_DOUBLE_EQ(s.Snapshot().gauges.at("buffer_pool.hit_rate"), 1.0);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  Stack s = MakeStack("bp_evict", 4096, 2);
  PageId first;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    first = g.id();
    std::memset(g.data(), 'D', 4096);
    g.MarkDirty();
  }
  // Fill the pool beyond capacity so `first` is evicted.
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
  }
  // Re-fetch: must come back from disk with the dirty contents.
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(first));
  for (size_t i = 0; i < 4096; ++i) ASSERT_EQ(g.data()[i], 'D');
  EXPECT_GT(s.Counter("buffer_pool.evictions"), 0u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  Stack s = MakeStack("bp_lru", 4096, 3);
  PageId a, b, c;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    a = g.id();
  }
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    b = g.id();
  }
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    c = g.id();
  }
  // Touch a and c; b is now LRU.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(a)); }
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(c)); }
  // Allocating a fourth page must evict b.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage()); }
  const MetricsSnapshot base = s.Snapshot();
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(a)); }
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(c)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 0u)
      << "a and c should still be resident";
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(b)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 1u)
      << "b should have been evicted";
}

TEST(BufferPoolTest, PinnedPagesCannotBeEvicted) {
  Stack s = MakeStack("bp_pin", 4096, 2);
  ASSERT_OK_AND_ASSIGN(PageGuard g1, s.bp->NewPage());
  ASSERT_OK_AND_ASSIGN(PageGuard g2, s.bp->NewPage());
  // Pool full of pinned pages: a third allocation must fail.
  auto r = s.bp->NewPage();
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(BufferPoolTest, EvictAllDropsCleanState) {
  Stack s = MakeStack("bp_evictall", 4096, 4);
  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    id = g.id();
    g.data()[7] = 'q';
    g.MarkDirty();
  }
  ASSERT_OK(s.bp->EvictAll());
  const MetricsSnapshot base = s.Snapshot();
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 1u);  // cold fetch
  EXPECT_EQ(g.data()[7], 'q');          // but contents were flushed
}

TEST(BufferPoolTest, EvictAllFailsWithPinnedPage) {
  Stack s = MakeStack("bp_evictall_pin", 4096, 4);
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
  EXPECT_TRUE(s.bp->EvictAll().IsBusy());
}

TEST(BufferPoolTest, GuardMoveTransfersOwnership) {
  Stack s = MakeStack("bp_move", 4096, 4);
  ASSERT_OK_AND_ASSIGN(PageGuard g1, s.bp->NewPage());
  const PageId id = g1.id();
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.valid());
  EXPECT_TRUE(g2.valid());
  EXPECT_EQ(g2.id(), id);
  g2.Release();
  EXPECT_FALSE(g2.valid());
  // After release the page can be evicted.
  ASSERT_OK(s.bp->EvictAll());
}

TEST(BufferPoolTest, UnpinWithoutDirtyLosesNothingWrittenViaFlush) {
  // Cache-write semantics: a page modified WITHOUT MarkDirty is dropped on
  // eviction — this is the "cache modifications do not dirty the page"
  // behaviour the index cache relies on.
  Stack s = MakeStack("bp_nodirty", 4096, 2);
  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    id = g.id();
    g.MarkDirty();  // persist the initial zeroed state
  }
  ASSERT_OK(s.bp->FlushAll());
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
    g.data()[0] = 'c';  // cache-style write: no MarkDirty
  }
  ASSERT_OK(s.bp->EvictAll());
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
  EXPECT_EQ(g.data()[0], 0) << "non-dirty write must not survive eviction";
}

}  // namespace
}  // namespace nblb
