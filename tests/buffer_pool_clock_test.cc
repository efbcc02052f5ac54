// Clock-sweep (second-chance) victim-selection tests for the BufferPool,
// plus content and counter coverage of a pool that overflows. The legacy
// LRU-flavored expectations live in buffer_pool_test.cc and must keep
// passing; these tests pin down the CLOCK mechanics specifically.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

// Pages never re-referenced after load have no second chance: the hand
// evicts the first unpinned, unreferenced frame it meets, in frame order.
TEST(BufferPoolClockTest, UnreferencedPagesEvictInHandOrder) {
  Stack s = MakeStack("clk_order", 4096, 3);
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
  // No page was ever fetched again -> zero usage everywhere. The hand
  // starts at frame 0, which holds `a`.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage()); }
  const MetricsSnapshot base = s.Snapshot();
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(b)); }
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(c)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 0u)
      << "b and c should still be resident";
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(a)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 1u)
      << "a (frame 0) should have been evicted";
}

// A re-referenced page survives the sweep: the hand decrements its usage
// count and moves on, evicting the first never-re-referenced page instead.
TEST(BufferPoolClockTest, SecondChanceSpareReferencedPages) {
  Stack s = MakeStack("clk_second_chance", 4096, 3);
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
  // Re-reference a (frame 0) only.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(a)); }
  // Hand at frame 0: a has usage -> decremented, spared; b is evicted.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage()); }
  const MetricsSnapshot base = s.Snapshot();
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(a)); }
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(c)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 0u)
      << "a was re-referenced, c not reached";
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(b)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 1u)
      << "b lost its spot to the new page";
}

// When every unpinned page carries usage, enough sweeps drain them all and
// then evict — the pool never reports exhaustion.
TEST(BufferPoolClockTest, FullSweepDrainsUsageThenEvicts) {
  Stack s = MakeStack("clk_full_sweep", 4096, 3);
  std::vector<PageId> ids;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    ids.push_back(g.id());
  }
  for (PageId id : ids) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
  }
  // All three frames are referenced; the allocation must still succeed.
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
  EXPECT_GT(s.Counter("buffer_pool.evictions"), 0u);
}

// The hand skips pinned frames even when they are unreferenced.
TEST(BufferPoolClockTest, PinnedFramesAreSkipped) {
  Stack s = MakeStack("clk_pin_skip", 4096, 2);
  ASSERT_OK_AND_ASSIGN(PageGuard pinned, s.bp->NewPage());
  PageId b;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    b = g.id();
  }
  // Frame 0 (pinned) must be skipped; frame 1 (b) is the victim.
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage()); }
  const MetricsSnapshot base = s.Snapshot();
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(pinned.id())); }
  EXPECT_EQ(s.Counter("buffer_pool.hits", base), 1u);
  { ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(b)); }
  EXPECT_EQ(s.Counter("buffer_pool.misses", base), 1u)
      << "b should have been evicted";
}

// Contents and stats stay correct when overflow forces steady eviction
// with dirty write-back.
TEST(BufferPoolClockTest, OverflowingPoolRoundTripsContents) {
  Stack s = MakeStack("clk_overflow", 4096, 64);
  constexpr int kPages = 200;  // > frames: forces eviction
  for (int i = 0; i < kPages; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    std::memset(g.data(), 'a' + (g.id() % 26), 64);
    g.MarkDirty();
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (PageId id = 0; id < kPages; ++id) {
      ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
      ASSERT_EQ(g.data()[0], 'a' + static_cast<char>(id % 26))
          << "page " << id << " pass " << pass;
    }
  }
  const MetricsSnapshot st = s.Snapshot();
  EXPECT_GT(st.Total("buffer_pool.evictions"), 0u);
  EXPECT_GT(st.Total("buffer_pool.dirty_writebacks"), 0u);
  EXPECT_EQ(st.Total("buffer_pool.hits") + st.Total("buffer_pool.misses"),
            2u * kPages);
  ASSERT_OK(s.bp->EvictAll());
  ASSERT_OK(s.bp->FlushAll());
}

// ResourceExhausted comes when every frame is pinned, and the pool
// recovers once pins drop.
TEST(BufferPoolClockTest, ExhaustionRecoversAfterUnpin) {
  Stack s = MakeStack("clk_exhaust", 4096, 2);
  std::vector<PageGuard> guards;
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
    guards.push_back(std::move(g));
  }
  EXPECT_TRUE(s.bp->NewPage().status().IsResourceExhausted());
  guards.clear();
  ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->NewPage());
  EXPECT_TRUE(g.valid());
}

}  // namespace
}  // namespace nblb
