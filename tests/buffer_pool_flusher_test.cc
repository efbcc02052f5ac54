// Flush-pass tests: BufferPool::FlushColdPages pre-cleans exactly the
// frames the CLOCK sweep will evict next (dirty, unpinned, usage 0);
// referenced pages stay dirty until they are aged, evicted or flushed by
// FlushAll; content lands correctly, counters advance, and passes
// interleave with FlushAll/EvictAll. The pool starts no thread, so each
// test runs its passes itself, as a shard's worker does.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

std::vector<PageId> DirtyPages(Stack& s, int n, char tag) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto g = s.bp->NewPage();
    EXPECT_TRUE(g.ok());
    std::memset(g->data(), tag, 64);
    g->MarkDirty();
    ids.push_back(g->id());
  }
  return ids;
}

/// Runs one pass and returns the pages it wrote.
size_t Pass(Stack& s) {
  auto written = s.bp->FlushColdPages();
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  return written.ok() ? *written : 0;
}

TEST(BufferPoolFlusherTest, WritesDirtyPagesBackWithoutEvictions) {
  Stack s = MakeStack("flush_bg", 4096, 64);
  std::vector<PageId> ids = DirtyPages(s, 20, 'Z');

  // One pass lands every dirty page on disk with zero evictions —
  // write-back fully off the evicting path.
  EXPECT_EQ(Pass(s), ids.size());
  const MetricsSnapshot st = s.Snapshot();
  EXPECT_GE(st.Total("disk.writes"), ids.size());
  EXPECT_EQ(st.Total("buffer_pool.evictions"), 0u);
  EXPECT_GT(st.Total("buffer_pool.flusher_passes"), 0u);
  EXPECT_GE(st.Total("buffer_pool.flusher_pages"), ids.size());

  // Bytes really reached the device: read them back around the pool.
  std::vector<char> buf(4096);
  for (PageId id : ids) {
    ASSERT_OK(s.disk->ReadPage(id, buf.data()));
    EXPECT_EQ(buf[0], 'Z') << "page " << id;
  }
}

char DiskByte(Stack& s, PageId id) {
  std::vector<char> buf(4096);
  EXPECT_OK(s.disk->ReadPage(id, buf.data()));
  return buf[0];
}

TEST(BufferPoolFlusherTest, ReferencedPageStaysDirtyUntilFlushAll) {
  Stack s = MakeStack("flush_redirty", 4096, 16);
  std::vector<PageId> ids = DirtyPages(s, 4, 'A');
  // Fresh pages sit at usage 0 (next in line for the sweep): flushed.
  EXPECT_EQ(Pass(s), 4u);
  const uint64_t flushed = s.Counter("buffer_pool.flusher_pages");

  // Re-dirty a page after its flush, several times, each through a hit —
  // the page stays referenced (usage > 0) and nothing sweeps a pool this
  // empty, so no pass may rewrite it: its bytes are not the next victim's.
  for (int round = 0; round < 5; ++round) {
    {
      ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(ids[0]));
      std::memset(g.data(), 'B' + round, 64);
      g.MarkDirty();
    }
    EXPECT_EQ(Pass(s), 0u);
    EXPECT_EQ(Pass(s), 0u);
    EXPECT_EQ(DiskByte(s, ids[0]), 'A') << "round " << round;
  }
  EXPECT_EQ(s.Counter("buffer_pool.flusher_pages"), flushed)
      << "a pass rewrote a referenced page";

  // The re-dirty after the pass's snapshot was not lost: it is still
  // dirty in the pool, and FlushAll lands the last version.
  ASSERT_OK(s.bp->FlushAll());
  EXPECT_EQ(DiskByte(s, ids[0]), 'B' + 4);
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(DiskByte(s, ids[i]), 'A');
}

TEST(BufferPoolFlusherTest, CoexistsWithFlushAllAndEvictAll) {
  Stack s = MakeStack("flush_coexist", 4096, 32);
  for (int round = 0; round < 20; ++round) {
    std::vector<PageId> ids = DirtyPages(s, 3, static_cast<char>('a' + round));
    // Passes interleave with FlushAll/EvictAll; a pass drops every pin it
    // took, so with no pins held EvictAll must succeed after one.
    Pass(s);
    ASSERT_OK(s.bp->FlushAll());
    Pass(s);
    ASSERT_OK(s.bp->EvictAll());
    std::vector<char> buf(4096);
    for (PageId id : ids) {
      ASSERT_OK(s.disk->ReadPage(id, buf.data()));
      EXPECT_EQ(buf[0], 'a' + round);
    }
  }
}

TEST(BufferPoolFlusherTest, EvictionFindsCleanVictimsAfterFlushing) {
  // Fill a tiny pool with dirty pages, make most of them hot, then force
  // evictions with new allocations: the sweep ages the hot frames, a pass
  // cleans them, and the allocating caller finds clean victims
  // (dirty_writebacks stays 0). 8 frames; the free list hands them out in
  // index order and the CLOCK hand starts at frame 0.
  Stack s = MakeStack("flush_clean_victims", 4096, 8);
  std::vector<PageId> ids = DirtyPages(s, 8, 'Q');
  EXPECT_EQ(Pass(s), 8u);

  // Frames 0..6 become hot and dirty (usage 1); frame 7 stays clean at
  // usage 0. While hot, passes leave them alone.
  for (int i = 0; i < 7; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(ids[i]));
    std::memset(g.data(), 'H', 64);
    g.MarkDirty();
  }
  for (int pass = 0; pass < 3; ++pass) Pass(s);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(DiskByte(s, ids[i]), 'Q') << i;

  // One allocation past the full pool: the sweep ages frames 0..6 to usage
  // 0 on its way to the clean frame 7, which it evicts. The aged frames are
  // now the next victims, so the next pass writes them back.
  DirtyPages(s, 1, 'N');
  EXPECT_GE(Pass(s), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(DiskByte(s, ids[i]), 'H') << i;

  // The next allocations evict frames 0..6, all clean: the pass, not the
  // allocating caller, paid for their write-back.
  DirtyPages(s, 7, 'R');
  const MetricsSnapshot st = s.Snapshot();
  EXPECT_EQ(st.Total("buffer_pool.evictions"), 8u);
  EXPECT_EQ(st.Total("buffer_pool.dirty_writebacks"), 0u)
      << "the allocating caller paid write-backs a pass should have taken";
}

}  // namespace
}  // namespace nblb
