// Background dirty-page flusher tests: the flusher pre-cleans exactly the
// frames the CLOCK sweep will evict next (dirty, unpinned, usage 0), off the
// serving path; referenced pages stay dirty until they are aged, evicted or
// flushed by FlushAll; content lands correctly, counters advance, and the
// flusher coexists with FlushAll/EvictAll/Checkpoint-style use.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
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

bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

TEST(BufferPoolFlusherTest, WritesDirtyPagesBackWithoutEvictions) {
  Stack s = MakeStack("flush_bg", 4096, 64);
  s.bp->StartFlusher(/*interval_us=*/1000);
  std::vector<PageId> ids = DirtyPages(s, 20, 'Z');

  // The flusher must land every dirty page on disk with zero evictions —
  // write-back fully off the serving/evicting path.
  ASSERT_TRUE(WaitFor([&] {
    return s.Counter("disk.writes") >= ids.size() + /*NewPage allocations*/ 0 &&
           s.Counter("buffer_pool.flusher_pages") >= ids.size();
  })) << "flusher_pages=" << s.Counter("buffer_pool.flusher_pages");
  const MetricsSnapshot st = s.Snapshot();
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

// Waits until `n` more flusher passes have started; pass k+1 starting means
// pass k has fully finished (one flusher thread).
bool WaitForPasses(Stack& s, uint64_t n) {
  const uint64_t target = s.Counter("buffer_pool.flusher_passes") + n;
  return WaitFor(
      [&] { return s.Counter("buffer_pool.flusher_passes") >= target; });
}

TEST(BufferPoolFlusherTest, ReferencedPageStaysDirtyUntilFlushAll) {
  Stack s = MakeStack("flush_redirty", 4096, 16);
  s.bp->StartFlusher(/*interval_us=*/500);
  std::vector<PageId> ids = DirtyPages(s, 4, 'A');
  // Fresh pages sit at usage 0 (next in line for the sweep): flushed.
  ASSERT_TRUE(
      WaitFor([&] { return s.Counter("buffer_pool.flusher_pages") >= 4; }));
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
    ASSERT_TRUE(WaitForPasses(s, 2));
    EXPECT_EQ(DiskByte(s, ids[0]), 'A') << "round " << round;
  }
  EXPECT_EQ(s.Counter("buffer_pool.flusher_pages"), flushed)
      << "flusher rewrote a referenced page";

  // The re-dirty after the flusher's snapshot was not lost: it is still
  // dirty in the pool, and FlushAll lands the last version.
  ASSERT_OK(s.bp->FlushAll());
  EXPECT_EQ(DiskByte(s, ids[0]), 'B' + 4);
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(DiskByte(s, ids[i]), 'A');
}

TEST(BufferPoolFlusherTest, CoexistsWithFlushAllAndEvictAll) {
  Stack s = MakeStack("flush_coexist", 4096, 32);
  s.bp->StartFlusher(/*interval_us=*/200);
  for (int round = 0; round < 20; ++round) {
    std::vector<PageId> ids = DirtyPages(s, 3, static_cast<char>('a' + round));
    // FlushAll/EvictAll serialize against flusher passes; with no pins held
    // EvictAll must succeed (a flusher pass can never be caught mid-pin).
    ASSERT_OK(s.bp->FlushAll());
    ASSERT_OK(s.bp->EvictAll());
    std::vector<char> buf(4096);
    for (PageId id : ids) {
      ASSERT_OK(s.disk->ReadPage(id, buf.data()));
      EXPECT_EQ(buf[0], 'a' + round);
    }
  }
  s.bp->StopFlusher();
}

TEST(BufferPoolFlusherTest, EvictionFindsCleanVictimsAfterFlushing) {
  // Fill a tiny pool with dirty pages, make most of them hot, then force
  // evictions with new allocations: the sweep ages the hot frames, the
  // flusher cleans them, and the evicting thread finds clean victims
  // (dirty_writebacks stays 0). One stripe of 8 frames; the free list hands
  // them out in index order and the CLOCK hand starts at frame 0.
  Stack s = MakeStack("flush_clean_victims", 4096, 8);
  s.bp->StartFlusher(/*interval_us=*/500);
  std::vector<PageId> ids = DirtyPages(s, 8, 'Q');
  ASSERT_TRUE(
      WaitFor([&] { return s.Counter("buffer_pool.flusher_pages") >= 8; }));

  // Frames 0..6 become hot and dirty (usage 1); frame 7 stays clean at
  // usage 0. While hot, the flusher leaves them alone.
  for (int i = 0; i < 7; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(ids[i]));
    std::memset(g.data(), 'H', 64);
    g.MarkDirty();
  }
  ASSERT_TRUE(WaitForPasses(s, 3));
  for (int i = 0; i < 7; ++i) EXPECT_EQ(DiskByte(s, ids[i]), 'Q') << i;

  // One allocation past the full pool: the sweep ages frames 0..6 to usage
  // 0 on its way to the clean frame 7, which it evicts. The aged frames are
  // now the next victims, so the flusher writes them back.
  DirtyPages(s, 1, 'N');
  ASSERT_TRUE(WaitFor([&] {
    for (int i = 0; i < 7; ++i) {
      if (DiskByte(s, ids[i]) != 'H') return false;
    }
    return true;
  })) << "flusher_pages=" << s.Counter("buffer_pool.flusher_pages");
  // Stop the flusher so a pass never holds transient pins while the
  // allocations below hunt for victims in the tiny pool.
  s.bp->StopFlusher();

  // The next allocations evict frames 0..6, all clean: the flusher, not
  // the evicting thread, paid for their write-back.
  DirtyPages(s, 7, 'R');
  const MetricsSnapshot st = s.Snapshot();
  EXPECT_EQ(st.Total("buffer_pool.evictions"), 8u);
  EXPECT_EQ(st.Total("buffer_pool.dirty_writebacks"), 0u)
      << "evicting thread paid write-backs the flusher should have taken";
}

}  // namespace
}  // namespace nblb
