// Batched write-pipeline tests: DiskManager::WritePages on both backends
// (io_uring when the runtime allows it, and the synchronous pwritev
// fallback, which is ALWAYS exercised here: each stack sets
// NBLB_IO_BACKEND around its Open), reads and writes sharing io_uring's
// in-flight cap on one owner, the buffer pool's batched write-back paths
// (flush passes, eviction under pressure, FlushAll/Checkpoint group
// drain), injected device write failures (RLIMIT_FSIZE, see
// FileSizeLimit) with pool recovery, failed eviction write-backs that
// keep their pages, one FlushAll as one write batch, a bit-for-bit
// group-fsync vs per-page-FlushPage checkpoint oracle, and a seeded
// interleaving of content writes, flush passes, checkpoints and evictions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::BackendsToTest;
using nblb::testing::FileSizeLimit;
using nblb::testing::FillPattern;
using nblb::testing::MakeStackWithBackend;
using nblb::testing::Stack;

std::vector<PageId> SeedPages(Stack& s, int n, char tag = 'a') {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto g = s.bp->NewPage();
    EXPECT_TRUE(g.ok());
    std::memset(g->data(), tag + (g->id() % 26), 64);
    g->MarkDirty();
    ids.push_back(g->id());
  }
  EXPECT_TRUE(s.bp->FlushAll().ok());
  EXPECT_TRUE(s.bp->EvictAll().ok());
  return ids;
}

TEST(AsyncWriteTest, WritePagesMatchesSynchronousWrites) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_rw", backend);
    std::vector<PageId> ids = SeedPages(s, 24);

    // Non-contiguous subset: every other page — all runs have length 1, so
    // only io_uring's overlap serves them in parallel.
    std::vector<PageId> want;
    for (size_t i = 0; i < ids.size(); i += 2) want.push_back(ids[i]);
    std::vector<std::vector<char>> bufs(want.size(),
                                        std::vector<char>(4096));
    std::vector<const char*> srcs;
    for (size_t i = 0; i < want.size(); ++i) {
      FillPattern(bufs[i].data(), 4096, want[i], 'A');
      srcs.push_back(bufs[i].data());
    }

    const MetricsSnapshot base = s.Snapshot();
    ASSERT_OK(s.disk->WritePages(want.data(), srcs.data(), want.size()));

    const MetricsSnapshot st = s.Snapshot() - base;
    EXPECT_EQ(st.Total("disk.writes"), want.size());
    EXPECT_EQ(st.Total("disk.async_writes"), want.size());
    EXPECT_EQ(st.Total("disk.async_write_batches"), 1u);
    EXPECT_EQ(st.Total("disk.write_runs"), want.size());  // all runs length 1
    for (size_t i = 0; i < want.size(); ++i) {
      std::vector<char> got(4096);
      ASSERT_OK(s.disk->ReadPage(want[i], got.data()));
      EXPECT_EQ(std::memcmp(got.data(), bufs[i].data(), 4096), 0)
          << "page " << want[i] << " backend " << static_cast<int>(backend);
    }
  }
}

TEST(AsyncWriteTest, ContiguousWritesCoalesceIntoOneRun) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_runs", backend);
    std::vector<PageId> ids = SeedPages(s, 16);
    std::vector<std::vector<char>> bufs(ids.size(), std::vector<char>(4096));
    std::vector<const char*> srcs;
    for (size_t i = 0; i < ids.size(); ++i) {
      FillPattern(bufs[i].data(), 4096, ids[i], 'R');
      srcs.push_back(bufs[i].data());
    }
    const MetricsSnapshot base = s.Snapshot();
    ASSERT_OK(s.disk->WritePages(ids.data(), srcs.data(), ids.size()));
    const MetricsSnapshot st = s.Snapshot() - base;
    EXPECT_EQ(st.Total("disk.async_writes"), ids.size());
    // One contiguous span -> one WRITEV.
    EXPECT_EQ(st.Total("disk.write_runs"), 1u);
    for (size_t i = 0; i < ids.size(); ++i) {
      std::vector<char> got(4096);
      ASSERT_OK(s.disk->ReadPage(ids[i], got.data()));
      EXPECT_EQ(std::memcmp(got.data(), bufs[i].data(), 4096), 0);
    }
  }
}

TEST(AsyncWriteTest, ForcedFallbackNeverUsesTheRing) {
  Stack s = MakeStackWithBackend("awr_forced", IoBackend::kSync);
  EXPECT_EQ(s.disk->io_backend_in_use(), IoBackend::kSync);
  std::vector<PageId> ids = SeedPages(s, 8);
  std::vector<char> buf(4096);
  FillPattern(buf.data(), 4096, ids[3], 'F');
  const char* src = buf.data();
  ASSERT_OK(s.disk->WritePages(&ids[3], &src, 1));
  std::vector<char> got(4096);
  ASSERT_OK(s.disk->ReadPage(ids[3], got.data()));
  EXPECT_EQ(std::memcmp(got.data(), buf.data(), 4096), 0);
}

TEST(AsyncWriteTest, WritePagesValidatesIdsUpFront) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_oor", backend);
    SeedPages(s, 2);
    std::vector<char> buf(4096, 'x');
    const char* src = buf.data();
    const PageId bogus = 999;  // writes never extend the file
    const MetricsSnapshot base = s.Snapshot();
    EXPECT_TRUE(s.disk->WritePages(&bogus, &src, 1).IsOutOfRange());
    EXPECT_EQ(s.Counter("disk.async_write_batches", base), 0u);
  }
}

TEST(AsyncWriteTest, WriteErrorSurfacesFromWritePages) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_fail", backend);
    std::vector<PageId> ids = SeedPages(s, 12);

    std::vector<std::vector<char>> bufs(ids.size(), std::vector<char>(4096));
    std::vector<const char*> srcs;
    for (size_t i = 0; i < ids.size(); ++i) {
      FillPattern(bufs[i].data(), 4096, ids[i], 'E');
      srcs.push_back(bufs[i].data());
    }
    {
      FileSizeLimit limit(4 * 4096);
      Status st = s.disk->WritePages(ids.data(), srcs.data(), ids.size());
      ASSERT_FALSE(st.ok()) << "backend " << static_cast<int>(backend);
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
    // Limit lifted: the same batch lands fine and reads back intact.
    ASSERT_OK(s.disk->WritePages(ids.data(), srcs.data(), ids.size()));
    for (size_t i = 0; i < ids.size(); ++i) {
      std::vector<char> got(4096);
      ASSERT_OK(s.disk->ReadPage(ids[i], got.data()));
      EXPECT_EQ(std::memcmp(got.data(), bufs[i].data(), 4096), 0);
    }
  }
}

// The same injection one layer up: FlushAll's batched drain fails, the
// pool re-marks the affected frames dirty (nothing is lost — the frames
// stayed resident), and once the limit lifts a retry flushes everything
// and the data reads back correctly from disk.
TEST(AsyncWriteTest, FlushAllErrorRedirtiesAndPoolRecovers) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_recover", backend, 4096, 32);
    std::vector<PageId> ids = SeedPages(s, 12);
    // Dirty every page with fresh content.
    for (PageId id : ids) {
      auto g = s.bp->FetchPage(id);
      ASSERT_TRUE(g.ok());
      FillPattern(g->data(), 4096, id, 'N');
      g->MarkDirty();
    }
    {
      FileSizeLimit limit(4 * 4096);
      Status st = s.bp->FlushAll();
      ASSERT_FALSE(st.ok());
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
    ASSERT_OK(s.bp->FlushAll());
    ASSERT_OK(s.disk->Sync());
    ASSERT_OK(s.bp->EvictAll());
    for (PageId id : ids) {
      auto g = s.bp->FetchPage(id);
      ASSERT_TRUE(g.ok());
      std::vector<char> expect(4096);
      FillPattern(expect.data(), 4096, id, 'N');
      EXPECT_EQ(std::memcmp(g->data(), expect.data(), 4096), 0)
          << "page " << id << " backend " << static_cast<int>(backend);
    }
  }
}

TEST(AsyncWriteTest, FlusherDrainsThroughBatchedWrites) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_flusher", backend, 4096, 64);
    std::vector<PageId> ids;
    for (int i = 0; i < 32; ++i) {
      auto g = s.bp->NewPage();
      ASSERT_TRUE(g.ok());
      FillPattern(g->data(), 4096, g->id(), 'B');
      g->MarkDirty();
      ids.push_back(g->id());
    }
    ASSERT_OK_AND_ASSIGN(size_t written, s.bp->FlushColdPages());
    EXPECT_EQ(written, ids.size());
    ASSERT_GE(s.Counter("buffer_pool.flusher_pages"), ids.size());

    const MetricsSnapshot st = s.Snapshot();
    EXPECT_EQ(st.Total("buffer_pool.evictions"), 0u);
    EXPECT_GE(st.Total("buffer_pool.flusher_coalesced_runs"), 1u);
    // Sorted contiguous dirty pages coalesce: far fewer runs than pages.
    EXPECT_LT(st.Total("buffer_pool.flusher_coalesced_runs"), ids.size());
    EXPECT_GE(st.Total("disk.async_writes"), ids.size());
    EXPECT_GE(st.Total("disk.write_runs"), 1u);
    EXPECT_GT(st.Total("disk.async_write_batches"), 0u);

    ASSERT_OK(s.bp->FlushAll());
    ASSERT_OK(s.bp->EvictAll());
    for (PageId id : ids) {
      auto g = s.bp->FetchPage(id);
      ASSERT_TRUE(g.ok());
      std::vector<char> expect(4096);
      FillPattern(expect.data(), 4096, id, 'B');
      EXPECT_EQ(std::memcmp(g->data(), expect.data(), 4096), 0);
    }
  }
}

// Eviction under memory pressure: a batch fetch whose victims are dirty
// hands ALL of them to one async write-back group before its reads go out.
TEST(AsyncWriteTest, EvictionDirtyVictimsUseBatchedWriteBack) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_evict", backend, 4096, 16);
    std::vector<PageId> ids = SeedPages(s, 32);

    // Re-dirty the first half (fills the 16-frame pool)...
    for (size_t i = 0; i < 16; ++i) {
      auto g = s.bp->FetchPage(ids[i]);
      ASSERT_TRUE(g.ok());
      FillPattern(g->data(), 4096, ids[i], 'V');
      g->MarkDirty();
    }
    const MetricsSnapshot base = s.Snapshot();
    // ...then batch-fetch the second half: every claim displaces a dirty
    // victim, and the victims must drain as one submitted group.
    std::vector<PageId> second(ids.begin() + 16, ids.end());
    {
      ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards,
                           s.bp->FetchPages(second));
      ASSERT_EQ(guards.size(), second.size());
    }
    const MetricsSnapshot ds = s.Snapshot() - base;
    EXPECT_GE(ds.Total("disk.async_writes"), 2u)
        << "backend " << static_cast<int>(backend);
    EXPECT_GT(ds.Total("disk.async_write_batches"), 0u);

    // The displaced versions are on disk: fetch them back and verify.
    for (size_t i = 0; i < 16; ++i) {
      auto g = s.bp->FetchPage(ids[i]);
      ASSERT_TRUE(g.ok());
      std::vector<char> expect(4096);
      FillPattern(expect.data(), 4096, ids[i], 'V');
      EXPECT_EQ(std::memcmp(g->data(), expect.data(), 4096), 0)
          << "page " << ids[i];
    }
  }
}

TEST(AsyncWriteTest, FlushAllDrainsDirtyPagesAsOneWriteBatch) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_flushall", backend);
    std::vector<PageId> ids = SeedPages(s, 8);
    for (PageId id : ids) {
      auto g = s.bp->FetchPage(id);
      ASSERT_TRUE(g.ok());
      g->MarkDirty();
    }
    const MetricsSnapshot base = s.Snapshot();
    ASSERT_OK(s.bp->FlushAll());
    const MetricsSnapshot ds = s.Snapshot() - base;
    EXPECT_EQ(ds.Total("disk.async_write_batches"), 1u);
    EXPECT_EQ(ds.Total("disk.async_writes"), ids.size());
  }
}

// Group-fsync checkpoint oracle: the batched FlushAll drain + one Sync
// must leave the backing file BIT-FOR-BIT identical to per-page
// FlushPage + Sync over the same pool contents.
TEST(AsyncWriteTest, GroupFsyncCheckpointMatchesPerPageFlushBitForBit) {
  for (IoBackend backend : BackendsToTest()) {
    Stack a = MakeStackWithBackend("awr_ckpt_a", backend, 4096, 64);
    Stack b = MakeStackWithBackend("awr_ckpt_b", backend, 4096, 64);
    std::vector<PageId> ids_a, ids_b;
    for (int i = 0; i < 40; ++i) {
      auto ga = a.bp->NewPage();
      auto gb = b.bp->NewPage();
      ASSERT_TRUE(ga.ok() && gb.ok());
      ASSERT_EQ(ga->id(), gb->id());
      FillPattern(ga->data(), 4096, ga->id(), 'C');
      FillPattern(gb->data(), 4096, gb->id(), 'C');
      ga->MarkDirty();
      gb->MarkDirty();
      ids_a.push_back(ga->id());
      ids_b.push_back(gb->id());
    }
    // A: per-page FlushPage, then fsync. B: one batched drain + one fsync.
    for (PageId id : ids_a) ASSERT_OK(a.bp->FlushPage(id));
    ASSERT_OK(a.disk->Sync());
    ASSERT_OK(b.bp->FlushAll());
    ASSERT_OK(b.disk->Sync());

    std::ifstream fa(a.file->path(), std::ios::binary);
    std::ifstream fb(b.file->path(), std::ios::binary);
    std::vector<char> ca((std::istreambuf_iterator<char>(fa)),
                         std::istreambuf_iterator<char>());
    std::vector<char> cb((std::istreambuf_iterator<char>(fb)),
                         std::istreambuf_iterator<char>());
    ASSERT_EQ(ca.size(), cb.size());
    EXPECT_EQ(std::memcmp(ca.data(), cb.data(), ca.size()), 0)
        << "backend " << static_cast<int>(backend);
  }
}

// A dirty page displaced by a fetch, or dropped by EvictAll, whose
// write-back fails stays in the pool: the call returns the write error, and
// once the device recovers the page's last write reaches disk. The helpers
// below set up an 8-frame pool holding pages 8..15 of a 16-page file, each
// dirty with pattern 'L'; under FileSizeLimit(4) every write to them fails.
std::vector<PageId> FillPoolWithDirtyPages(Stack& s) {
  std::vector<PageId> ids = SeedPages(s, 16);
  for (size_t i = 8; i < ids.size(); ++i) {
    auto g = s.bp->FetchPage(ids[i]);
    EXPECT_TRUE(g.ok());
    FillPattern(g->data(), 4096, ids[i], 'L');
    g->MarkDirty();
  }
  return ids;
}

/// Flushes, evicts and re-reads pages 8..15: each must hold its last write.
void ExpectLastWritesSurvive(Stack& s, const std::vector<PageId>& ids,
                             IoBackend backend) {
  ASSERT_OK(s.bp->FlushAll());
  ASSERT_OK(s.bp->EvictAll());
  for (size_t i = 8; i < ids.size(); ++i) {
    auto g = s.bp->FetchPage(ids[i]);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    std::vector<char> expect(4096);
    FillPattern(expect.data(), 4096, ids[i], 'L');
    EXPECT_EQ(std::memcmp(g->data(), expect.data(), 4096), 0)
        << "page " << ids[i] << " lost its last write, backend "
        << static_cast<int>(backend);
  }
}

TEST(AsyncWriteTest, FailedEvictionWriteBackKeepsThePage) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_wb_single", backend, 4096, 8);
    std::vector<PageId> ids = FillPoolWithDirtyPages(s);
    const MetricsSnapshot base = s.Snapshot();
    {
      FileSizeLimit limit(4 * 4096);
      // A single miss displaces one dirty page, whose write fails.
      auto g = s.bp->FetchPage(ids[0]);
      ASSERT_FALSE(g.ok());
      EXPECT_TRUE(g.status().IsIOError()) << g.status().ToString();
    }
    EXPECT_EQ(s.Counter("buffer_pool.evictions", base), 0u);
    ExpectLastWritesSurvive(s, ids, backend);
  }
}

TEST(AsyncWriteTest, FailedBatchEvictionWriteBackKeepsThePages) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_wb_batch", backend, 4096, 8);
    std::vector<PageId> ids = FillPoolWithDirtyPages(s);
    const MetricsSnapshot base = s.Snapshot();
    {
      FileSizeLimit limit(4 * 4096);
      // Four misses displace four dirty pages, written as one group.
      auto guards = s.bp->FetchPages({ids[0], ids[1], ids[2], ids[3]});
      ASSERT_FALSE(guards.ok());
      EXPECT_TRUE(guards.status().IsIOError()) << guards.status().ToString();
    }
    EXPECT_EQ(s.Counter("buffer_pool.evictions", base), 0u);
    ExpectLastWritesSurvive(s, ids, backend);
  }
}

TEST(AsyncWriteTest, FailedEvictAllWriteBackKeepsThePage) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_wb_evictall", backend, 4096, 8);
    std::vector<PageId> ids = FillPoolWithDirtyPages(s);
    {
      FileSizeLimit limit(4 * 4096);
      const Status st = s.bp->EvictAll();
      ASSERT_FALSE(st.ok());
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
    ExpectLastWritesSurvive(s, ids, backend);
  }
}

// A seeded interleaving, on one thread, of content writes (single and
// batched fetches, some pins held across steps), flush passes, checkpoints
// (FlushAll + Sync) and EvictAll, in a miss regime (working set 2x the
// pool), so every write-back path meets dirty pages, pinned frames and
// eviction. Writers keep every page's content a deterministic function of
// its id, so the end state must read back exact bytes.
TEST(AsyncWriteTest, FlushPassCheckpointEvictionInterleaving) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_interleave", backend, 4096, 64);
    std::vector<PageId> ids = SeedPages(s, 128);

    uint64_t rng = 0x9e3779b97f4a7c15ull;
    const auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    const auto write = [](PageGuard& g) {
      FillPattern(g.data(), 4096, g.id(), 'W');
      g.MarkDirty();
    };
    std::vector<PageGuard> held;  // pins kept across steps
    uint64_t passes = 0, checkpoints = 0, evictions = 0, busy = 0;
    for (int step = 0; step < 6000; ++step) {
      const uint64_t action = next() % 100;
      if (action < 50) {
        auto g = s.bp->FetchPage(ids[next() % ids.size()]);
        ASSERT_TRUE(g.ok()) << g.status().ToString();
        if (next() % 2 == 0) write(*g);
        if (held.size() < 4 && next() % 8 == 0) held.push_back(std::move(*g));
      } else if (action < 75) {
        std::vector<PageId> want;
        for (int k = 0; k < 8; ++k) want.push_back(ids[next() % ids.size()]);
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        auto guards = s.bp->FetchPages(want);
        ASSERT_TRUE(guards.ok()) << guards.status().ToString();
        for (PageGuard& g : *guards) {
          if (next() % 2 == 0) write(g);
        }
      } else if (action < 85) {
        ASSERT_OK(s.bp->FlushColdPages().status());
        ++passes;
      } else if (action < 92) {
        ASSERT_OK(s.bp->FlushAll());
        ASSERT_OK(s.disk->Sync());
        ++checkpoints;
      } else if (action < 96) {
        const Status st = s.bp->EvictAll();
        if (held.empty()) {
          ASSERT_OK(st);
          ++evictions;
        } else {
          ASSERT_TRUE(st.IsBusy()) << st.ToString();
          ++busy;
        }
      } else if (!held.empty()) {
        held.erase(held.begin() + static_cast<long>(next() % held.size()));
      }
    }
    held.clear();
    EXPECT_GT(passes, 0u);
    EXPECT_GT(checkpoints, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(busy, 0u);
    EXPECT_GT(s.Counter("buffer_pool.dirty_writebacks"), 0u);
    EXPECT_GT(s.Counter("buffer_pool.flusher_pages"), 0u);

    ASSERT_OK(s.bp->FlushAll());
    ASSERT_OK(s.bp->EvictAll());
    for (PageId id : ids) {
      auto g = s.bp->FetchPage(id);
      ASSERT_TRUE(g.ok());
      // Every page is either its seed content (never touched by a writer)
      // or the deterministic writer pattern — both are functions of id.
      std::vector<char> seed(4096, 0);
      std::memset(seed.data(), 'a' + static_cast<char>(id % 26), 64);
      std::vector<char> written(4096);
      FillPattern(written.data(), 4096, id, 'W');
      const bool ok =
          std::memcmp(g->data(), seed.data(), 4096) == 0 ||
          std::memcmp(g->data(), written.data(), 4096) == 0;
      EXPECT_TRUE(ok) << "torn page " << id << " backend "
                      << static_cast<int>(backend);
    }
  }
}

// Reads and writes share io_uring's in-flight cap on one owner: two read
// tickets of 64 one-page runs fill the completion queue (128), then one
// WritePages of 64 one-page runs on disjoint pages has to complete those
// reads to get its own writes in flight. The read tickets are waited after
// the write, out of order, and every written page is read back.
TEST(AsyncWriteTest, ReadsAndWritesShareTheCap) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_cap", backend);
    constexpr size_t kRuns = 64;
    // Pages [0, 256) are read (even ids), [256, 384) are written (even ids).
    std::vector<char> page(4096);
    for (size_t i = 0; i < 6 * kRuns; ++i) {
      ASSERT_OK_AND_ASSIGN(PageId id, s.disk->AllocatePage());
      FillPattern(page.data(), 4096, id, 'a');
      ASSERT_OK(s.disk->WritePage(id, page.data()));
    }

    std::vector<std::vector<PageId>> read_ids(2);
    std::vector<std::vector<std::vector<char>>> bufs(2);
    std::vector<DiskManager::IoTicket> tickets(2);
    for (size_t t = 0; t < 2; ++t) {
      std::vector<char*> dsts;
      for (size_t k = 0; k < kRuns; ++k) {
        read_ids[t].push_back(static_cast<PageId>(2 * (t * kRuns + k)));
        bufs[t].emplace_back(4096, '\0');
        dsts.push_back(bufs[t].back().data());
      }
      ASSERT_OK(s.disk->SubmitReads(read_ids[t].data(), dsts.data(), kRuns,
                                    &tickets[t]));
    }

    std::vector<PageId> write_ids;
    std::vector<std::vector<char>> srcs_bufs;
    std::vector<const char*> srcs;
    for (size_t k = 0; k < kRuns; ++k) {
      write_ids.push_back(static_cast<PageId>(4 * kRuns + 2 * k));
      srcs_bufs.emplace_back(4096);
      FillPattern(srcs_bufs.back().data(), 4096, write_ids.back(), 'M');
    }
    for (const auto& b : srcs_bufs) srcs.push_back(b.data());
    ASSERT_OK(s.disk->WritePages(write_ids.data(), srcs.data(), kRuns));

    for (size_t t : {size_t{1}, size_t{0}}) {
      ASSERT_OK(s.disk->WaitReads(&tickets[t]));
      for (size_t k = 0; k < kRuns; ++k) {
        FillPattern(page.data(), 4096, read_ids[t][k], 'a');
        EXPECT_EQ(std::memcmp(bufs[t][k].data(), page.data(), 4096), 0)
            << "page " << read_ids[t][k] << " backend "
            << static_cast<int>(backend);
      }
    }
    for (size_t k = 0; k < kRuns; ++k) {
      ASSERT_OK(s.disk->ReadPage(write_ids[k], page.data()));
      EXPECT_EQ(std::memcmp(page.data(), srcs[k], 4096), 0)
          << "page " << write_ids[k] << " backend "
          << static_cast<int>(backend);
    }
  }
}

}  // namespace
}  // namespace nblb
