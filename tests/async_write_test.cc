// Async write-pipeline tests: DiskManager::SubmitWrites/WaitWrites on both
// backends (io_uring when the runtime allows it, and the pwritev
// worker-thread fallback — ALWAYS exercised here via the forced-backend
// knob), the buffer pool's batched write-back paths (flush passes,
// eviction under pressure, FlushAll/Checkpoint group drain), injected
// device write failures (RLIMIT_FSIZE: writes past the limit fail EFBIG —
// unlike truncation, which a pwrite would silently undo by re-extending
// the file) with pool recovery, failed eviction write-backs that keep
// their pages, one FlushAll as one write batch, a bit-for-bit group-fsync
// vs per-page-FlushPage checkpoint oracle, and a seeded interleaving of
// content writes, flush passes, checkpoints and evictions.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::Stack;
using nblb::testing::TempFile;

Stack MakeStackWithBackend(const std::string& tag, IoBackend backend,
                           size_t page_size = 4096, size_t frames = 64) {
  Stack s;
  s.file.reset(new TempFile(tag));
  AsyncIoOptions aio;
  aio.backend = backend;
  s.disk.reset(new DiskManager(s.file->path(), page_size, nullptr,
                               /*direct_io=*/false, aio));
  EXPECT_TRUE(s.disk->Open().ok());
  s.bp.reset(new BufferPool(s.disk.get(), frames));
  s.Register();
  return s;
}

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

// The backends under test: the fallback always, io_uring when this runtime
// actually came up with a ring (containers may seccomp-block it).
std::vector<IoBackend> BackendsToTest() {
  std::vector<IoBackend> backends = {IoBackend::kThreads};
  {
    TempFile probe("awr_probe");
    AsyncIoOptions aio;
    aio.backend = IoBackend::kUring;
    DiskManager disk(probe.path(), 4096, nullptr, false, aio);
    EXPECT_TRUE(disk.Open().ok());
    if (disk.io_backend_in_use() == IoBackend::kUring) {
      backends.push_back(IoBackend::kUring);
    }
  }
  return backends;
}

/// Fills `buf` with a page-sized pattern derived from (id, salt).
void FillPattern(char* buf, size_t page_size, PageId id, char salt) {
  std::memset(buf, salt + static_cast<char>(id % 26), page_size);
  std::memcpy(buf, &id, sizeof(id));
}

TEST(AsyncWriteTest, SubmitWaitMatchesSynchronousWrites) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_rw", backend);
    std::vector<PageId> ids = SeedPages(s, 24);

    // Non-contiguous subset: every other page — all runs have length 1, so
    // only the async overlap serves them in parallel.
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
    DiskManager::IoTicket ticket;
    ASSERT_OK(s.disk->SubmitWrites(want.data(), srcs.data(), want.size(),
                                   &ticket));
    EXPECT_TRUE(ticket.valid());
    ASSERT_OK(s.disk->WaitWrites(&ticket));
    EXPECT_FALSE(ticket.valid());

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
    DiskManager::IoTicket ticket;
    ASSERT_OK(s.disk->SubmitWrites(ids.data(), srcs.data(), ids.size(),
                                   &ticket));
    ASSERT_OK(s.disk->WaitWrites(&ticket));
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
  Stack s = MakeStackWithBackend("awr_forced", IoBackend::kThreads);
  EXPECT_EQ(s.disk->io_backend_in_use(), IoBackend::kThreads);
  std::vector<PageId> ids = SeedPages(s, 8);
  std::vector<char> buf(4096);
  FillPattern(buf.data(), 4096, ids[3], 'F');
  const char* src = buf.data();
  DiskManager::IoTicket ticket;
  ASSERT_OK(s.disk->SubmitWrites(&ids[3], &src, 1, &ticket));
  ASSERT_OK(s.disk->WaitWrites(&ticket));
  std::vector<char> got(4096);
  ASSERT_OK(s.disk->ReadPage(ids[3], got.data()));
  EXPECT_EQ(std::memcmp(got.data(), buf.data(), 4096), 0);
}

TEST(AsyncWriteTest, AutoEnvLeavesAnExplicitThreadsBackendAlone) {
  // NBLB_IO_BACKEND=auto (what CI's io_uring legs set) must not turn an
  // open that asked for the fallback into a ring: only threads|uring
  // override the option.
  const char* prior = std::getenv("NBLB_IO_BACKEND");
  const std::string saved = prior != nullptr ? prior : "";
  ::setenv("NBLB_IO_BACKEND", "auto", 1);
  Stack s = MakeStackWithBackend("awr_auto_env", IoBackend::kThreads);
  const IoBackend in_use = s.disk->io_backend_in_use();
  if (prior != nullptr) {
    ::setenv("NBLB_IO_BACKEND", saved.c_str(), 1);
  } else {
    ::unsetenv("NBLB_IO_BACKEND");
  }
  EXPECT_EQ(in_use, IoBackend::kThreads);
}

TEST(AsyncWriteTest, SubmitValidatesIdsUpFront) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("awr_oor", backend);
    SeedPages(s, 2);
    std::vector<char> buf(4096, 'x');
    const char* src = buf.data();
    const PageId bogus = 999;  // writes never extend the file
    DiskManager::IoTicket ticket;
    EXPECT_TRUE(s.disk->SubmitWrites(&bogus, &src, 1, &ticket)
                    .IsOutOfRange());
    EXPECT_FALSE(ticket.valid());
  }
}

/// Scoped write-failure injection: caps the maximum file size the process
/// may produce, so any write at an offset past `pages` pages fails with
/// EFBIG (SIGXFSZ is ignored for the test's duration). Truncating the
/// backing file would NOT inject a write error — pwrite quietly
/// re-extends — which is why error injection works on the rlimit instead.
class FileSizeLimit {
 public:
  FileSizeLimit(size_t pages, size_t page_size) {
    prev_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &prev_);
    struct rlimit lim = prev_;
    lim.rlim_cur = static_cast<rlim_t>(pages * page_size);
    ::setrlimit(RLIMIT_FSIZE, &lim);
  }
  ~FileSizeLimit() { Release(); }
  void Release() {
    if (released_) return;
    released_ = true;
    ::setrlimit(RLIMIT_FSIZE, &prev_);
    ::signal(SIGXFSZ, prev_handler_);
  }

 private:
  struct rlimit prev_;
  void (*prev_handler_)(int) = SIG_DFL;
  bool released_ = false;
};

TEST(AsyncWriteTest, WriteErrorSurfacesThroughWaitWrites) {
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
      FileSizeLimit limit(/*pages=*/4, 4096);
      DiskManager::IoTicket ticket;
      ASSERT_OK(s.disk->SubmitWrites(ids.data(), srcs.data(), ids.size(),
                                     &ticket));
      Status st = s.disk->WaitWrites(&ticket);
      ASSERT_FALSE(st.ok()) << "backend " << static_cast<int>(backend);
      EXPECT_TRUE(st.IsIOError()) << st.ToString();
    }
    // Limit lifted: the same batch lands fine and reads back intact.
    DiskManager::IoTicket ticket;
    ASSERT_OK(s.disk->SubmitWrites(ids.data(), srcs.data(), ids.size(),
                                   &ticket));
    ASSERT_OK(s.disk->WaitWrites(&ticket));
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
      FileSizeLimit limit(/*pages=*/4, 4096);
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
  Stack s = MakeStackWithBackend("awr_flushall", IoBackend::kThreads);
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
      FileSizeLimit limit(/*pages=*/4, 4096);
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
      FileSizeLimit limit(/*pages=*/4, 4096);
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
      FileSizeLimit limit(/*pages=*/4, 4096);
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

// Capacity-pressure stress for the WRITE path sharing the read path's
// in-flight cap: a tiny ring with reads and writes racing from several
// threads must make progress (regression guard for the PR 4 cap-loop
// deadlock, now reachable from two directions). Readers and writers use
// disjoint page ranges so content checks stay exact.
TEST(AsyncWriteTest, CapacityPressureMixedReadWriteStress) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s;
    s.file.reset(new TempFile("awr_pressure"));
    AsyncIoOptions aio;
    aio.backend = backend;
    aio.queue_depth = 4;
    s.disk.reset(new DiskManager(s.file->path(), 4096, nullptr,
                                 /*direct_io=*/false, aio));
    ASSERT_OK(s.disk->Open());
    s.bp.reset(new BufferPool(s.disk.get(), 64));
    s.Register();
    std::vector<PageId> ids = SeedPages(s, 48);

    std::atomic<uint64_t> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {  // writers: pages [0, 24)
        std::vector<std::vector<char>> bufs(12, std::vector<char>(4096));
        for (int iter = 0; iter < 200; ++iter) {
          std::vector<PageId> want;
          std::vector<const char*> srcs;
          for (size_t i = t; i < 24; i += 2) {
            FillPattern(bufs[want.size()].data(), 4096, ids[i], 'M');
            srcs.push_back(bufs[want.size()].data());
            want.push_back(ids[i]);
          }
          DiskManager::IoTicket ticket;
          Status st = s.disk->SubmitWrites(want.data(), srcs.data(),
                                           want.size(), &ticket);
          if (st.ok()) st = s.disk->WaitWrites(&ticket);
          if (!st.ok()) errors.fetch_add(1);
        }
      });
    }
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {  // readers: pages [24, 48)
        std::vector<std::vector<char>> bufs(12, std::vector<char>(4096));
        for (int iter = 0; iter < 200; ++iter) {
          std::vector<PageId> want;
          std::vector<char*> dsts;
          for (size_t i = 24 + t; i < 48; i += 2) {
            dsts.push_back(bufs[want.size()].data());
            want.push_back(ids[i]);
          }
          DiskManager::IoTicket ticket;
          Status st = s.disk->SubmitReads(want.data(), dsts.data(),
                                          want.size(), &ticket);
          if (st.ok()) st = s.disk->WaitReads(&ticket);
          if (!st.ok()) {
            errors.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < want.size(); ++i) {
            if (bufs[i][0] != 'a' + static_cast<char>(want[i] % 26)) {
              errors.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(errors.load(), 0u) << "backend " << static_cast<int>(backend);

    // Writer pages hold exactly the last written pattern.
    for (size_t i = 0; i < 24; ++i) {
      std::vector<char> got(4096), expect(4096);
      ASSERT_OK(s.disk->ReadPage(ids[i], got.data()));
      FillPattern(expect.data(), 4096, ids[i], 'M');
      EXPECT_EQ(std::memcmp(got.data(), expect.data(), 4096), 0);
    }
  }
}

}  // namespace
}  // namespace nblb
