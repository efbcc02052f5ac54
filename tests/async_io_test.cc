// Async miss-I/O pipeline tests: DiskManager::SubmitReads/WaitReads on
// both backends (io_uring when the runtime allows it, and the preadv
// worker-thread fallback — which is ALWAYS exercised here, regardless of
// liburing/kernel availability, per the forced-backend knob), plus
// injected read failures: frames end up failed (not valid), the pool
// recovers, and no pins leak.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
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

std::vector<PageId> SeedPages(Stack& s, int n) {
  std::vector<PageId> ids;
  for (int i = 0; i < n; ++i) {
    auto g = s.bp->NewPage();
    EXPECT_TRUE(g.ok());
    std::memset(g->data(), 'a' + (g->id() % 26), 64);
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
    TempFile probe("aio_probe");
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

TEST(AsyncIoTest, ForcedFallbackNeverUsesTheRing) {
  Stack s = MakeStackWithBackend("aio_forced", IoBackend::kThreads);
  EXPECT_EQ(s.disk->io_backend_in_use(), IoBackend::kThreads);
  std::vector<PageId> ids = SeedPages(s, 8);
  ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards, s.bp->FetchPages(ids));
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(guards[i].data()[0], 'a' + static_cast<char>(ids[i] % 26));
  }
}

TEST(AsyncIoTest, SubmitWaitMatchesSynchronousReads) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("aio_rw", backend);
    std::vector<PageId> ids = SeedPages(s, 24);

    // Non-contiguous subset: every other page, i.e. all runs have length 1
    // and only the async overlap serves them in parallel.
    std::vector<PageId> want;
    for (size_t i = 0; i < ids.size(); i += 2) want.push_back(ids[i]);
    std::vector<std::vector<char>> bufs(want.size(),
                                        std::vector<char>(4096));
    std::vector<char*> dsts;
    for (auto& b : bufs) dsts.push_back(b.data());

    const MetricsSnapshot base = s.Snapshot();
    DiskManager::IoTicket ticket;
    ASSERT_OK(s.disk->SubmitReads(want.data(), dsts.data(), want.size(),
                                  &ticket));
    EXPECT_TRUE(ticket.valid());
    ASSERT_OK(s.disk->WaitReads(&ticket));
    EXPECT_FALSE(ticket.valid());

    const MetricsSnapshot st = s.Snapshot() - base;
    EXPECT_EQ(st.Total("disk.reads"), want.size());
    EXPECT_EQ(st.Total("disk.async_reads"), want.size());
    EXPECT_EQ(st.Total("disk.async_batches"), 1u);
    for (size_t i = 0; i < want.size(); ++i) {
      std::vector<char> expect(4096);
      ASSERT_OK(s.disk->ReadPage(want[i], expect.data()));
      EXPECT_EQ(std::memcmp(bufs[i].data(), expect.data(), 4096), 0)
          << "page " << want[i] << " backend "
          << static_cast<int>(backend);
    }
  }
}

TEST(AsyncIoTest, SubmitValidatesIdsUpFront) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("aio_oor", backend);
    SeedPages(s, 2);
    std::vector<char> buf(4096);
    char* dst = buf.data();
    const PageId bogus = 999;
    DiskManager::IoTicket ticket;
    EXPECT_TRUE(s.disk->SubmitReads(&bogus, &dst, 1, &ticket)
                    .IsOutOfRange());
    EXPECT_FALSE(ticket.valid());
  }
}

// Injected device failure: shrink the backing file behind the DiskManager's
// back, so in-flight async reads come up short. The batch must fail with
// IOError, the claimed frames must be marked failed (not valid), no pins
// may leak, and once the file is restored the same pages fetch fine.
TEST(AsyncIoTest, ReadErrorMarksFramesFailedAndPoolRecovers) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("aio_fail", backend, 4096, 32);
    std::vector<PageId> ids = SeedPages(s, 12);

    // Chop the file to 4 pages; the DiskManager still believes in 12.
    ASSERT_EQ(::truncate(s.file->path().c_str(), 4 * 4096), 0);

    auto r = s.bp->FetchPages(ids);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();

    // The pool recovered: nothing left pinned, and the surviving prefix is
    // still servable.
    ASSERT_OK(s.bp->EvictAll());
    {
      ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(ids[0]));
      EXPECT_EQ(g.data()[0], 'a' + static_cast<char>(ids[0] % 26));
    }

    // Restore the missing tail (WritePage re-extends: the manager's page
    // count never shrank) and verify a full batch now succeeds — the
    // failed frames healed and were reclaimed.
    std::vector<char> page(4096);
    for (size_t i = 4; i < ids.size(); ++i) {
      std::memset(page.data(), 'a' + static_cast<char>(ids[i] % 26), 64);
      ASSERT_OK(s.disk->WritePage(ids[i], page.data()));
    }
    ASSERT_OK(s.bp->EvictAll());
    ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards,
                         s.bp->FetchPages(ids));
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(guards[i].data()[0], 'a' + static_cast<char>(ids[i] % 26));
    }
  }
}

// The same failure injected under the split Start/Finish API that
// HeapFile::GetBatch uses: the error surfaces from FinishFetchPages and a
// subsequent fetch works after restore.
TEST(AsyncIoTest, StartFinishSurfacesAsyncErrorsAndRecovers) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("aio_startfin", backend, 4096, 32);
    std::vector<PageId> ids = SeedPages(s, 8);
    ASSERT_EQ(::truncate(s.file->path().c_str(), 2 * 4096), 0);

    std::vector<PageGuard> failed;
    ASSERT_OK_AND_ASSIGN(BufferPool::BatchFetch bf,
                         s.bp->StartFetchPages(ids, &failed));
    const Status r = s.bp->FinishFetchPages(std::move(bf));
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.IsIOError());
    EXPECT_TRUE(failed.empty()) << "a failed fetch retains no pins";

    std::vector<char> page(4096);
    for (size_t i = 2; i < ids.size(); ++i) {
      std::memset(page.data(), 'a' + static_cast<char>(ids[i] % 26), 64);
      ASSERT_OK(s.disk->WritePage(ids[i], page.data()));
    }
    ASSERT_OK_AND_ASSIGN(std::vector<PageGuard> guards,
                         s.bp->FetchPages(ids));
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(guards[i].data()[0], 'a' + static_cast<char>(ids[i] % 26));
    }
    for (auto& g : guards) g.Release();
    ASSERT_OK(s.bp->EvictAll());
  }
}

// Capacity-pressure stress: a tiny ring (queue_depth 4) with many threads
// submitting batches far larger than the CQ forces the submit path's
// in-flight cap loop constantly, racing it against concurrent waiters
// draining completions. Regression test for a deadlock where a submitter
// blocked in the cap loop could commit to waiting for completions after
// concurrent waiters had already drained every in-kernel op — leaving it
// asleep on its own unflushed sqes.
TEST(AsyncIoTest, CapacityPressureManyThreadsMakesProgress) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s;
    s.file.reset(new TempFile("aio_pressure"));
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
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::vector<char>> bufs(16, std::vector<char>(4096));
        for (int iter = 0; iter < 300; ++iter) {
          std::vector<PageId> want;
          std::vector<char*> dsts;
          for (size_t i = (t + iter) % 3; i < ids.size(); i += 3) {
            want.push_back(ids[i]);
            dsts.push_back(bufs[want.size() - 1].data());
            if (want.size() == bufs.size()) break;
          }
          DiskManager::IoTicket ticket;
          Status st =
              s.disk->SubmitReads(want.data(), dsts.data(), want.size(),
                                  &ticket);
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
  }
}

std::string Key8(uint64_t k) {
  std::string key(8, '\0');
  for (int b = 0; b < 8; ++b) key[b] = static_cast<char>(k >> (56 - 8 * b));
  return key;
}

// On both io backends, a cold batch of about 1,400 keys over a tree of
// three or more levels that does not fit the pool returns exactly what
// per-key Get returns: every leaf and sibling the batch walks is read from
// disk.
TEST(AsyncIoTest, BTreeColdBatchMatchesPointLookups) {
  for (IoBackend backend : BackendsToTest()) {
    // Frames < file pages, so the batch misses and evicts as it goes.
    Stack s = MakeStackWithBackend("aio_btree", backend, 512, 128);
    BTreeOptions opts;
    opts.key_size = 8;
    ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), opts));
    for (uint64_t k = 0; k < 4000; k += 2) {
      ASSERT_OK(tree->Insert(Slice(Key8(k)), k + 7));
    }
    ASSERT_OK_AND_ASSIGN(BTreeStats tstats, tree->ComputeStats());
    ASSERT_GE(tstats.height, 3u) << "test needs a multi-level tree";

    std::vector<std::string> storage;
    for (uint64_t k = 0; k < 4200; k += 3) storage.push_back(Key8(k));
    storage.push_back(Key8(9999999));  // far past the end
    std::vector<Slice> keys(storage.begin(), storage.end());

    ASSERT_OK(s.bp->FlushAll());
    ASSERT_OK(s.bp->EvictAll());
    std::vector<Result<uint64_t>> out;
    ASSERT_OK(tree->GetBatch(keys, &out));
    ASSERT_EQ(out.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto oracle = tree->Get(keys[i]);
      ASSERT_EQ(out[i].ok(), oracle.ok()) << "key index " << i;
      if (oracle.ok()) {
        EXPECT_EQ(*out[i], *oracle);
      } else {
        EXPECT_TRUE(out[i].status().IsNotFound());
      }
    }
  }
}

}  // namespace
}  // namespace nblb
