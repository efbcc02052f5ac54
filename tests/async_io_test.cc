// Batched miss-read tests: DiskManager::SubmitReads/WaitReads on both
// backends (io_uring when the runtime allows it, and the synchronous
// fallback, which is ALWAYS exercised here: each stack sets
// NBLB_IO_BACKEND around its Open), the in-flight cap on one owner's
// tickets, plus injected read failures: frames end up failed (not valid),
// the pool recovers, and no pins leak.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::BackendsToTest;
using nblb::testing::FillPattern;
using nblb::testing::MakeStackWithBackend;
using nblb::testing::Stack;

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

TEST(AsyncIoTest, ForcedFallbackNeverUsesTheRing) {
  Stack s = MakeStackWithBackend("aio_forced", IoBackend::kSync);
  EXPECT_EQ(s.disk->io_backend_in_use(), IoBackend::kSync);
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

// The in-flight cap on one owner: three tickets of 64 one-page runs (192
// runs against io_uring's completion queue of 128) are all submitted
// before any wait, so the third submit reaches the cap and must complete
// the first tickets' reads itself; the tickets are then waited out of
// order, and every page's bytes are checked. So a reap completes other
// tickets' runs, and a wait on a ticket whose runs were already reaped
// returns at once with the right bytes.
TEST(AsyncIoTest, ThreeTicketsPastTheCapAllComplete) {
  for (IoBackend backend : BackendsToTest()) {
    Stack s = MakeStackWithBackend("aio_cap", backend);
    constexpr size_t kTickets = 3;
    constexpr size_t kRuns = 64;
    std::vector<char> page(4096);
    for (size_t i = 0; i < 2 * kTickets * kRuns; ++i) {
      ASSERT_OK_AND_ASSIGN(PageId id, s.disk->AllocatePage());
      FillPattern(page.data(), 4096, id, 'P');
      ASSERT_OK(s.disk->WritePage(id, page.data()));
    }

    const MetricsSnapshot base = s.Snapshot();
    std::vector<std::vector<PageId>> ids(kTickets);
    std::vector<std::vector<std::vector<char>>> bufs(kTickets);
    std::vector<DiskManager::IoTicket> tickets(kTickets);
    for (size_t t = 0; t < kTickets; ++t) {
      std::vector<char*> dsts;
      for (size_t k = 0; k < kRuns; ++k) {
        // Every other page: each read is a run of its own.
        ids[t].push_back(static_cast<PageId>(2 * (t * kRuns + k)));
        bufs[t].emplace_back(4096, '\0');
        dsts.push_back(bufs[t].back().data());
      }
      ASSERT_OK(s.disk->SubmitReads(ids[t].data(), dsts.data(), kRuns,
                                    &tickets[t]));
    }
    for (size_t t : {size_t{2}, size_t{0}, size_t{1}}) {
      ASSERT_OK(s.disk->WaitReads(&tickets[t]));
      for (size_t k = 0; k < kRuns; ++k) {
        const PageId id = ids[t][k];
        FillPattern(page.data(), 4096, id, 'P');
        EXPECT_EQ(std::memcmp(bufs[t][k].data(), page.data(), 4096), 0)
            << "page " << id << " backend " << static_cast<int>(backend);
      }
    }
    const MetricsSnapshot st = s.Snapshot() - base;
    EXPECT_EQ(st.Total("disk.reads"), kTickets * kRuns);
    EXPECT_EQ(st.Total("disk.async_reads"), kTickets * kRuns);
    EXPECT_EQ(st.Total("disk.async_batches"), kTickets);
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
