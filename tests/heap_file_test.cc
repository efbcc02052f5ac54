#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <iterator>
#include <map>

#include "common/bytes.h"
#include "common/rng.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::CopyBatch;
using nblb::testing::MakeStack;
using nblb::testing::Stack;

constexpr size_t kPage = 4096;
constexpr size_t kPageBytes = kPage - HeapFile::kPageHeaderSize;

std::string MakeTuple(size_t size, char fill) { return std::string(size, fill); }

std::string PageCopy(BufferPool* bp, PageId id) {
  auto page = bp->FetchPage(id);
  EXPECT_TRUE(page.ok());
  return std::string(page->data(), bp->page_size());
}

TEST(HeapFileTest, MixedLengthsRoundTrip) {
  Stack s = MakeStack("heap_mixed", kPage, 512);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  Rng rng(7);
  std::map<uint64_t, std::string> written;
  for (int i = 0; i < 400; ++i) {
    size_t len = rng.Uniform(300);
    if (i % 7 == 0) len = 0;
    if (i % 50 == 0) len = HeapFile::MaxTupleSize(kPage);
    const std::string t = rng.NextString(len);
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(t)));
    written[rid.ToU64()] = t;
  }
  EXPECT_EQ(heap->tuple_count(), written.size());
  for (const auto& [tid, t] : written) {
    std::string out;
    ASSERT_OK(heap->Get(Rid::FromU64(tid), &out));
    EXPECT_EQ(out, t);
  }
  size_t seen = 0;
  ASSERT_OK(heap->ForEach([&](const Rid& rid, const Slice& bytes) {
    EXPECT_EQ(bytes.ToString(), written.at(rid.ToU64()));
    ++seen;
    return Status::OK();
  }));
  EXPECT_EQ(seen, written.size());
}

TEST(HeapFileTest, TupleLongerThanAPageIsRejected) {
  Stack s = MakeStack("heap_size", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  const std::string too_big(HeapFile::MaxTupleSize(kPage) + 1, 'a');
  EXPECT_TRUE(heap->Insert(Slice(too_big)).status().IsInvalidArgument());
  EXPECT_TRUE(heap->Append(Slice(too_big)).status().IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice("x")));
  EXPECT_TRUE(heap->Update(rid, Slice(too_big)).status().IsInvalidArgument());
  EXPECT_EQ(heap->tuple_count(), 1u);
}

TEST(HeapFileTest, UpdateThatShrinksKeepsTheRid) {
  Stack s = MakeStack("heap_shrink", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(100, 'a'))));
  ASSERT_OK_AND_ASSIGN(Rid next, heap->Insert(Slice(MakeTuple(10, 'n'))));
  ASSERT_OK_AND_ASSIGN(bool in_place,
                       heap->Update(rid, Slice(MakeTuple(40, 'b'))));
  EXPECT_TRUE(in_place);
  std::string out;
  ASSERT_OK(heap->Get(rid, &out));
  EXPECT_EQ(out, MakeTuple(40, 'b'));
  ASSERT_OK(heap->Get(next, &out));
  EXPECT_EQ(out, MakeTuple(10, 'n'));
  EXPECT_EQ(heap->tuple_count(), 2u);
}

TEST(HeapFileTest, UpdateThatGrowsWithinThePageKeepsTheRid) {
  Stack s = MakeStack("heap_grow", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(40, 'a'))));
  ASSERT_OK_AND_ASSIGN(Rid next, heap->Insert(Slice(MakeTuple(10, 'n'))));
  ASSERT_OK_AND_ASSIGN(bool in_place,
                       heap->Update(rid, Slice(MakeTuple(300, 'b'))));
  EXPECT_TRUE(in_place);
  std::string out;
  ASSERT_OK(heap->Get(rid, &out));
  EXPECT_EQ(out, MakeTuple(300, 'b'));
  ASSERT_OK(heap->Get(next, &out));
  EXPECT_EQ(out, MakeTuple(10, 'n'));
  EXPECT_EQ(heap->pages().size(), 1u);
}

TEST(HeapFileTest, UpdateCompactsDeadBytesToGrowInPlace) {
  // A page filled to the last bytes: growing a tuple only fits once the
  // page's dead bytes (a deleted tuple, a shrunk one) are reclaimed.
  Stack s = MakeStack("heap_compact", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  std::vector<std::string> want;
  for (int i = 0; i < 20; ++i) {
    want.push_back(MakeTuple(200, static_cast<char>('a' + i)));
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(want.back())));
    rids.push_back(rid);
  }
  ASSERT_EQ(heap->pages().size(), 1u);  // 20 * 204 = 4080: exactly full
  ASSERT_OK(heap->Delete(rids[3]));
  want[5] = MakeTuple(20, 'z');
  ASSERT_OK_AND_ASSIGN(bool shrunk, heap->Update(rids[5], Slice(want[5])));
  ASSERT_TRUE(shrunk);
  // 200 + 180 dead bytes: room for 560 bytes in place of tuple 9's 200.
  want[9] = MakeTuple(560, 'G');
  ASSERT_OK_AND_ASSIGN(bool in_place, heap->Update(rids[9], Slice(want[9])));
  EXPECT_TRUE(in_place);
  for (size_t i = 0; i < rids.size(); ++i) {
    std::string out;
    if (i == 3) {
      EXPECT_TRUE(heap->Get(rids[i], &out).IsNotFound());
      continue;
    }
    ASSERT_OK(heap->Get(rids[i], &out));
    EXPECT_EQ(out, want[i]) << "slot " << i;
  }
  ASSERT_OK_AND_ASSIGN(HeapFileStats st, heap->ComputeStats());
  // All but the 20 bytes still free and the freed slot's 4-byte entry.
  EXPECT_EQ(st.used_bytes, kPageBytes - 24);
}

TEST(HeapFileTest, UpdateThatDoesNotFitIsReportedAndWritesNothing) {
  Stack s = MakeStack("heap_nofit", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid,
                         heap->Insert(Slice(MakeTuple(300, 'a' + i))));
    rids.push_back(rid);
  }
  const std::string before = PageCopy(s.bp.get(), rids[0].page);
  // 10 * 304 bytes used; 4080 - 3040 + 300 = 1340 is the most slot 4 can
  // take.
  ASSERT_OK_AND_ASSIGN(bool fits,
                       heap->Update(rids[4], Slice(MakeTuple(1341, 'X'))));
  EXPECT_FALSE(fits);
  EXPECT_EQ(PageCopy(s.bp.get(), rids[0].page), before);
  std::string out;
  ASSERT_OK(heap->Get(rids[4], &out));
  EXPECT_EQ(out, MakeTuple(300, 'e'));
  ASSERT_OK_AND_ASSIGN(bool fits_now,
                       heap->Update(rids[4], Slice(MakeTuple(1340, 'X'))));
  EXPECT_TRUE(fits_now);
  ASSERT_OK(heap->Get(rids[4], &out));
  EXPECT_EQ(out, MakeTuple(1340, 'X'));
}

TEST(HeapFileTest, DeleteMakesSlotUnreachable) {
  Stack s = MakeStack("heap_delete", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(32, 'a'))));
  ASSERT_OK(heap->Delete(rid));
  std::string out;
  EXPECT_TRUE(heap->Get(rid, &out).IsNotFound());
  EXPECT_TRUE(heap->Delete(rid).IsNotFound());
  EXPECT_TRUE(heap->Update(rid, Slice(MakeTuple(32, 'b'))).status().IsNotFound());
  EXPECT_TRUE(heap->Get(Rid(rid.page, 9), &out).IsNotFound());
  EXPECT_EQ(heap->tuple_count(), 0u);
}

TEST(HeapFileTest, AppendOnlyPolicyLeavesHoles) {
  // The paper's §3.1 premise: default placement appends and never backfills,
  // so deletes leave dead space ("locality waste").
  Stack s = MakeStack("heap_appendonly", kPage, 512);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(400, 'x'))));
    rids.push_back(rid);
  }
  const size_t pages_before = heap->pages().size();
  // Delete half, insert the same number back.
  for (int i = 0; i < 50; i += 2) ASSERT_OK(heap->Delete(rids[i]));
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(400, 'y'))));
    // New tuples must land at or after the previous tail (no hole reuse).
    EXPECT_GE(rid.page, rids.back().page);
  }
  EXPECT_GT(heap->pages().size(), pages_before);
  ASSERT_OK_AND_ASSIGN(HeapFileStats st, heap->ComputeStats());
  EXPECT_LT(st.Utilization(), 0.8);
}

TEST(HeapFileTest, ReusePolicyFillsHoles) {
  Stack s = MakeStack("heap_reuse", kPage, 512);
  HeapFileOptions opts;
  opts.reuse_free_slots = true;
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get(), opts));
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(400, 'x'))));
    rids.push_back(rid);
  }
  const size_t pages_before = heap->pages().size();
  for (int i = 0; i < 50; i += 2) ASSERT_OK(heap->Delete(rids[i]));
  // Shorter tuples first, then the same length: every hole is reused, the
  // short ones compacting their page to make the room.
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK(
        heap->Insert(Slice(MakeTuple(i < 10 ? 100 : 400, 'y'))).status());
  }
  EXPECT_EQ(heap->pages().size(), pages_before) << "holes should be reused";
  // Append ignores the policy: it goes to the last page or a new one.
  ASSERT_OK(heap->Delete(rids[1]));
  ASSERT_OK_AND_ASSIGN(Rid appended, heap->Append(Slice(MakeTuple(400, 'z'))));
  EXPECT_NE(appended.page, rids[1].page);
  EXPECT_GE(appended.page, heap->pages()[pages_before - 1]);
}

TEST(HeapFileTest, SpansMultiplePagesAndScansInOrder) {
  Stack s = MakeStack("heap_span", kPage, 512);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  const size_t per_page = kPageBytes / (100 + HeapFile::kSlotEntrySize);
  const size_t n = per_page * 3 + 5;
  for (size_t i = 0; i < n; ++i) {
    std::string t(100, static_cast<char>('a' + (i % 26)));
    ASSERT_OK(heap->Insert(Slice(t)).status());
  }
  EXPECT_EQ(heap->pages().size(), 4u);
  size_t seen = 0;
  ASSERT_OK(heap->ForEach([&](const Rid&, const Slice& bytes) {
    EXPECT_EQ(bytes.size(), 100u);
    EXPECT_EQ(bytes[0], static_cast<char>('a' + (seen % 26)));
    ++seen;
    return Status::OK();
  }));
  EXPECT_EQ(seen, n);
}

TEST(HeapFileTest, AttachRebuildsStateFromDisk) {
  Stack s = MakeStack("heap_attach", kPage, 512);
  PageId first;
  std::map<uint64_t, std::string> expected;
  {
    ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
    first = heap->first_page_id();
    Rng rng(4);
    for (int i = 0; i < 300; ++i) {
      std::string t = rng.NextString(rng.Uniform(120));
      ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(t)));
      expected[rid.ToU64()] = t;
    }
    for (int i = 0; i < 300; i += 7) {
      auto it = expected.begin();
      std::advance(it, rng.Uniform(expected.size()));
      ASSERT_OK(heap->Delete(Rid::FromU64(it->first)));
      expected.erase(it);
    }
  }
  ASSERT_OK(s.bp->FlushAll());
  ASSERT_OK(s.bp->EvictAll());
  for (bool tolerant : {false, true}) {
    SCOPED_TRACE(tolerant ? "AttachTolerant" : "Attach");
    auto attached = tolerant ? HeapFile::AttachTolerant(s.bp.get(), first)
                             : HeapFile::Attach(s.bp.get(), first);
    ASSERT_OK(attached.status());
    auto heap = std::move(attached).ValueOrDie();
    EXPECT_EQ(heap->tuple_count(), expected.size());
    for (const auto& [tid, t] : expected) {
      std::string out;
      ASSERT_OK(heap->Get(Rid::FromU64(tid), &out));
      EXPECT_EQ(out, t);
    }
  }
}

TEST(HeapFileTest, AttachTolerantEndsTheChainAtANonHeapPage) {
  // A crash can leave the tail link pointing at a page that was never
  // written as a heap page: Attach refuses, AttachTolerant stops there and
  // repairs the link.
  Stack s = MakeStack("heap_tolerant", kPage, 512);
  PageId first, lost;
  {
    ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
    first = heap->first_page_id();
    for (int i = 0; i < 60; ++i) {
      ASSERT_OK(heap->Insert(Slice(MakeTuple(200, 'a'))).status());
    }
    ASSERT_EQ(heap->pages().size(), 3u);
    lost = heap->pages()[2];
  }
  {
    ASSERT_OK_AND_ASSIGN(PageGuard page, s.bp->FetchPage(lost));
    std::memset(page.data(), 0, kPage);
    page.MarkDirty();
  }
  EXPECT_TRUE(HeapFile::Attach(s.bp.get(), first).status().IsCorruption());
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::AttachTolerant(s.bp.get(), first));
  EXPECT_EQ(heap->pages().size(), 2u);
  EXPECT_EQ(heap->tuple_count(), 40u);
  ASSERT_OK_AND_ASSIGN(auto again, HeapFile::Attach(s.bp.get(), first));
  EXPECT_EQ(again->pages().size(), 2u);
}

TEST(HeapFileTest, SlotsOutsideThePageAreCorruption) {
  Stack s = MakeStack("heap_bounds", kPage, 64);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  ASSERT_OK_AND_ASSIGN(Rid a, heap->Insert(Slice(MakeTuple(50, 'a'))));
  ASSERT_OK_AND_ASSIGN(Rid b, heap->Insert(Slice(MakeTuple(50, 'b'))));
  {
    ASSERT_OK_AND_ASSIGN(PageGuard page, s.bp->FetchPage(b.page));
    char* entry_b = page.data() + HeapFile::kPageHeaderSize +
                    b.slot * HeapFile::kSlotEntrySize;
    // Slot b's bytes now run past the page end.
    EncodeFixed16(entry_b + 2, 51 + (kPage - DecodeFixed16(entry_b)));
    page.MarkDirty();
  }
  std::string out;
  EXPECT_TRUE(heap->Get(b, &out).IsCorruption());
  EXPECT_TRUE(heap->Update(b, Slice("x")).status().IsCorruption());
  EXPECT_TRUE(heap->Delete(b).IsCorruption());
  EXPECT_TRUE(heap->ForEach([](const Rid&, const Slice&) {
                    return Status::OK();
                  }).IsCorruption());
  EXPECT_TRUE(
      HeapFile::Attach(s.bp.get(), heap->first_page_id()).status().IsCorruption());
  ASSERT_OK(heap->Get(a, &out));  // the intact slot still reads
  EXPECT_EQ(out, MakeTuple(50, 'a'));
  {
    // A free-space boundary past the page end fails the whole page.
    ASSERT_OK_AND_ASSIGN(PageGuard page, s.bp->FetchPage(a.page));
    EncodeFixed16(page.data() + 6, kPage + 1);
    page.MarkDirty();
  }
  EXPECT_TRUE(heap->Get(a, &out).IsCorruption());
}

// One thread drives a pool's heaps, so when the caller's own pins fill the
// pool nothing can free a frame: GetBatch halves its chunks down to one page
// and then fails ResourceExhausted at once, without waiting for pins to
// drop.
TEST(HeapFileTest, GetBatchFailsAtOnceWhenTheCallersPinsFillThePool) {
  Stack s = MakeStack("heap_pinned_full", kPage, 8);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (int i = 0; i < 48; ++i) {
    ASSERT_OK_AND_ASSIGN(
        Rid rid, heap->Insert(Slice(MakeTuple(1000, 'a' + (i % 26)))));
    rids.push_back(rid);
  }
  ASSERT_GE(heap->pages().size(), 12u);
  ASSERT_OK(s.bp->EvictAll());
  // Pin the whole pool with the first 8 heap pages, then read tuples that
  // live on the unpinned last pages.
  std::vector<PageGuard> pins;
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(heap->pages()[i]));
    pins.push_back(std::move(g));
  }
  const std::vector<Rid> want(rids.end() - 8, rids.end());
  std::vector<std::string> out;
  std::vector<Status> statuses;
  const auto start = std::chrono::steady_clock::now();
  const Status st = CopyBatch(heap.get(), want, &out, &statuses);
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_LT(took, std::chrono::milliseconds(100));

  // The failure left nothing pinned: with the pins dropped, the same batch
  // reads every tuple.
  pins.clear();
  ASSERT_OK(CopyBatch(heap.get(), want, &out, &statuses));
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_OK(statuses[i]);
    EXPECT_EQ(out[i], MakeTuple(1000, static_cast<char>('a' + (40 + i) % 26)));
  }
}

TEST(HeapFileTest, UtilizationCountsBytes) {
  Stack s = MakeStack("heap_bytes", kPage, 512);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  uint64_t live_bytes = 0;
  for (size_t i = 0; i < 90; ++i) {
    const size_t len = 10 + 7 * i;
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(len, 'u'))));
    rids.push_back(rid);
    if (i % 3 == 0) {
      ASSERT_OK(heap->Delete(rid));
    } else {
      live_bytes += len + HeapFile::kSlotEntrySize;
    }
  }
  ASSERT_OK_AND_ASSIGN(HeapFileStats st, heap->ComputeStats());
  EXPECT_EQ(st.pages, heap->pages().size());
  EXPECT_EQ(st.tuples, 60u);
  EXPECT_EQ(st.used_bytes, live_bytes);
  EXPECT_EQ(st.capacity_bytes, st.pages * kPageBytes);
  EXPECT_DOUBLE_EQ(st.Utilization(), static_cast<double>(live_bytes) /
                                         static_cast<double>(st.pages *
                                                             kPageBytes));
}

TEST(HeapFileTest, UtilizationReflectsScatteredHotTuples) {
  // Reconstructs the §3.1 measurement: one live ("hot") tuple per page after
  // the cold ones are deleted — low utilization, many pages.
  Stack s = MakeStack("heap_util", kPage, 512);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  std::vector<Rid> rids;
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(MakeTuple(200, 'x'))));
    rids.push_back(rid);
  }
  // Keep exactly one tuple per page.
  for (const Rid& rid : rids) {
    if (rid.slot != 0) ASSERT_OK(heap->Delete(rid));
  }
  ASSERT_OK_AND_ASSIGN(HeapFileStats st, heap->ComputeStats());
  EXPECT_EQ(st.pages, 10u);
  EXPECT_DOUBLE_EQ(st.Utilization(),
                   (200.0 + HeapFile::kSlotEntrySize) / kPageBytes);
}

}  // namespace
}  // namespace nblb
