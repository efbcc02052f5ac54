// Seeded mutational fuzz tests for the parsers that read heap pages from
// disk: the slotted heap page (every HeapFile read and write), the
// heap-chain walk (HeapFile::Attach / AttachTolerant), and Shard::Open's
// crash path, which walks the chain tolerantly and rebuilds the index from
// every tuple. Pages are mutated in their slot offsets and lengths, slot
// count, free boundary, live count, next link and page type, and by random
// bit flips and byte stores. Seeds and iteration counts are fixed, so a
// failure reproduces.
//
// Oracle: nothing crashes (the asan-ubsan CI job runs this binary under
// AddressSanitizer and UBSan), every call returns an error status or a
// result, and
//   - a slot none of whose bytes were mutated (its page header, its
//     directory entry, its tuple bytes) reads back exactly the bytes
//     written to it, through Get, GetBatch and ForEach;
//   - ForEach yields only slices that lie inside their page;
//   - after updates, deletes and inserts over the mutated heap, every
//     tuple on a page no mutation touched still reads back exactly;
//   - a shard that opens over a mutated data file answers each get with an
//     error or a row of the key asked for.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "shard/shard.h"
#include "storage/heap_file.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::CopyBatch;
using nblb::testing::MakeStack;
using nblb::testing::Stack;

constexpr size_t kPage = 4096;
constexpr size_t kHeader = HeapFile::kPageHeaderSize;
constexpr size_t kEntry = HeapFile::kSlotEntrySize;

/// Tuple lengths: mostly row-sized, sometimes empty or up to a page.
size_t RandomLength(Rng* rng) {
  switch (rng->Uniform(8)) {
    case 0: return 0;
    case 1: return HeapFile::MaxTupleSize(kPage) - rng->Uniform(64);
    case 2: return rng->Uniform(HeapFile::MaxTupleSize(kPage) + 1);
    default: return 1 + rng->Uniform(200);
  }
}

/// rid -> the bytes last written there.
using Model = std::map<uint64_t, std::string>;

/// A multi-page heap of random-length tuples: some deleted, some updated
/// smaller or larger in place, some moved (appended anew, old slot
/// deleted) because they outgrew their page.
void BuildCorpus(HeapFile* heap, Rng* rng, Model* model) {
  for (int i = 0; i < 160; ++i) {
    const std::string t = rng->NextString(RandomLength(rng));
    ASSERT_OK_AND_ASSIGN(Rid rid, heap->Insert(Slice(t)));
    (*model)[rid.ToU64()] = t;
  }
  int moves = 0;
  for (int i = 0; i < 120; ++i) {
    auto it = model->begin();
    std::advance(it, static_cast<long>(rng->Uniform(model->size())));
    const Rid rid = Rid::FromU64(it->first);
    const size_t len = it->second.size();
    if (rng->Uniform(4) == 0) {
      ASSERT_OK(heap->Delete(rid));
      model->erase(it);
      continue;
    }
    const bool grow = rng->Bernoulli(0.6);
    const std::string t = rng->NextString(
        grow ? std::min(HeapFile::MaxTupleSize(kPage),
                        len + 1 + rng->Uniform(400))
             : rng->Uniform(len + 1));
    ASSERT_OK_AND_ASSIGN(bool in_place, heap->Update(rid, Slice(t)));
    if (in_place) {
      it->second = t;
      continue;
    }
    ASSERT_OK_AND_ASSIGN(Rid moved, heap->Append(Slice(t)));
    ASSERT_OK(heap->Delete(rid));
    model->erase(it);
    (*model)[moved.ToU64()] = t;
    ++moves;
  }
  ASSERT_GT(moves, 0);
  ASSERT_GE(heap->pages().size(), 8u);
}

/// Applies one mutation to the page bytes `p`, recording the offsets it
/// touched.
void MutatePage(char* p, PageId num_pages, PageId first, Rng* rng,
                std::set<size_t>* touched) {
  static const uint16_t kU16[] = {0,      1,      2,      15,     16,
                                  17,     0x7fff, 0x8000, 0xfffe, 0xffff,
                                  kPage - 1, kPage, kPage + 1};
  auto store16 = [&](size_t at, uint16_t v) {
    EncodeFixed16(p + at, v);
    touched->insert(at);
    touched->insert(at + 1);
  };
  auto pick16 = [&](uint16_t cur) -> uint16_t {
    switch (rng->Uniform(3)) {
      case 0: return kU16[rng->Uniform(std::size(kU16))];
      case 1: return static_cast<uint16_t>(cur + rng->UniformRange(-4, 4));
      default: return static_cast<uint16_t>(rng->NextU64());
    }
  };
  const size_t slots = std::min<size_t>(DecodeFixed16(p + 2),
                                        (kPage - kHeader) / kEntry);
  switch (rng->Uniform(9)) {
    case 0:    // a slot's offset
    case 1: {  // a slot's length
      if (slots == 0) break;
      const size_t at = kHeader + rng->Uniform(slots) * kEntry +
                        (rng->Uniform(2) == 0 ? 0 : 2);
      store16(at, pick16(DecodeFixed16(p + at)));
      break;
    }
    case 2:
      store16(2, pick16(DecodeFixed16(p + 2)));  // slot count
      break;
    case 3:
      store16(6, pick16(DecodeFixed16(p + 6)));  // free boundary
      break;
    case 4:
      store16(4, pick16(DecodeFixed16(p + 4)));  // live count
      break;
    case 5: {  // next link: a cycle, past the end, or anywhere
      const PageId choices[] = {kInvalidPageId, first, num_pages,
                                num_pages - 1,
                                static_cast<PageId>(rng->Uniform(num_pages)),
                                static_cast<PageId>(rng->NextU64())};
      EncodeFixed32(p + 8, choices[rng->Uniform(std::size(choices))]);
      for (size_t i = 8; i < 12; ++i) touched->insert(i);
      break;
    }
    case 6: {  // page type
      const uint16_t types[] = {kPageTypeFree, kPageTypeMeta,
                                kPageTypeBTreeInternal, kPageTypeBTreeLeaf,
                                static_cast<uint16_t>(rng->NextU64())};
      store16(0, types[rng->Uniform(std::size(types))]);
      break;
    }
    case 7: {  // bit flip
      const size_t at = rng->Uniform(kPage);
      p[at] = static_cast<char>(p[at] ^ (1u << rng->Uniform(8)));
      touched->insert(at);
      break;
    }
    default: {  // byte store
      static const uint8_t kInteresting[] = {0x00, 0x01, 0x0f, 0x10,
                                             0x7f, 0x80, 0xfe, 0xff};
      const size_t at = rng->Uniform(kPage);
      p[at] = static_cast<char>(rng->Bernoulli(0.5)
                                    ? kInteresting[rng->Uniform(8)]
                                    : rng->NextU64());
      touched->insert(at);
      break;
    }
  }
}

bool Touches(const std::set<size_t>& touched, size_t lo, size_t hi) {
  auto it = touched.lower_bound(lo);
  return it != touched.end() && *it < hi;
}

TEST(HeapPageFuzzTest, MutatedPagesReadBackWrittenBytesOrFail) {
  Stack s = MakeStack("heap_fuzz", kPage, 256);
  Rng rng(20260101);
  Model written;
  PageId first;
  std::vector<PageId> chain;
  {
    ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
    BuildCorpus(heap.get(), &rng, &written);
    first = heap->first_page_id();
    chain = heap->pages();
  }
  ASSERT_OK(s.bp->FlushAll());
  ASSERT_OK(s.bp->EvictAll());
  const PageId num_pages = s.disk->num_pages();
  std::vector<std::string> clean(num_pages, std::string(kPage, '\0'));
  for (PageId id = 0; id < num_pages; ++id) {
    ASSERT_OK(s.disk->ReadPage(id, clean[id].data()));
  }
  // Where each written tuple's bytes sit on its clean page.
  auto clean_offset = [&](const Rid& rid) {
    return static_cast<size_t>(
        DecodeFixed16(clean[rid.page].data() + kHeader + rid.slot * kEntry));
  };

  constexpr int kIterations = 1500;
  int attach_failed = 0, read_failed = 0, read_ok_mutated = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    // A heap attached to the clean pages, whose pages then turn bad on
    // disk: the next miss reads the mutated bytes.
    ASSERT_OK(s.bp->EvictAll());
    for (PageId id = 0; id < num_pages; ++id) {
      ASSERT_OK(s.disk->WritePage(id, clean[id].data()));
    }
    ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Attach(s.bp.get(), first));
    ASSERT_EQ(heap->tuple_count(), written.size());
    ASSERT_OK(s.bp->EvictAll());
    std::map<PageId, std::set<size_t>> mutated;
    const int npages = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < npages; ++i) {
      const PageId id = chain[rng.Uniform(chain.size())];
      std::string bytes = clean[id];
      if (mutated.count(id)) ASSERT_OK(s.disk->ReadPage(id, bytes.data()));
      const int rounds = 1 + static_cast<int>(rng.Uniform(3));
      for (int r = 0; r < rounds; ++r) {
        MutatePage(bytes.data(), num_pages, first, &rng, &mutated[id]);
      }
      ASSERT_OK(s.disk->WritePage(id, bytes.data()));
    }
    auto intact = [&](const Rid& rid, size_t len) {
      auto m = mutated.find(rid.page);
      if (m == mutated.end()) return true;
      const size_t entry = kHeader + rid.slot * kEntry;
      const size_t off = clean_offset(rid);
      return !Touches(m->second, 0, kHeader) &&
             !Touches(m->second, entry, entry + kEntry) &&
             !Touches(m->second, off, off + len);
    };
    auto check_read = [&](const Rid& rid, const Status& st,
                          const std::string& got) {
      const std::string& want = written.at(rid.ToU64());
      if (intact(rid, want.size())) {
        ASSERT_OK(st);
        ASSERT_EQ(got, want) << "intact slot " << rid.ToString();
      } else if (st.ok()) {
        ++read_ok_mutated;
      } else {
        ++read_failed;
      }
    };

    // Reads through the heap attached before the damage.
    std::vector<Rid> rids;
    for (const auto& [tid, bytes] : written) {
      const Rid rid = Rid::FromU64(tid);
      rids.push_back(rid);
      std::string got;
      Status st = heap->Get(rid, &got);
      check_read(rid, st, got);
    }
    std::vector<std::string> tuples;
    std::vector<Status> statuses;
    ASSERT_OK(CopyBatch(heap.get(), rids, &tuples, &statuses));
    for (size_t i = 0; i < rids.size(); ++i) {
      check_read(rids[i], statuses[i], tuples[i]);
    }
    Status walk = heap->ForEach([&](const Rid& rid, const Slice& bytes) {
      NBLB_ASSIGN_OR_RETURN(PageGuard page, s.bp->FetchPage(rid.page));
      EXPECT_GE(bytes.data(), page.data() + kHeader) << rid.ToString();
      EXPECT_LE(bytes.data() + bytes.size(), page.data() + kPage)
          << rid.ToString();
      auto it = written.find(rid.ToU64());
      if (it != written.end() && intact(rid, it->second.size())) {
        EXPECT_EQ(bytes.ToString(), it->second) << rid.ToString();
      }
      return Status::OK();
    });
    EXPECT_TRUE(walk.ok() || walk.IsCorruption()) << walk.ToString();

    // The chain walks over the damage.
    for (bool tolerant : {false, true}) {
      auto attached = tolerant ? HeapFile::AttachTolerant(s.bp.get(), first)
                               : HeapFile::Attach(s.bp.get(), first);
      if (!attached.ok()) {
        ASSERT_TRUE(attached.status().IsCorruption())
            << attached.status().ToString();
        ++attach_failed;
        continue;
      }
      if (mutated.empty()) {
        ASSERT_EQ((*attached)->tuple_count(), written.size());
      }
    }

    // Writes over the damage: any status, and the pages no mutation
    // touched keep exactly what the model says.
    Model model;
    for (const auto& [tid, bytes] : written) {
      if (!mutated.count(Rid::FromU64(tid).page)) model[tid] = bytes;
    }
    for (int op = 0; op < 24; ++op) {
      const Rid rid = rng.Uniform(8) == 0
                          ? Rid(chain[rng.Uniform(chain.size())],
                                static_cast<uint16_t>(rng.Uniform(64)))
                          : rids[rng.Uniform(rids.size())];
      const bool clean_page = !mutated.count(rid.page);
      const std::string t = rng.NextString(RandomLength(&rng));
      switch (rng.Uniform(4)) {
        case 0: {
          Status st = heap->Delete(rid);
          if (clean_page && st.ok()) model.erase(rid.ToU64());
          break;
        }
        case 1: {
          auto placed = rng.Bernoulli(0.5) ? heap->Insert(Slice(t))
                                           : heap->Append(Slice(t));
          if (placed.ok() && !mutated.count(placed->page)) {
            model[placed->ToU64()] = t;
          }
          break;
        }
        default: {
          auto in_place = heap->Update(rid, Slice(t));
          if (clean_page && in_place.ok() && *in_place) model[rid.ToU64()] = t;
          break;
        }
      }
    }
    for (const auto& [tid, want] : model) {
      std::string got;
      ASSERT_OK(heap->Get(Rid::FromU64(tid), &got));
      ASSERT_EQ(got, want) << Rid::FromU64(tid).ToString();
    }
  }
  // The mutations must reach the checks, and leave room for reads too.
  EXPECT_GT(attach_failed, kIterations / 4);
  EXPECT_GT(read_failed, kIterations / 4);
  EXPECT_GT(read_ok_mutated, 0);
}

// ---- Shard::Open's crash path over mutated data files ----------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Row TextRow(Rng* rng, int64_t id, size_t len) {
  return {Value::Int64(id), Value::Varchar(rng->NextString(len)),
          Value::Int64(static_cast<int64_t>(rng->NextU64() >> 1))};
}

TEST(HeapChainFuzzTest, CrashRecoveryOverMutatedHeapPagesFailsOrServesKeys) {
  ShardOptions opts;
  opts.path = ::testing::TempDir() + "nblb_heap_fuzz_" +
              std::to_string(::getpid()) + ".db";
  opts.page_size = kPage;
  opts.buffer_pool_frames = 256;
  opts.wal_enabled = true;
  opts.schema = Schema({{"id", TypeId::kInt64, 0},
                        {"text", TypeId::kVarchar, 1500},
                        {"score", TypeId::kInt64, 0}});
  opts.table_options.key_columns = {0};
  const std::string sb_path = Superblock::PathFor(opts.path);
  const std::string wal_path = Wal::PathFor(opts.path);

  // A crash image: checkpointed rows, then a committed log of updates that
  // grow rows out of their pages, shrink them, and deletes.
  Rng rng(1302);
  constexpr int64_t kKeys = 300;
  std::string data_image, sb_image, wal_image;
  {
    ASSERT_OK_AND_ASSIGN(auto shard, Shard::Open(0, opts));
    for (int64_t k = 0; k < kKeys; ++k) {
      ASSERT_OK(shard->Insert(TextRow(&rng, k, rng.Uniform(120))));
    }
    ASSERT_OK(shard->CommitWal());
    ASSERT_OK(shard->Checkpoint());
    for (int i = 0; i < 120; ++i) {
      const int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
      Status st = rng.Uniform(6) == 0
                      ? shard->Delete(static_cast<uint64_t>(k))
                      : shard->Update(static_cast<uint64_t>(k),
                                      TextRow(&rng, k, rng.Uniform(1500)));
      ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (i % 10 == 9) ASSERT_OK(shard->CommitWal());
    }
    ASSERT_GT(shard->table()->stats().moves, 0u);
    shard->SimulateCrashForTest();
  }
  data_image = ReadFile(opts.path);
  sb_image = ReadFile(sb_path);
  wal_image = ReadFile(wal_path);
  ASSERT_EQ(data_image.size() % kPage, 0u);
  const PageId num_pages = static_cast<PageId>(data_image.size() / kPage);
  std::vector<PageId> heap_pages;
  for (PageId id = 0; id < num_pages; ++id) {
    if (DecodeFixed16(data_image.data() + id * kPage) == kPageTypeHeap) {
      heap_pages.push_back(id);
    }
  }
  ASSERT_GE(heap_pages.size(), 4u);
  ASSERT_OK_AND_ASSIGN(SuperblockData sb, Superblock::Read(sb_path));
  ASSERT_FALSE(sb.clean_shutdown);

  ShardOptions reopen = opts;
  reopen.truncate = false;
  std::vector<uint64_t> all_keys;
  for (int64_t k = 0; k < kKeys; ++k) all_keys.push_back(static_cast<uint64_t>(k));
  constexpr int kIterations = 120;
  int opened = 0, refused = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::string data = data_image;
    std::set<size_t> touched;
    const int npages = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < npages; ++i) {
      const PageId id = heap_pages[rng.Uniform(heap_pages.size())];
      MutatePage(&data[id * kPage], num_pages, heap_pages.front(), &rng,
                 &touched);
    }
    WriteFile(opts.path, data);
    WriteFile(sb_path, sb_image);
    WriteFile(wal_path, wal_image);
    auto shard_or = Shard::Open(0, reopen);
    if (!shard_or.ok()) {
      ++refused;
      continue;
    }
    ++opened;
    auto shard = std::move(shard_or).ValueOrDie();
    EXPECT_TRUE(shard->recovered());
    for (uint64_t k : all_keys) {
      auto got = shard->Get(k);
      if (got.ok()) {
        ASSERT_EQ(got->at(0).AsInt(), static_cast<int64_t>(k));
      }
    }
    std::vector<Result<Row>> batch;
    ASSERT_OK(shard->GetBatch(all_keys, &batch));
    ASSERT_EQ(batch.size(), all_keys.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].ok()) {
        ASSERT_EQ(batch[i]->at(0).AsInt(), static_cast<int64_t>(all_keys[i]));
      }
    }
    Status scan = shard->table()->ForEachRow(
        [](const Rid&, const Row&) { return Status::OK(); });
    EXPECT_TRUE(scan.ok() || scan.IsCorruption()) << scan.ToString();
    shard->SimulateCrashForTest();
  }
  EXPECT_GT(opened, 0);
  EXPECT_GT(refused, 0);
  std::remove(opts.path.c_str());
  std::remove(sb_path.c_str());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace nblb
