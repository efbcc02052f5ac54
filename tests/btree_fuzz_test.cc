// Seeded mutational fuzz test for the B+Tree pages read from disk: leaves,
// internal nodes and the meta page of a three-level tree are mutated in
// their directory entries, entry count, key and payload sizes, cache item
// size, child and sibling ids, page type, footer magic and key bytes, and
// by random bit flips and byte stores. Every iteration reopens the tree
// over the damaged file (BTree::Open) and drives Get, GetBatch over short
// and long runs of keys (a long run follows the leaf chain from sibling to
// sibling), and Seek with iteration. Seeds and iteration counts are fixed,
// so a failure reproduces.
//
// Oracle: nothing crashes (the asan-ubsan CI job runs this binary under
// AddressSanitizer and UBSan), every call returns an error status or a
// result, and a key none of whose pages a mutation touched — the meta page
// and its root-to-leaf path; for a batch, every page the batch's keys
// reach, and each of their leaves' successors; for an iteration, the
// leaves it walks — gets the unmutated tree's answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "index/btree.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

// Small pages give a three-level tree from a few thousand keys, and a pool
// smaller than the file makes the lookups read pages from disk.
constexpr size_t kPage = 1024;
constexpr size_t kFrames = 64;
constexpr uint64_t kKeys = 6000;  // keys 0, 2, 4, ...: odd keys are absent

std::string Key(uint64_t k) {
  std::string s(8, '\0');
  EncodeBigEndian64(s.data(), k);
  return s;
}

uint64_t ValueOf(uint64_t k) { return k * 7 + 1; }

/// The clean tree's bytes and shape, read back from disk.
struct CleanTree {
  PageId meta = kInvalidPageId;
  PageId root = kInvalidPageId;
  std::vector<std::string> pages;  // every page of the file, by id
  std::vector<PageId> internal;
  std::vector<PageId> leaves;

  BTreePageView View(PageId id) const {
    return BTreePageView(const_cast<char*>(pages[id].data()), kPage);
  }
  /// Root-to-leaf page ids for `key`, meta page first.
  std::vector<PageId> Path(const std::string& key) const {
    std::vector<PageId> path = {meta};
    for (PageId id = root;;) {
      path.push_back(id);
      const BTreePageView view = View(id);
      if (view.IsLeaf()) return path;
      id = view.ChildFor(Slice(key));
    }
  }
};

/// Applies one mutation to the B+Tree node bytes `p` of page `self`.
void MutateNode(char* p, PageId self, const CleanTree& clean, Rng* rng) {
  static const uint16_t kU16[] = {0,      1,      2,      7,      8,
                                  16,     52,     53,     54,     0x7fff,
                                  0x8000, 60000,  0xfffe, 0xffff};
  const PageId num_pages = static_cast<PageId>(clean.pages.size());
  auto pick16 = [&](uint16_t cur) -> uint16_t {
    switch (rng->Uniform(3)) {
      case 0: return kU16[rng->Uniform(std::size(kU16))];
      case 1: return static_cast<uint16_t>(cur + rng->UniformRange(-4, 4));
      default: return static_cast<uint16_t>(rng->NextU64());
    }
  };
  auto pick_page = [&]() -> PageId {
    const PageId choices[] = {kInvalidPageId,
                              self,
                              clean.root,
                              clean.meta,
                              num_pages,
                              num_pages - 1,
                              static_cast<PageId>(rng->Uniform(num_pages)),
                              static_cast<PageId>(rng->NextU64())};
    return choices[rng->Uniform(std::size(choices))];
  };
  const BTreePageView view(p, kPage);
  const size_t n = std::min<size_t>(view.num_entries(), view.Capacity());
  const size_t entry = std::max<size_t>(view.entry_size(), 1);
  switch (rng->Uniform(12)) {
    case 0:
    case 1: {  // a directory entry
      if (n == 0) break;
      const size_t at =
          kPage - kBTreeFooterSize - (1 + rng->Uniform(n)) * kBTreeDirEntrySize;
      const uint16_t values[] = {
          static_cast<uint16_t>(n), static_cast<uint16_t>(n + 1),
          static_cast<uint16_t>(n - 1), pick16(DecodeFixed16(p + at))};
      EncodeFixed16(p + at, values[rng->Uniform(std::size(values))]);
      break;
    }
    case 2:  // entry count
      EncodeFixed16(p + 2, pick16(DecodeFixed16(p + 2)));
      break;
    case 3:  // key size or payload size
      EncodeFixed16(p + (rng->Bernoulli(0.5) ? 4 : 6),
                    pick16(DecodeFixed16(p + 4)));
      break;
    case 4:  // cache item size
      EncodeFixed16(p + 20, pick16(0));
      break;
    case 5:  // sibling ids
      EncodeFixed32(p + (rng->Bernoulli(0.5) ? 8 : 12), pick_page());
      break;
    case 6: {  // a child id: the leftmost, or an entry's payload
      if (view.IsLeaf() || n == 0 || rng->Bernoulli(0.3)) {
        EncodeFixed32(p + 16, pick_page());
      } else {
        const size_t at = kBTreeHeaderSize + rng->Uniform(n) * entry + 8;
        if (at + 4 <= kPage) EncodeFixed32(p + at, pick_page());
      }
      break;
    }
    case 7: {  // page type
      const uint16_t types[] = {kPageTypeFree, kPageTypeMeta,
                                kPageTypeBTreeInternal, kPageTypeBTreeLeaf,
                                static_cast<uint16_t>(rng->NextU64())};
      EncodeFixed16(p, types[rng->Uniform(std::size(types))]);
      break;
    }
    case 8:  // footer magic
      EncodeFixed32(p + kPage - 4, static_cast<uint32_t>(rng->NextU64()));
      break;
    case 9: {  // an entry's key bytes: breaks the sort order
      if (n == 0) break;
      const size_t at = kBTreeHeaderSize + rng->Uniform(n) * entry;
      if (at + 8 <= kPage) {
        EncodeBigEndian64(p + at, rng->Bernoulli(0.5) ? rng->NextU64()
                                                      : rng->Uniform(
                                                            2 * kKeys + 2));
      }
      break;
    }
    case 10: {  // bit flip
      const size_t at = rng->Uniform(kPage);
      p[at] = static_cast<char>(p[at] ^ (1u << rng->Uniform(8)));
      break;
    }
    default: {  // byte store
      static const uint8_t kInteresting[] = {0x00, 0x01, 0x0f, 0x10,
                                             0x7f, 0x80, 0xfe, 0xff};
      const size_t at = rng->Uniform(kPage);
      p[at] = static_cast<char>(rng->Bernoulli(0.5)
                                    ? kInteresting[rng->Uniform(8)]
                                    : rng->NextU64());
      break;
    }
  }
}

/// Applies one mutation to the meta page bytes `p`.
void MutateMeta(char* p, const CleanTree& clean, Rng* rng) {
  const PageId num_pages = static_cast<PageId>(clean.pages.size());
  switch (rng->Uniform(7)) {
    case 0: {  // key size, leaf payload size or cache item size
      static const uint16_t kSizes[] = {0, 1, 4, 7, 8, 9, 16, 25, 0xffff};
      EncodeFixed16(p + 2 + 2 * rng->Uniform(3),
                    kSizes[rng->Uniform(std::size(kSizes))]);
      break;
    }
    case 1:
    case 2: {  // root or first leaf
      const PageId choices[] = {
          kInvalidPageId, clean.meta, num_pages,
          clean.internal[rng->Uniform(clean.internal.size())],
          clean.leaves[rng->Uniform(clean.leaves.size())],
          static_cast<PageId>(rng->NextU64())};
      EncodeFixed32(p + (rng->Bernoulli(0.5) ? 8 : 12),
                    choices[rng->Uniform(std::size(choices))]);
      break;
    }
    case 3:  // type or magic
      if (rng->Bernoulli(0.5)) {
        EncodeFixed16(p, static_cast<uint16_t>(rng->Uniform(8)));
      } else {
        EncodeFixed64(p + 32, rng->NextU64());
      }
      break;
    case 4:  // entry count or CSN
      EncodeFixed64(p + (rng->Bernoulli(0.5) ? 16 : 24), rng->NextU64());
      break;
    case 5: {  // bit flip in the used bytes
      const size_t at = rng->Uniform(40);
      p[at] = static_cast<char>(p[at] ^ (1u << rng->Uniform(8)));
      break;
    }
    default: {  // byte store anywhere
      const size_t at = rng->Uniform(kPage);
      p[at] = static_cast<char>(rng->NextU64());
      break;
    }
  }
}

/// Builds the tree from keys in random order (half splits, three levels),
/// flushes it and reads every page back.
CleanTree BuildTree(Stack* s, Rng* rng) {
  CleanTree clean;
  BTreeOptions options;
  options.key_size = 8;
  auto created = BTree::Create(s->bp.get(), options);
  EXPECT_TRUE(created.ok());
  std::unique_ptr<BTree> tree = std::move(*created);
  std::vector<uint64_t> order(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) order[i] = 2 * i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  for (uint64_t k : order) {
    EXPECT_TRUE(tree->Insert(Slice(Key(k)), ValueOf(k)).ok());
  }
  EXPECT_TRUE(tree->WriteMeta().ok());
  clean.meta = tree->meta_page_id();
  clean.root = tree->root_page_id();
  tree.reset();
  EXPECT_TRUE(s->bp->FlushAll().ok());
  EXPECT_TRUE(s->bp->EvictAll().ok());
  const PageId num_pages = s->disk->num_pages();
  clean.pages.assign(num_pages, std::string(kPage, '\0'));
  for (PageId id = 0; id < num_pages; ++id) {
    EXPECT_TRUE(s->disk->ReadPage(id, clean.pages[id].data()).ok());
    if (id == clean.meta) continue;
    const BTreePageView view = clean.View(id);
    (view.IsLeaf() ? clean.leaves : clean.internal).push_back(id);
  }
  return clean;
}

bool AllIntact(const std::set<PageId>& mutated,
               const std::vector<PageId>& pages) {
  for (PageId id : pages) {
    if (mutated.count(id)) return false;
  }
  return true;
}

TEST(BTreeFuzzTest, MutatedPagesAnswerRightOrFail) {
  Stack s = MakeStack("btree_fuzz", kPage, kFrames);
  Rng rng(20261018);
  const CleanTree clean = BuildTree(&s, &rng);
  ASSERT_EQ(clean.Path(Key(0)).size(), 4u) << "meta + three levels";
  ASSERT_GT(clean.pages.size(), 2 * kFrames) << "batches must descend";

  // Each key's expected answer in the clean tree.
  auto want = [](uint64_t k) -> Result<uint64_t> {
    if (k % 2 == 0 && k < 2 * kKeys) return ValueOf(k);
    return Status::NotFound("key not found");
  };
  auto same = [](const Result<uint64_t>& got, const Result<uint64_t>& exp) {
    if (exp.ok()) return got.ok() && *got == *exp;
    return got.status().IsNotFound();
  };

  constexpr int kIterations = 3000;
  int open_failed = 0, checked = 0, unchecked_ok = 0, unchecked_err = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ASSERT_OK(s.bp->EvictAll());
    for (PageId id = 0; id < clean.pages.size(); ++id) {
      ASSERT_OK(s.disk->WritePage(id, clean.pages[id].data()));
    }
    std::set<PageId> mutated;
    const int npages = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < npages; ++i) {
      const double pick = rng.NextDouble();
      const PageId id =
          pick < 0.1   ? clean.meta
          : pick < 0.4 ? clean.internal[rng.Uniform(clean.internal.size())]
                       : clean.leaves[rng.Uniform(clean.leaves.size())];
      std::string bytes(kPage, '\0');
      ASSERT_OK(s.disk->ReadPage(id, bytes.data()));
      const int rounds = 1 + static_cast<int>(rng.Uniform(3));
      for (int r = 0; r < rounds; ++r) {
        if (id == clean.meta) {
          MutateMeta(bytes.data(), clean, &rng);
        } else {
          MutateNode(bytes.data(), id, clean, &rng);
        }
      }
      ASSERT_OK(s.disk->WritePage(id, bytes.data()));
      mutated.insert(id);
    }

    auto opened = BTree::Open(s.bp.get(), clean.meta);
    if (!opened.ok()) {
      ASSERT_TRUE(mutated.count(clean.meta)) << opened.status().ToString();
      ++open_failed;
      continue;
    }
    BTree* tree = opened->get();
    auto check = [&](uint64_t k, const std::vector<PageId>& reads,
                     const Result<uint64_t>& got) {
      if (AllIntact(mutated, reads)) {
        ASSERT_TRUE(same(got, want(k)))
            << "key " << k << ": " << got.status().ToString();
        ++checked;
      } else if (got.ok() || got.status().IsNotFound()) {
        ++unchecked_ok;
      } else {
        ++unchecked_err;
      }
    };

    // Point lookups, present and absent.
    for (int i = 0; i < 60; ++i) {
      const uint64_t k = rng.Uniform(2 * kKeys + 8);
      check(k, clean.Path(Key(k)), tree->Get(Slice(Key(k))));
    }

    // Batches of 16 and 160 consecutive keys: each run is dense, so
    // GetBatch moves from a leaf to its sibling instead of descending
    // again, and the 160-key run crosses several leaves.
    for (size_t len : {size_t{16}, size_t{160}}) {
      const uint64_t first = rng.Uniform(2 * kKeys - len + 8);
      std::vector<std::string> keys;
      std::vector<PageId> reads;
      for (uint64_t k = first; k < first + len; ++k) {
        keys.push_back(Key(k));
        const std::vector<PageId> path = clean.Path(keys.back());
        reads.insert(reads.end(), path.begin(), path.end());
        const PageId next = clean.View(path.back()).next();
        if (next != kInvalidPageId) reads.push_back(next);
      }
      std::vector<Slice> slices(keys.begin(), keys.end());
      std::vector<Result<uint64_t>> out;
      const Status st = tree->GetBatch(slices, &out);
      if (!st.ok()) {
        ASSERT_FALSE(AllIntact(mutated, reads)) << st.ToString();
        ++unchecked_err;
        continue;
      }
      ASSERT_EQ(out.size(), keys.size());
      for (size_t i = 0; i < keys.size(); ++i) check(first + i, reads, out[i]);
    }

    // Seek, then iterate: the leaves the walk reaches are the start key's
    // path and the chain after it.
    const uint64_t start = rng.Uniform(2 * kKeys + 8);
    auto it = tree->Seek(Slice(Key(start)));
    std::vector<PageId> reads = clean.Path(Key(start));
    for (PageId leaf = reads.back(), hops = 0; hops < 3; ++hops) {
      leaf = clean.View(leaf).next();
      if (leaf == kInvalidPageId) break;
      reads.push_back(leaf);
    }
    if (!it.ok()) {
      ASSERT_FALSE(AllIntact(mutated, reads)) << it.status().ToString();
      ++unchecked_err;
      continue;
    }
    uint64_t expect = start + (start % 2);  // the first present key >= start
    Status step;
    for (int n = 0; n < 40 && it->Valid() && step.ok(); ++n) {
      if (AllIntact(mutated, reads)) {
        ASSERT_LT(expect, 2 * kKeys);
        ASSERT_EQ(it->key().ToString(), Key(expect));
        ASSERT_EQ(it->value(), ValueOf(expect));
        ++checked;
      }
      expect += 2;
      step = it->Next();
    }
    if (AllIntact(mutated, reads)) {
      ASSERT_OK(step);
    }
  }
  // The mutations reached every outcome: failed opens, wrong-or-right
  // answers over damage, and errors.
  EXPECT_GT(open_failed, 0);
  EXPECT_GT(checked, 0);
  EXPECT_GT(unchecked_ok, 0);
  EXPECT_GT(unchecked_err, 0);
}

}  // namespace
}  // namespace nblb
