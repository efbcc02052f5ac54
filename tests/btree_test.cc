#include "index/btree.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "index/btree_page.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

std::string K(uint64_t v) {
  std::string s(8, '\0');
  EncodeBigEndian64(s.data(), v);
  return s;
}

BTreeOptions SmallKeyOptions() {
  BTreeOptions o;
  o.key_size = 8;
  return o;
}

TEST(BTreeTest, EmptyTreeLookupsFail) {
  Stack s = MakeStack("bt_empty");
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  EXPECT_TRUE(tree->Get(Slice(K(1))).status().IsNotFound());
  EXPECT_TRUE(tree->Delete(Slice(K(1))).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 0u);
}

TEST(BTreeTest, InsertGetSingle) {
  Stack s = MakeStack("bt_single");
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  ASSERT_OK(tree->Insert(Slice(K(42)), 4242));
  ASSERT_OK_AND_ASSIGN(uint64_t v, tree->Get(Slice(K(42))));
  EXPECT_EQ(v, 4242u);
  EXPECT_TRUE(tree->Insert(Slice(K(42)), 1).IsAlreadyExists());
}

TEST(BTreeTest, KeySizeMismatchRejected) {
  Stack s = MakeStack("bt_keysize");
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  EXPECT_TRUE(tree->Insert(Slice("short"), 1).IsInvalidArgument());
  EXPECT_TRUE(tree->Get(Slice("short")).status().IsInvalidArgument());
}

TEST(BTreeTest, ManySequentialInsertsSplitAndRemainSearchable) {
  Stack s = MakeStack("bt_seq", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK(tree->Insert(Slice(K(i)), i * 10));
  }
  EXPECT_EQ(tree->num_entries(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t v, tree->Get(Slice(K(i))));
    ASSERT_EQ(v, i * 10);
  }
  ASSERT_OK_AND_ASSIGN(BTreeStats st, tree->ComputeStats());
  EXPECT_GT(st.height, 1u);
  EXPECT_GT(st.leaf_pages, 1u);
}

TEST(BTreeTest, RandomInsertsMatchOracle) {
  Stack s = MakeStack("bt_random", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.NextU64() % 100000;
    if (oracle.emplace(k, i).second) {
      ASSERT_OK(tree->Insert(Slice(K(k)), i));
    }
  }
  EXPECT_EQ(tree->num_entries(), oracle.size());
  for (const auto& [k, v] : oracle) {
    ASSERT_OK_AND_ASSIGN(uint64_t got, tree->Get(Slice(K(k))));
    ASSERT_EQ(got, v);
  }
  // Absent keys stay absent.
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = 100000 + rng.Uniform(100000);
    EXPECT_TRUE(tree->Get(Slice(K(k))).status().IsNotFound());
  }
}

TEST(BTreeTest, IterationVisitsAllKeysInOrder) {
  Stack s = MakeStack("bt_iter", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.NextU64() % 1000000;
    if (oracle.emplace(k, i).second) {
      ASSERT_OK(tree->Insert(Slice(K(k)), i));
    }
  }
  ASSERT_OK_AND_ASSIGN(BTreeIterator it, tree->SeekToFirst());
  auto oit = oracle.begin();
  while (it.Valid()) {
    ASSERT_NE(oit, oracle.end());
    EXPECT_EQ(it.key().ToString(), K(oit->first));
    EXPECT_EQ(it.value(), oit->second);
    ASSERT_OK(it.Next());
    ++oit;
  }
  EXPECT_EQ(oit, oracle.end());
}

TEST(BTreeTest, SeekStartsAtLowerBound) {
  Stack s = MakeStack("bt_seek");
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  for (uint64_t k : {10ull, 20ull, 30ull}) {
    ASSERT_OK(tree->Insert(Slice(K(k)), k));
  }
  ASSERT_OK_AND_ASSIGN(BTreeIterator it, tree->Seek(Slice(K(15))));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), 20u);
  ASSERT_OK_AND_ASSIGN(BTreeIterator it2, tree->Seek(Slice(K(31))));
  EXPECT_FALSE(it2.Valid());
}

TEST(BTreeTest, DeleteThenLookupFails) {
  Stack s = MakeStack("bt_delete", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_OK(tree->Insert(Slice(K(i)), i));
  }
  for (uint64_t i = 0; i < 2000; i += 2) {
    ASSERT_OK(tree->Delete(Slice(K(i))));
  }
  EXPECT_EQ(tree->num_entries(), 1000u);
  for (uint64_t i = 0; i < 2000; ++i) {
    auto r = tree->Get(Slice(K(i)));
    if (i % 2 == 0) {
      EXPECT_TRUE(r.status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(r.ok()) << i;
      EXPECT_EQ(*r, i);
    }
  }
}

TEST(BTreeTest, SetValueRepointsExistingKey) {
  Stack s = MakeStack("bt_setval");
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  ASSERT_OK(tree->Insert(Slice(K(1)), 100));
  ASSERT_OK(tree->SetValue(Slice(K(1)), 200));
  ASSERT_OK_AND_ASSIGN(uint64_t v, tree->Get(Slice(K(1))));
  EXPECT_EQ(v, 200u);
  EXPECT_TRUE(tree->SetValue(Slice(K(2)), 1).IsNotFound());
}

TEST(BTreeTest, RandomInsertFillFactorNearCanonical68Percent) {
  // Yao's classic result (cited as [10] in the paper): random inserts settle
  // around ln 2 ~ 69% average leaf occupancy.
  Stack s = MakeStack("bt_fill", 4096, 4096);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  Rng rng(123);
  std::set<uint64_t> used;
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.NextU64();
    if (used.insert(k).second) {
      ASSERT_OK(tree->Insert(Slice(K(k)), i));
    }
  }
  ASSERT_OK_AND_ASSIGN(BTreeStats st, tree->ComputeStats());
  EXPECT_GT(st.avg_leaf_fill, 0.60);
  EXPECT_LT(st.avg_leaf_fill, 0.78);
  EXPECT_GT(st.leaf_free_bytes, 0u);
}

/// Entry counts of the leaves in sibling-chain order.
std::vector<size_t> LeafEntryCounts(BufferPool* bp, const BTree& tree) {
  std::vector<size_t> counts;
  for (PageId id = tree.first_leaf_id(); id != kInvalidPageId;) {
    auto page = bp->FetchPage(id);
    EXPECT_TRUE(page.ok());
    if (!page.ok()) break;
    BTreePageView view(page->data(), bp->page_size());
    counts.push_back(view.num_entries());
    id = view.next();
  }
  return counts;
}

TEST(BTreeTest, AscendingInsertsWithoutCacheLeaveFullLeaves) {
  // An appended key splits the rightmost leaf by starting a new one, so
  // every leaf but the last is full.
  Stack s = MakeStack("bt_append", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK(tree->Insert(Slice(K(i)), i));
  }
  const std::vector<size_t> counts = LeafEntryCounts(s.bp.get(), *tree);
  const size_t cap = tree->LeafCapacity();
  ASSERT_EQ(counts.size(), (kN + cap - 1) / cap);
  for (size_t i = 0; i + 1 < counts.size(); ++i) {
    EXPECT_EQ(counts[i], cap) << "leaf " << i;
  }
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t v, tree->Get(Slice(K(i))));
    ASSERT_EQ(v, i);
  }
  ASSERT_OK_AND_ASSIGN(BTreeStats st, tree->ComputeStats());
  EXPECT_GT(st.avg_leaf_fill, 0.95);
}

TEST(BTreeTest, AscendingInsertsWithCacheSplitLeavesInHalf) {
  // A tree with an index cache keeps the half split: its leaves' free
  // space is the cache.
  Stack s = MakeStack("bt_append_cache", 4096, 2048);
  BTreeOptions opts = SmallKeyOptions();
  opts.cache_item_size = 24;
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), opts));
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_OK(tree->Insert(Slice(K(i)), i));
  }
  const std::vector<size_t> counts = LeafEntryCounts(s.bp.get(), *tree);
  const size_t cap = tree->LeafCapacity();
  ASSERT_GT(counts.size(), 2 * kN / cap - 2);
  for (size_t i = 0; i + 1 < counts.size(); ++i) {
    EXPECT_EQ(counts[i], cap / 2) << "leaf " << i;
  }
  ASSERT_OK_AND_ASSIGN(BTreeStats st, tree->ComputeStats());
  EXPECT_LT(st.avg_leaf_fill, 0.55);
}

// One thread drives a pool's trees, so when the caller's own pins fill the
// pool nothing can free a frame: a lookup that needs a page that is not
// resident fails ResourceExhausted at once, without waiting for pins to
// drop.
TEST(BTreeTest, GetFailsAtOnceWhenTheCallersPinsFillThePool) {
  Stack s = MakeStack("bt_pinned_full", 4096, 8);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  constexpr uint64_t kKeys = 2000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_OK(tree->Insert(Slice(K(i)), i * 10));
  }
  ASSERT_OK(s.bp->EvictAll());
  // Fill the pool with the first 8 pages of the file (meta + early nodes);
  // the last key's leaf is not among them.
  std::vector<PageGuard> pins;
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, s.bp->FetchPage(id));
    pins.push_back(std::move(g));
  }
  const auto start = std::chrono::steady_clock::now();
  const auto got = tree->Get(Slice(K(kKeys - 1)));
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(got.status().IsResourceExhausted()) << got.status().ToString();
  EXPECT_LT(took, std::chrono::milliseconds(100));

  pins.clear();
  ASSERT_OK_AND_ASSIGN(uint64_t value, tree->Get(Slice(K(kKeys - 1))));
  EXPECT_EQ(value, (kKeys - 1) * 10);
}

TEST(BTreeTest, BulkLoadProducesRequestedFill) {
  Stack s = MakeStack("bt_bulk", 4096, 4096);
  std::vector<std::pair<std::string, uint64_t>> sorted;
  for (uint64_t i = 0; i < 10000; ++i) sorted.emplace_back(K(i), i);

  for (double fill : {0.5, 0.68, 1.0}) {
    Stack s2 = MakeStack("bt_bulk_fill");
    ASSERT_OK_AND_ASSIGN(auto tree,
                         BTree::Create(s2.bp.get(), SmallKeyOptions()));
    ASSERT_OK(tree->BulkLoad(sorted, fill));
    EXPECT_EQ(tree->num_entries(), sorted.size());
    ASSERT_OK_AND_ASSIGN(BTreeStats st, tree->ComputeStats());
    EXPECT_NEAR(st.avg_leaf_fill, fill, 0.05) << "fill target " << fill;
    // Every key findable.
    for (uint64_t i = 0; i < 10000; i += 503) {
      ASSERT_OK_AND_ASSIGN(uint64_t v, tree->Get(Slice(K(i))));
      ASSERT_EQ(v, i);
    }
  }
}

TEST(BTreeTest, BulkLoadRejectsNonEmptyTree) {
  Stack s = MakeStack("bt_bulk_nonempty");
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  ASSERT_OK(tree->Insert(Slice(K(1)), 1));
  std::vector<std::pair<std::string, uint64_t>> sorted = {{K(2), 2}};
  EXPECT_TRUE(tree->BulkLoad(sorted, 1.0).IsInvalidArgument());
}

TEST(BTreeTest, OpenRestoresTreeAndBumpsCsn) {
  Stack s = MakeStack("bt_reopen", 4096, 2048);
  PageId meta;
  uint64_t csn_before;
  {
    ASSERT_OK_AND_ASSIGN(auto tree,
                         BTree::Create(s.bp.get(), SmallKeyOptions()));
    for (uint64_t i = 0; i < 3000; ++i) {
      ASSERT_OK(tree->Insert(Slice(K(i)), i + 7));
    }
    meta = tree->meta_page_id();
    csn_before = tree->global_csn();
  }
  ASSERT_OK(s.bp->FlushAll());
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Open(s.bp.get(), meta));
  EXPECT_EQ(tree->num_entries(), 3000u);
  // §2.1.2 crash discipline: reopen invalidates all page caches via CSNidx.
  EXPECT_GT(tree->global_csn(), csn_before);
  for (uint64_t i = 0; i < 3000; i += 101) {
    ASSERT_OK_AND_ASSIGN(uint64_t v, tree->Get(Slice(K(i))));
    ASSERT_EQ(v, i + 7);
  }
}

TEST(BTreeTest, ChurnDegradesFillFactorLikeCarTel) {
  // §2: "in a frequently updated database ... the fill factor is only 45%".
  // Insert densely, then delete most keys: fill collapses well below 68%.
  Stack s = MakeStack("bt_churn", 4096, 4096);
  ASSERT_OK_AND_ASSIGN(auto tree, BTree::Create(s.bp.get(), SmallKeyOptions()));
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_OK(tree->Insert(Slice(K(i)), i));
  }
  Rng rng(5);
  for (uint64_t i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.6)) {
      ASSERT_OK(tree->Delete(Slice(K(i))));
    }
  }
  ASSERT_OK_AND_ASSIGN(BTreeStats st, tree->ComputeStats());
  EXPECT_LT(st.avg_leaf_fill, 0.55);
}

}  // namespace
}  // namespace nblb
