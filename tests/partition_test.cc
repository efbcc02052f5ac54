#include <gtest/gtest.h>

#include <unordered_set>

#include "partition/access_tracker.h"
#include "partition/clusterer.h"
#include "partition/forwarding_table.h"
#include "partition/partitioned_table.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

// ---------------------------------------------------------------------------
// AccessTracker
// ---------------------------------------------------------------------------

TEST(AccessTrackerTest, ExactCountsAndTopK) {
  ExactAccessTracker t;
  for (int i = 0; i < 100; ++i) t.RecordAccess(1);
  for (int i = 0; i < 10; ++i) t.RecordAccess(2);
  t.RecordAccess(3);
  EXPECT_EQ(t.EstimateCount(1), 100u);
  EXPECT_EQ(t.EstimateCount(2), 10u);
  EXPECT_EQ(t.EstimateCount(42), 0u);
  EXPECT_EQ(t.total(), 111u);
  EXPECT_EQ(t.TopK(2), (std::vector<uint64_t>{1, 2}));
}

TEST(AccessTrackerTest, HotSetByMassCoversRequestedFraction) {
  ExactAccessTracker t;
  // 5% of items get ~98% of accesses (the paper's revision skew shape).
  for (uint64_t hot = 0; hot < 50; ++hot) {
    for (int i = 0; i < 999; ++i) t.RecordAccess(hot);
  }
  for (uint64_t cold = 50; cold < 1000; ++cold) t.RecordAccess(cold);
  // Total = 50*999 + 950 = 50900; the 50 hot items cover 98.1% of it, so a
  // 95% mass target must be met by hot items alone.
  auto hot_set = t.HotSetByMass(0.95);
  EXPECT_LE(hot_set.size(), 50u);
  std::unordered_set<uint64_t> s(hot_set.begin(), hot_set.end());
  for (uint64_t item : s) EXPECT_LT(item, 50u);
  // Asking for more mass than the hot items hold pulls in cold items too.
  EXPECT_GT(t.HotSetByMass(0.999).size(), 50u);
}

TEST(AccessTrackerTest, SketchNeverUnderestimates) {
  SketchAccessTracker sketch(1024, 4);
  ExactAccessTracker exact;
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t tid = rng.Uniform(5000);
    sketch.RecordAccess(tid);
    exact.RecordAccess(tid);
  }
  for (uint64_t tid = 0; tid < 5000; ++tid) {
    EXPECT_GE(sketch.EstimateCount(tid), exact.EstimateCount(tid)) << tid;
  }
  EXPECT_EQ(sketch.total(), 50000u);
  // Bounded memory regardless of distinct count.
  EXPECT_EQ(sketch.MemoryBytes(), 1024 * 4 * sizeof(uint32_t));
}

TEST(AccessTrackerTest, SketchIsReasonablyAccurateForHeavyHitters) {
  SketchAccessTracker sketch(4096, 4);
  for (int i = 0; i < 10000; ++i) sketch.RecordAccess(7);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) sketch.RecordAccess(rng.Uniform(100000));
  const uint64_t est = sketch.EstimateCount(7);
  EXPECT_GE(est, 10000u);
  EXPECT_LE(est, 10300u);  // small overestimate only
}

// ---------------------------------------------------------------------------
// ForwardingTable
// ---------------------------------------------------------------------------

TEST(ForwardingTableTest, ResolveIdentityWhenAbsent) {
  ForwardingTable fwd;
  EXPECT_EQ(fwd.Resolve(42), 42u);
  EXPECT_FALSE(fwd.IsForwarded(42));
}

TEST(ForwardingTableTest, ChainsAreCollapsed) {
  ForwardingTable fwd;
  fwd.AddForwarding(1, 2);
  fwd.AddForwarding(2, 3);
  fwd.AddForwarding(3, 4);
  // Every historical id resolves to the terminal location in one hop.
  EXPECT_EQ(fwd.Resolve(1), 4u);
  EXPECT_EQ(fwd.Resolve(2), 4u);
  EXPECT_EQ(fwd.Resolve(3), 4u);
  EXPECT_EQ(fwd.Resolve(4), 4u);
}

TEST(ForwardingTableTest, MemoryGrowsWithEntries) {
  ForwardingTable fwd;
  const size_t empty = fwd.MemoryBytes();
  for (uint64_t i = 0; i < 1000; ++i) fwd.AddForwarding(i, i + 100000);
  EXPECT_GT(fwd.MemoryBytes(), empty);
  EXPECT_EQ(fwd.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Clusterer + PartitionedTable (exec-level)
// ---------------------------------------------------------------------------

Schema RevSchema() {
  return Schema({{"rev_id", TypeId::kInt64, 0},
                 {"rev_page", TypeId::kInt64, 0},
                 {"rev_len", TypeId::kInt32, 0},
                 {"pad", TypeId::kChar, 120}});
}

TableOptions RevOptions() {
  TableOptions o;
  o.key_columns = {0};
  o.cached_columns = {1, 2};
  return o;
}

Row RevRow(int64_t id) {
  return {Value::Int64(id), Value::Int64(id % 97),
          Value::Int32(static_cast<int32_t>(id % 5000)), Value::Char("x")};
}

TEST(ClustererTest, RelocatedHotTuplesShareTailPages) {
  Stack s = MakeStack("clu_basic", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto t, Table::Create(s.bp.get(), RevSchema(),
                                             RevOptions()));
  constexpr int64_t kN = 1000;
  for (int64_t i = 1; i <= kN; ++i) ASSERT_OK(t->Insert(RevRow(i)));

  // Hot set: every 20th tuple (5%), scattered across all pages.
  std::vector<std::vector<Value>> hot_keys;
  for (int64_t i = 1; i <= kN; i += 20) {
    hot_keys.push_back({Value::Int64(i)});
  }
  ForwardingTable fwd;
  ASSERT_OK_AND_ASSIGN(
      ClusterReport report,
      Clusterer::ClusterHotTuples(t.get(), hot_keys, 1.0, &fwd));
  EXPECT_EQ(report.relocated, hot_keys.size());
  EXPECT_EQ(fwd.size(), hot_keys.size());
  EXPECT_GE(report.pages_after, report.pages_before);

  // All hot tuples now live on the few tail pages: as few as their bytes
  // (each with its slot entry) fill, plus the tail page they started on.
  std::unordered_set<PageId> hot_pages;
  size_t hot_bytes = 0;
  for (const auto& key : hot_keys) {
    auto enc = t->key_codec().EncodeValues(key);
    ASSERT_TRUE(enc.ok());
    ASSERT_OK_AND_ASSIGN(uint64_t tid, t->index()->Get(Slice(*enc)));
    hot_pages.insert(Rid::FromU64(tid).page);
    std::string tuple;
    ASSERT_OK(t->heap()->Get(Rid::FromU64(tid), &tuple));
    hot_bytes += tuple.size() + HeapFile::kSlotEntrySize;
  }
  const size_t page_bytes = 4096 - HeapFile::kPageHeaderSize;
  const size_t min_pages = (hot_bytes + page_bytes - 1) / page_bytes;
  EXPECT_LE(hot_pages.size(), min_pages + 1)
      << "hot tuples must be co-located after clustering";

  // Every tuple still resolvable with the right contents.
  for (int64_t i = 1; i <= kN; i += 33) {
    ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey({Value::Int64(i)}));
    EXPECT_EQ(row[0].AsInt(), i);
    EXPECT_EQ(row[1].AsInt(), i % 97);
  }
}

TEST(ClustererTest, FractionControlsHowManyMove) {
  Stack s = MakeStack("clu_fraction", 4096, 2048);
  ASSERT_OK_AND_ASSIGN(auto t, Table::Create(s.bp.get(), RevSchema(),
                                             RevOptions()));
  for (int64_t i = 1; i <= 400; ++i) ASSERT_OK(t->Insert(RevRow(i)));
  std::vector<std::vector<Value>> hot_keys;
  for (int64_t i = 1; i <= 100; ++i) hot_keys.push_back({Value::Int64(i)});
  ASSERT_OK_AND_ASSIGN(ClusterReport r,
                       Clusterer::ClusterHotTuples(t.get(), hot_keys, 0.54));
  EXPECT_EQ(r.relocated, 54u);  // the paper's 54% bar
  EXPECT_TRUE(Clusterer::ClusterHotTuples(t.get(), hot_keys, 1.5)
                  .status()
                  .IsInvalidArgument());
}

TEST(PartitionedTableTest, RoutesRowsByHotSet) {
  Stack s = MakeStack("part_route", 4096, 4096);
  ASSERT_OK_AND_ASSIGN(auto src, Table::Create(s.bp.get(), RevSchema(),
                                               RevOptions()));
  for (int64_t i = 1; i <= 500; ++i) ASSERT_OK(src->Insert(RevRow(i)));
  std::unordered_set<std::string> hot_keys;
  for (int64_t i = 1; i <= 500; i += 10) {
    hot_keys.insert(*src->key_codec().EncodeValues({Value::Int64(i)}));
  }
  ASSERT_OK_AND_ASSIGN(auto pt, PartitionedTable::BuildFromTable(
                                    s.bp.get(), src.get(), hot_keys));
  EXPECT_EQ(pt->hot()->heap()->tuple_count(), hot_keys.size());
  EXPECT_EQ(pt->cold()->heap()->tuple_count(), 500 - hot_keys.size());

  // Hot lookup hits the hot partition; cold lookup falls through.
  ASSERT_OK_AND_ASSIGN(Row hot, pt->LookupProjected({Value::Int64(11)}, {1}));
  EXPECT_EQ(hot[0].AsInt(), 11 % 97);
  ASSERT_OK_AND_ASSIGN(Row cold, pt->LookupProjected({Value::Int64(12)}, {1}));
  EXPECT_EQ(cold[0].AsInt(), 12 % 97);
  EXPECT_EQ(pt->stats().hot_hits, 1u);
  EXPECT_EQ(pt->stats().cold_hits, 1u);
  EXPECT_TRUE(pt->LookupProjected({Value::Int64(9999)}, {1})
                  .status()
                  .IsNotFound());
  EXPECT_EQ(pt->stats().misses, 1u);
}

TEST(PartitionedTableTest, GetBatchByKeyMatchesPerKeyLookups) {
  Stack s = MakeStack("part_batch", 4096, 4096);
  ASSERT_OK_AND_ASSIGN(auto src, Table::Create(s.bp.get(), RevSchema(),
                                               RevOptions()));
  for (int64_t i = 1; i <= 300; ++i) ASSERT_OK(src->Insert(RevRow(i)));
  std::unordered_set<std::string> hot_keys;
  for (int64_t i = 1; i <= 300; i += 3) {
    hot_keys.insert(*src->key_codec().EncodeValues({Value::Int64(i)}));
  }
  ASSERT_OK_AND_ASSIGN(auto pt, PartitionedTable::BuildFromTable(
                                    s.bp.get(), src.get(), hot_keys));

  // Hot keys, cold keys, absent keys, and duplicates in one batch.
  std::vector<int64_t> request = {1, 2, 4, 4, 150, 299, 300, 9999, 777};
  std::vector<std::vector<Value>> keys;
  for (int64_t id : request) keys.push_back({Value::Int64(id)});
  std::vector<Result<Row>> out;
  ASSERT_OK(pt->GetBatchByKey(keys, &out));
  ASSERT_EQ(out.size(), request.size());
  for (size_t i = 0; i < request.size(); ++i) {
    if (request[i] <= 300) {
      ASSERT_TRUE(out[i].ok()) << "id " << request[i];
      EXPECT_EQ((*out[i])[0].AsInt(), request[i]);
      EXPECT_EQ((*out[i])[1].AsInt(), request[i] % 97);
    } else {
      EXPECT_TRUE(out[i].status().IsNotFound()) << "id " << request[i];
    }
  }
  // Hot set = ids ≡ 1 (mod 3): so 1 and 4 (twice) are hot; 2, 150, 299,
  // 300 are cold; 9999 and 777 were never inserted.
  EXPECT_EQ(pt->stats().hot_hits.load(), 3u);
  EXPECT_EQ(pt->stats().cold_hits.load(), 4u);
  EXPECT_EQ(pt->stats().misses.load(), 2u);
  EXPECT_EQ(pt->stats().lookups.load(), request.size());
}

TEST(PartitionedTableTest, HotIndexIsMuchSmallerThanSourceIndex) {
  // The mechanism behind Fig 3's 8.4x: the hot partition's index is a tiny
  // fraction of the full index.
  Stack s = MakeStack("part_size", 4096, 8192);
  ASSERT_OK_AND_ASSIGN(auto src, Table::Create(s.bp.get(), RevSchema(),
                                               RevOptions()));
  for (int64_t i = 1; i <= 4000; ++i) ASSERT_OK(src->Insert(RevRow(i)));
  std::unordered_set<std::string> hot_keys;
  for (int64_t i = 1; i <= 4000; i += 20) {
    hot_keys.insert(*src->key_codec().EncodeValues({Value::Int64(i)}));
  }
  ASSERT_OK_AND_ASSIGN(auto pt, PartitionedTable::BuildFromTable(
                                    s.bp.get(), src.get(), hot_keys));
  ASSERT_OK_AND_ASSIGN(BTreeStats full, src->index()->ComputeStats());
  ASSERT_OK_AND_ASSIGN(BTreeStats hot, pt->hot()->index()->ComputeStats());
  EXPECT_LT(hot.leaf_pages * 10, full.leaf_pages)
      << "hot index should be ~5% of the full index";
}

TEST(PartitionedTableTest, InsertHotDemotesDisplacedRow) {
  Stack s = MakeStack("part_demote", 4096, 4096);
  ASSERT_OK_AND_ASSIGN(auto src, Table::Create(s.bp.get(), RevSchema(),
                                               RevOptions()));
  ASSERT_OK(src->Insert(RevRow(1)));
  std::unordered_set<std::string> hot_keys = {
      *src->key_codec().EncodeValues({Value::Int64(1)})};
  ASSERT_OK_AND_ASSIGN(auto pt, PartitionedTable::BuildFromTable(
                                    s.bp.get(), src.get(), hot_keys));
  // New revision 2 replaces revision 1 as hot; 1 is demoted to cold.
  std::vector<Value> displaced = {Value::Int64(1)};
  ASSERT_OK(pt->InsertHot(RevRow(2), &displaced));
  EXPECT_EQ(pt->hot()->heap()->tuple_count(), 1u);
  EXPECT_EQ(pt->cold()->heap()->tuple_count(), 1u);
  pt->ResetStats();
  ASSERT_OK(pt->LookupProjected({Value::Int64(2)}, {0}).status());
  EXPECT_EQ(pt->stats().hot_hits, 1u);
  ASSERT_OK(pt->LookupProjected({Value::Int64(1)}, {0}).status());
  EXPECT_EQ(pt->stats().cold_hits, 1u);
}

}  // namespace
}  // namespace nblb
