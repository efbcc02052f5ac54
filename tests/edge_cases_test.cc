// Boundary and degenerate-input behaviour across modules: the cases a
// downstream user hits first when holding the API wrong.

#include <gtest/gtest.h>

#include "cache/cache_geometry.h"
#include "common/bytes.h"
#include "common/zipf.h"
#include "encoding/bitpack.h"
#include "encoding/dict.h"
#include "exec/table.h"
#include "semid/semantic_id.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;
using nblb::testing::TempFile;

TEST(EdgeCaseTest, HeapAttachRebuildsHoleListAndReusesIt) {
  Stack s = MakeStack("edge_heap_holes", 4096, 512);
  PageId first;
  Rid hole;
  {
    HeapFileOptions opts;
    opts.reuse_free_slots = true;
    ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get(), opts));
    first = heap->first_page_id();
    std::vector<Rid> rids;
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK_AND_ASSIGN(Rid r, heap->Insert(Slice(std::string(64, 'x'))));
      rids.push_back(r);
    }
    hole = rids[5];
    ASSERT_OK(heap->Delete(hole));
  }
  ASSERT_OK(s.bp->FlushAll());
  HeapFileOptions opts;
  opts.reuse_free_slots = true;
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Attach(s.bp.get(), first, opts));
  EXPECT_EQ(heap->tuple_count(), 19u);
  // The attach must have recorded the page with a hole: the next insert
  // fills it instead of extending the file.
  ASSERT_OK_AND_ASSIGN(Rid r, heap->Insert(Slice(std::string(64, 'y'))));
  EXPECT_EQ(r, hole);
}

TEST(EdgeCaseTest, DiskManagerAfterCloseFails) {
  TempFile f("edge_closed");
  DiskManager disk(f.path(), 4096);
  ASSERT_OK(disk.Open());
  ASSERT_OK(disk.AllocatePage().status());
  ASSERT_OK(disk.Close());
  char buf[4096];
  EXPECT_TRUE(disk.ReadPage(0, buf).IsIOError());
  EXPECT_TRUE(disk.WritePage(0, buf).IsIOError());
  EXPECT_TRUE(disk.AllocatePage().status().IsIOError());
}

TEST(EdgeCaseTest, TableRequiresKeyColumns) {
  Stack s = MakeStack("edge_nokey");
  Schema schema({{"v", TypeId::kInt64, 0}});
  TableOptions opts;  // no key columns
  EXPECT_TRUE(Table::Create(s.bp.get(), schema, opts)
                  .status()
                  .IsInvalidArgument());
  opts.key_columns = {7};  // out of range
  EXPECT_TRUE(Table::Create(s.bp.get(), schema, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(EdgeCaseTest, TableRejectsOversizedCacheItem) {
  Stack s = MakeStack("edge_bigitem");
  Schema schema({{"id", TypeId::kInt64, 0}, {"blob", TypeId::kVarchar, 600}});
  TableOptions opts;
  opts.key_columns = {0};
  opts.cached_columns = {1};  // 602-byte payload > kMaxCacheItemSize
  EXPECT_TRUE(Table::Create(s.bp.get(), schema, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(EdgeCaseTest, ZipfWithSingleItemAlwaysReturnsZero) {
  ZipfianGenerator z(1, 0.5, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.Next(), 0u);
  EXPECT_DOUBLE_EQ(z.ProbabilityOfRank(0), 1.0);
}

TEST(EdgeCaseTest, HotspotWithFullHotFraction) {
  HotspotGenerator g(100, 1.0, 0.5, 2);
  EXPECT_EQ(g.hot_count(), 100u);
  for (int i = 0; i < 200; ++i) EXPECT_LT(g.Next(), 100u);
}

TEST(EdgeCaseTest, BitPackWidth64HandlesMaxValues) {
  BitPackedVector v(64);
  v.Append(~0ull);
  v.Append(0);
  v.Append(0x8000000000000001ull);
  EXPECT_EQ(v.Get(0), ~0ull);
  EXPECT_EQ(v.Get(1), 0u);
  EXPECT_EQ(v.Get(2), 0x8000000000000001ull);
}

TEST(EdgeCaseTest, DictionaryOfEmptyColumn) {
  DictionaryColumn col = DictionaryColumn::Build({});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(col.dict_size(), 0u);
  EXPECT_EQ(col.CodeOf("anything"), SIZE_MAX);
}

TEST(EdgeCaseTest, DictionaryOfSingleRepeatedValue) {
  std::vector<std::string> values(1000, "same");
  DictionaryColumn col = DictionaryColumn::Build(values);
  EXPECT_EQ(col.dict_size(), 1u);
  EXPECT_EQ(col.Get(999), "same");
  // 1000 one-bit codes + one dict entry: tiny.
  EXPECT_LT(col.PayloadBytes(), 200u);
}

TEST(EdgeCaseTest, CacheGeometryWithGiantBucket) {
  std::vector<char> buf(4096, 0);
  BTreePageView view(buf.data(), 4096);
  BTreePageView::Init(buf.data(), 4096, kPageTypeBTreeLeaf, 8, 8, 25);
  // One bucket spanning every slot: all slots rank into bucket 0.
  CacheGeometry g = CacheGeometry::FromLeaf(view, 100000);
  ASSERT_GT(g.num_slots(), 0u);
  EXPECT_EQ(g.num_buckets(), 1u);
  for (size_t s = g.first_slot(); s < g.first_slot() + g.num_slots(); ++s) {
    EXPECT_EQ(g.BucketOfSlot(s), 0u);
  }
}

TEST(EdgeCaseTest, SemanticIdExtremeBitWidths) {
  SemanticIdCodec one(1);
  EXPECT_EQ(one.MaxPartition(), 1u);
  EXPECT_EQ(one.Encode(1, 5) >> 63, 1u);
  EXPECT_EQ(one.LocalOf(one.Encode(1, 5)), 5u);

  SemanticIdCodec wide(32);
  EXPECT_EQ(wide.MaxPartition(), UINT32_MAX);
  const uint64_t id = wide.Encode(UINT32_MAX, wide.MaxLocal());
  EXPECT_EQ(wide.PartitionOf(id), UINT32_MAX);
  EXPECT_EQ(wide.LocalOf(id), wide.MaxLocal());
}

TEST(EdgeCaseTest, KeyCodecZeroPaddingMakesShortStringsPrefixOrdered) {
  Schema s({{"t", TypeId::kVarchar, 8}});
  KeyCodec codec(&s, {0});
  ASSERT_OK_AND_ASSIGN(std::string a, codec.EncodeValues({Value::Varchar("ab")}));
  ASSERT_OK_AND_ASSIGN(std::string ab, codec.EncodeValues({Value::Varchar("abc")}));
  EXPECT_LT(Slice(a).Compare(Slice(ab)), 0);
  // Decode strips the zero padding back off.
  EXPECT_EQ(codec.Decode(Slice(a))[0].AsString(), "ab");
}

TEST(EdgeCaseTest, BTreeOnePagePerTupleHeap) {
  // Tuples so large only one fits per page: the §3.1 worst case.
  Stack s = MakeStack("edge_fat", 4096, 512);
  ASSERT_OK_AND_ASSIGN(auto heap, HeapFile::Create(s.bp.get()));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(heap->Insert(Slice(std::string(4000, 'z'))).status());
  }
  EXPECT_EQ(heap->pages().size(), 10u);
  ASSERT_OK_AND_ASSIGN(HeapFileStats st, heap->ComputeStats());
  EXPECT_EQ(st.tuples, 10u);
  EXPECT_EQ(st.used_bytes, 10 * (4000 + HeapFile::kSlotEntrySize));
  EXPECT_EQ(st.capacity_bytes, 10 * (4096 - HeapFile::kPageHeaderSize));
  // A tuple one byte longer than a page holds is refused.
  const std::string too_big(HeapFile::MaxTupleSize(4096) + 1, 'z');
  EXPECT_TRUE(heap->Insert(Slice(too_big)).status().IsInvalidArgument());
}

TEST(EdgeCaseTest, RowToStringFormatsAllFamilies) {
  Row row = {Value::Bool(false), Value::Int64(-1), Value::Varchar("x")};
  EXPECT_EQ(RowToString(row), "[false, -1, x]");
}

}  // namespace
}  // namespace nblb
