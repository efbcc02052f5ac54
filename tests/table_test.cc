#include "exec/table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::MakeStack;
using nblb::testing::Stack;

// The paper's running example: Wikipedia's page table with the name_title
// index (namespace, title) caching 4 additional fields.
Schema PageSchema() {
  return Schema({{"page_namespace", TypeId::kInt32, 0},
                 {"page_title", TypeId::kVarchar, 20},
                 {"page_id", TypeId::kInt64, 0},
                 {"page_latest", TypeId::kInt64, 0},
                 {"page_is_redirect", TypeId::kBool, 0},
                 {"page_len", TypeId::kInt32, 0},
                 {"page_comment", TypeId::kVarchar, 40}});
}

TableOptions PageOptions(bool cache = true) {
  TableOptions o;
  o.key_columns = {0, 1};             // (namespace, title)
  o.cached_columns = {2, 3, 4, 5};    // id, latest, is_redirect, len
  o.enable_index_cache = cache;
  return o;
}

Row PageRow(int32_t ns, const std::string& title, int64_t id) {
  return {Value::Int32(ns),     Value::Varchar(title),
          Value::Int64(id),     Value::Int64(id * 10),
          Value::Bool(id % 7 == 0), Value::Int32(static_cast<int32_t>(id % 9000)),
          Value::Varchar("comment_" + std::to_string(id))};
}

std::vector<Value> KeyOf(int32_t ns, const std::string& title) {
  return {Value::Int32(ns), Value::Varchar(title)};
}

TEST(TableTest, InsertAndGetByKey) {
  Stack s = MakeStack("tbl_basic");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(0, "Main_Page", 1)));
  ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey(KeyOf(0, "Main_Page")));
  EXPECT_EQ(row[2].AsInt(), 1);
  EXPECT_EQ(row[6].AsString(), "comment_1");
  EXPECT_TRUE(t->GetByKey(KeyOf(0, "Nope")).status().IsNotFound());
}

TEST(TableTest, DuplicateKeyInsertFailsAndRollsBackHeap) {
  Stack s = MakeStack("tbl_dup");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(0, "X", 1)));
  EXPECT_TRUE(t->Insert(PageRow(0, "X", 2)).IsAlreadyExists());
  EXPECT_EQ(t->heap()->tuple_count(), 1u);
  ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey(KeyOf(0, "X")));
  EXPECT_EQ(row[2].AsInt(), 1);
}

TEST(TableTest, CoveredProjectionIsAnsweredFromCacheOnSecondLookup) {
  Stack s = MakeStack("tbl_cache");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_OK(t->Insert(PageRow(0, "T" + std::to_string(i), i)));
  }
  const std::vector<size_t> proj = {2, 3};  // page_id, page_latest (cached)
  // First lookup: heap fetch + populate.
  ASSERT_OK_AND_ASSIGN(Row r1, t->LookupProjected(KeyOf(0, "T7"), proj));
  EXPECT_EQ(r1[0].AsInt(), 7);
  EXPECT_EQ(t->stats().answered_from_cache, 0u);
  EXPECT_EQ(t->stats().heap_fetches, 1u);
  // Second lookup: answered from the index page, no heap access.
  ASSERT_OK_AND_ASSIGN(Row r2, t->LookupProjected(KeyOf(0, "T7"), proj));
  EXPECT_EQ(r2[0].AsInt(), 7);
  EXPECT_EQ(r2[1].AsInt(), 70);
  EXPECT_EQ(t->stats().answered_from_cache, 1u);
  EXPECT_EQ(t->stats().heap_fetches, 1u) << "no second heap fetch";
}

TEST(TableTest, UncoveredProjectionAlwaysFetchesHeap) {
  Stack s = MakeStack("tbl_uncovered");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(0, "X", 3)));
  const std::vector<size_t> proj = {2, 6};  // page_comment is NOT cached
  EXPECT_FALSE(t->ProjectionCoveredByIndex(proj));
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(Row r, t->LookupProjected(KeyOf(0, "X"), proj));
    EXPECT_EQ(r[1].AsString(), "comment_3");
  }
  EXPECT_EQ(t->stats().answered_from_cache, 0u);
  EXPECT_EQ(t->stats().heap_fetches, 3u);
}

TEST(TableTest, ProjectionIncludingKeyColumnsIsCovered) {
  Stack s = MakeStack("tbl_keyproj");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(4, "Talk", 9)));
  const std::vector<size_t> proj = {0, 1, 2};  // ns, title (key) + id (cached)
  EXPECT_TRUE(t->ProjectionCoveredByIndex(proj));
  ASSERT_OK_AND_ASSIGN(Row warm, t->LookupProjected(KeyOf(4, "Talk"), proj));
  ASSERT_OK_AND_ASSIGN(Row hit, t->LookupProjected(KeyOf(4, "Talk"), proj));
  EXPECT_EQ(hit[0].AsInt(), 4);
  EXPECT_EQ(hit[1].AsString(), "Talk");
  EXPECT_EQ(hit[2].AsInt(), 9);
  EXPECT_EQ(t->stats().answered_from_cache, 1u);
}

TEST(TableTest, UpdateInvalidatesCachedCopy) {
  // THE correctness property of §2.1.2: after an update, no lookup may see
  // the stale cached version.
  Stack s = MakeStack("tbl_update");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(0, "Page", 100)));
  const std::vector<size_t> proj = {3};  // page_latest, cached
  // Warm the cache.
  ASSERT_OK(t->LookupProjected(KeyOf(0, "Page"), proj).status());
  ASSERT_OK(t->LookupProjected(KeyOf(0, "Page"), proj).status());
  ASSERT_EQ(t->stats().answered_from_cache, 1u);
  // Update page_latest 1000 -> 1001.
  Row updated = PageRow(0, "Page", 100);
  updated[3] = Value::Int64(1001);
  ASSERT_OK(t->UpdateByKey(KeyOf(0, "Page"), updated));
  // Every subsequent read must see the new value.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(Row r, t->LookupProjected(KeyOf(0, "Page"), proj));
    EXPECT_EQ(r[0].AsInt(), 1001) << "stale cache served after update";
  }
}

TEST(TableTest, UpdateCannotChangeKeyColumns) {
  Stack s = MakeStack("tbl_keychange");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(0, "A", 1)));
  EXPECT_TRUE(t->UpdateByKey(KeyOf(0, "A"), PageRow(0, "B", 1))
                  .IsInvalidArgument());
}

TEST(TableTest, DeleteRemovesEverywhere) {
  Stack s = MakeStack("tbl_delete");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  ASSERT_OK(t->Insert(PageRow(0, "Gone", 5)));
  // Warm the cache so the delete has something to invalidate.
  ASSERT_OK(t->LookupProjected(KeyOf(0, "Gone"), {2}).status());
  ASSERT_OK(t->DeleteByKey(KeyOf(0, "Gone")));
  EXPECT_TRUE(t->GetByKey(KeyOf(0, "Gone")).status().IsNotFound());
  EXPECT_TRUE(t->LookupProjected(KeyOf(0, "Gone"), {2}).status().IsNotFound());
  EXPECT_EQ(t->heap()->tuple_count(), 0u);
  EXPECT_EQ(t->index()->num_entries(), 0u);
}

TEST(TableTest, RelocateMovesTupleToHeapTail) {
  Stack s = MakeStack("tbl_reloc");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_OK(t->Insert(PageRow(0, "R" + std::to_string(i), i)));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t tid_before,
                       t->index()->Get(Slice(*t->key_codec().EncodeValues(
                           KeyOf(0, "R10")))));
  ASSERT_OK_AND_ASSIGN(Rid new_rid, t->Relocate(KeyOf(0, "R10")));
  EXPECT_NE(new_rid.ToU64(), tid_before);
  EXPECT_GE(new_rid.page, Rid::FromU64(tid_before).page);
  // Lookup still works and returns the same logical row.
  ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey(KeyOf(0, "R10")));
  EXPECT_EQ(row[2].AsInt(), 10);
}

TEST(TableTest, RelocateDoesNotServeStaleCacheForRecycledRid) {
  // Relocation frees the old RID; a cached item keyed by that RID must not
  // leak into lookups for whatever tuple reuses it later.
  Stack s = MakeStack("tbl_reloc_stale");
  TableOptions opts = PageOptions();
  opts.reuse_free_slots = true;  // force RID recycling
  ASSERT_OK_AND_ASSIGN(auto t, Table::Create(s.bp.get(), PageSchema(), opts));
  ASSERT_OK(t->Insert(PageRow(0, "Old", 1)));
  // Warm the cache for "Old".
  ASSERT_OK(t->LookupProjected(KeyOf(0, "Old"), {2}).status());
  // Move it; the old slot becomes free and is reused by the next insert.
  ASSERT_OK(t->Relocate(KeyOf(0, "Old")).status());
  ASSERT_OK(t->Insert(PageRow(0, "New", 2)));
  ASSERT_OK_AND_ASSIGN(Row r, t->LookupProjected(KeyOf(0, "New"), {2}));
  EXPECT_EQ(r[0].AsInt(), 2) << "cache served the old tuple for a reused RID";
}

// Rows are stored trimmed, so an update can outgrow its page.
Schema NoteSchema() {
  return Schema({{"id", TypeId::kInt64, 0}, {"note", TypeId::kVarchar, 1000}});
}

TableOptions NoteOptions() {
  TableOptions o;
  o.key_columns = {0};
  return o;
}

Row NoteRow(int64_t id, size_t len) {
  return {Value::Int64(id), Value::Varchar(std::string(len, 'n'))};
}

TEST(TableTest, UpdateThatOutgrowsItsPageMovesTheRow) {
  Stack s = MakeStack("tbl_move");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), NoteSchema(), NoteOptions()));
  // 18 bytes a row with its slot: the first page fills up.
  for (int64_t i = 0; i < 600; ++i) ASSERT_OK(t->Insert(NoteRow(i, 4)));
  ASSERT_GE(t->heap()->pages().size(), 2u);
  const std::string key = *t->key_codec().EncodeValues({Value::Int64(5)});
  ASSERT_OK_AND_ASSIGN(uint64_t tid, t->index()->Get(Slice(key)));
  const Rid old_rid = Rid::FromU64(tid);
  ASSERT_EQ(old_rid.page, t->heap()->first_page_id());

  // Shrinking and growing by a few bytes stays in place...
  ASSERT_OK(t->UpdateByKey({Value::Int64(5)}, NoteRow(5, 2)));
  ASSERT_OK(t->UpdateByKey({Value::Int64(5)}, NoteRow(5, 6)));
  ASSERT_OK_AND_ASSIGN(uint64_t same, t->index()->Get(Slice(key)));
  EXPECT_EQ(same, tid);
  EXPECT_EQ(t->stats().moves, 0u);

  // ...growing past the page's free bytes moves the row to the tail.
  ASSERT_OK(t->UpdateByKey({Value::Int64(5)}, NoteRow(5, 1000)));
  EXPECT_EQ(t->stats().moves, 1u);
  EXPECT_EQ(t->stats().updates, 3u);
  ASSERT_OK_AND_ASSIGN(uint64_t moved, t->index()->Get(Slice(key)));
  EXPECT_EQ(Rid::FromU64(moved).page, t->heap()->pages().back());
  std::string bytes;
  EXPECT_TRUE(t->heap()->Get(old_rid, &bytes).IsNotFound());
  ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey({Value::Int64(5)}));
  EXPECT_EQ(row[1].AsString(), std::string(1000, 'n'));
  EXPECT_EQ(t->heap()->tuple_count(), 600u);
  EXPECT_EQ(t->last_image().size(), 8 + 2 + 1000u);

  // A caller that frees the old slot itself gets its rid, still live.
  ASSERT_OK_AND_ASSIGN(uint64_t tid7, t->index()->Get(Slice(
                           *t->key_codec().EncodeValues({Value::Int64(7)}))));
  Rid moved_from;
  ASSERT_OK(t->UpdateByKey({Value::Int64(7)}, NoteRow(7, 1000), &moved_from));
  EXPECT_EQ(moved_from, Rid::FromU64(tid7));
  ASSERT_OK(t->heap()->Get(moved_from, &bytes));
  EXPECT_EQ(t->heap()->tuple_count(), 601u);
  ASSERT_OK(t->heap()->Delete(moved_from));
  ASSERT_OK(t->UpdateByKey({Value::Int64(7)}, NoteRow(7, 3), &moved_from));
  EXPECT_FALSE(moved_from.IsValid());
  ASSERT_OK_AND_ASSIGN(Row row7, t->GetByKey({Value::Int64(7)}));
  EXPECT_EQ(row7[1].AsString(), "nnn");
}

TEST(TableTest, DisabledCacheStillAnswersQueries) {
  Stack s = MakeStack("tbl_nocache");
  ASSERT_OK_AND_ASSIGN(
      auto t, Table::Create(s.bp.get(), PageSchema(), PageOptions(false)));
  EXPECT_EQ(t->cache(), nullptr);
  ASSERT_OK(t->Insert(PageRow(0, "NC", 1)));
  ASSERT_OK_AND_ASSIGN(Row r, t->LookupProjected(KeyOf(0, "NC"), {2, 3}));
  EXPECT_EQ(r[0].AsInt(), 1);
  EXPECT_EQ(t->stats().answered_from_cache, 0u);
  EXPECT_EQ(t->stats().heap_fetches, 1u);
}

TEST(TableTest, ForEachRowVisitsEveryTuple) {
  Stack s = MakeStack("tbl_scan");
  ASSERT_OK_AND_ASSIGN(auto t,
                       Table::Create(s.bp.get(), PageSchema(), PageOptions()));
  for (int64_t i = 0; i < 25; ++i) {
    ASSERT_OK(t->Insert(PageRow(0, "S" + std::to_string(i), i)));
  }
  int64_t sum = 0;
  ASSERT_OK(t->ForEachRow([&](const Rid&, const Row& row) {
    sum += row[2].AsInt();
    return Status::OK();
  }));
  EXPECT_EQ(sum, 24 * 25 / 2);
}

}  // namespace
}  // namespace nblb
