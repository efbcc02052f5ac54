#include "exec/database.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::TempFile;

DatabaseOptions Opts(const TempFile& f) {
  DatabaseOptions o;
  o.path = f.path();
  o.buffer_pool_frames = 256;
  return o;
}

Schema SimpleSchema() {
  return Schema({{"id", TypeId::kInt64, 0}, {"val", TypeId::kVarchar, 16}});
}

TableOptions SimpleOptions() {
  TableOptions o;
  o.key_columns = {0};
  o.cached_columns = {1};
  return o;
}

TEST(DatabaseTest, OpenCreateInsertLookup) {
  TempFile f("db_basic");
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(Opts(f)));
  ASSERT_OK_AND_ASSIGN(Table * t,
                       db->CreateTable("kv", SimpleSchema(), SimpleOptions()));
  ASSERT_OK(t->Insert({Value::Int64(1), Value::Varchar("one")}));
  ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey({Value::Int64(1)}));
  EXPECT_EQ(row[1].AsString(), "one");
}

TEST(DatabaseTest, OpenRejectsMoreThanOneBufferPoolStripe) {
  // The pool has one CLOCK: 0 and 1 both open, anything larger is refused.
  TempFile f("db_stripes");
  DatabaseOptions o = Opts(f);
  for (size_t stripes : {0, 1}) {
    o.buffer_pool_stripes = stripes;
    ASSERT_OK(Database::Open(o).status());
  }
  o.buffer_pool_stripes = 4;
  EXPECT_TRUE(Database::Open(o).status().IsInvalidArgument());
}

TEST(DatabaseTest, TableRegistry) {
  TempFile f("db_registry");
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(Opts(f)));
  ASSERT_OK(db->CreateTable("a", SimpleSchema(), SimpleOptions()).status());
  ASSERT_OK(db->CreateTable("b", SimpleSchema(), SimpleOptions()).status());
  EXPECT_TRUE(db->CreateTable("a", SimpleSchema(), SimpleOptions())
                  .status()
                  .IsAlreadyExists());
  ASSERT_OK_AND_ASSIGN(Table * a, db->GetTable("a"));
  ASSERT_OK_AND_ASSIGN(Table * b, db->GetTable("b"));
  EXPECT_NE(a, b);
  EXPECT_TRUE(db->GetTable("c").status().IsNotFound());
}

TEST(DatabaseTest, MultipleTablesShareOneFile) {
  TempFile f("db_shared");
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(Opts(f)));
  ASSERT_OK_AND_ASSIGN(Table * a,
                       db->CreateTable("a", SimpleSchema(), SimpleOptions()));
  ASSERT_OK_AND_ASSIGN(Table * b,
                       db->CreateTable("b", SimpleSchema(), SimpleOptions()));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(a->Insert({Value::Int64(i), Value::Varchar("a")}));
    ASSERT_OK(b->Insert({Value::Int64(i), Value::Varchar("b")}));
  }
  ASSERT_OK_AND_ASSIGN(Row ra, a->GetByKey({Value::Int64(50)}));
  ASSERT_OK_AND_ASSIGN(Row rb, b->GetByKey({Value::Int64(50)}));
  EXPECT_EQ(ra[1].AsString(), "a");
  EXPECT_EQ(rb[1].AsString(), "b");
}

TEST(DatabaseTest, CheckpointFlushesAllDirtyPages) {
  TempFile f("db_ckpt");
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(Opts(f)));
  ASSERT_OK_AND_ASSIGN(Table * t,
                       db->CreateTable("kv", SimpleSchema(), SimpleOptions()));
  for (int64_t i = 0; i < 500; ++i) {
    ASSERT_OK(t->Insert({Value::Int64(i), Value::Varchar("v")}));
  }
  ASSERT_OK(db->Checkpoint());
  // Everything still resolvable after dropping the pool contents.
  ASSERT_OK(db->buffer_pool()->EvictAll());
  ASSERT_OK_AND_ASSIGN(Row row, t->GetByKey({Value::Int64(321)}));
  EXPECT_EQ(row[0].AsInt(), 321);
}

TEST(DatabaseTest, LatencyModelChargesVirtualTimeOnMisses) {
  TempFile f("db_latency");
  DatabaseOptions o = Opts(f);
  o.enable_latency_model = true;
  o.latency.seek_ns = 1'000'000;
  o.buffer_pool_frames = 16;  // tiny: force disk traffic
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(o));
  ASSERT_OK_AND_ASSIGN(Table * t,
                       db->CreateTable("kv", SimpleSchema(), SimpleOptions()));
  // Trimmed rows of "v" take 15 bytes of heap page each: 8000 of them fill
  // ~15 heap pages and ~35 half-full leaves, well past the 16 frames.
  for (int64_t i = 0; i < 8000; ++i) {
    ASSERT_OK(t->Insert({Value::Int64(i), Value::Varchar("v")}));
  }
  ASSERT_GT(db->metrics()->Snapshot().Total("buffer_pool.evictions"), 0u);
  EXPECT_GT(db->clock()->NowNs(), 0u)
      << "evictions under a tiny pool must have charged simulated latency";
}

}  // namespace
}  // namespace nblb
