// End-to-end scenarios through the public Database API, mirroring the
// paper's two headline experiments at test scale.

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "exec/database.h"
#include "partition/clusterer.h"
#include "partition/partitioned_table.h"
#include "test_util.h"
#include "workload/wikipedia.h"

namespace nblb {
namespace {

using nblb::testing::TempFile;

// ---------------------------------------------------------------------------
// Scenario 1 (§2.1.4): page lookups through the name_title index cache.
// ---------------------------------------------------------------------------

TEST(IntegrationTest, WikipediaPageLookupsServeMostlyFromIndexCache) {
  TempFile f("int_wiki_cache");
  DatabaseOptions dbo;
  dbo.path = f.path();
  dbo.buffer_pool_frames = 4096;
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dbo));

  WikipediaScale scale;
  scale.num_pages = 3000;
  scale.revisions_per_page = 2;
  WikipediaSynthesizer synth(scale);

  Schema schema = WikipediaSynthesizer::PageSchema();
  TableOptions topts;
  topts.key_columns = {*schema.FindColumn("page_namespace"),
                       *schema.FindColumn("page_title")};
  // The paper caches 4 additional fields.
  topts.cached_columns = {*schema.FindColumn("page_id"),
                          *schema.FindColumn("page_latest"),
                          *schema.FindColumn("page_is_redirect"),
                          *schema.FindColumn("page_len")};
  ASSERT_OK_AND_ASSIGN(Table * page, db->CreateTable("page", schema, topts));
  for (const Row& row : synth.pages()) {
    ASSERT_OK(page->Insert(row));
  }

  const std::vector<size_t> proj = {*schema.FindColumn("page_id"),
                                    *schema.FindColumn("page_latest")};
  const auto trace = synth.PageLookupTrace(20000);
  for (uint64_t pidx : trace) {
    const Row& p = synth.pages()[pidx];
    ASSERT_OK_AND_ASSIGN(
        Row r, page->LookupProjected({p[1], p[2]}, proj));
    // Correctness on every single lookup: page_id and page_latest.
    ASSERT_EQ(r[0].AsInt(), p[0].AsInt());
    ASSERT_EQ(r[1].AsInt(), p[9].AsInt());
  }
  // The zipf-skewed trace must be answered mostly from the index cache.
  const TableStats& st = page->stats();
  const double cache_share =
      static_cast<double>(st.answered_from_cache) / st.lookups;
  EXPECT_GT(cache_share, 0.5)
      << "answered_from_cache=" << st.answered_from_cache
      << " lookups=" << st.lookups;
  EXPECT_EQ(st.answered_from_cache + st.heap_fetches, st.lookups);
}

TEST(IntegrationTest, CacheKeepsAnsweringCorrectlyUnderUpdates) {
  TempFile f("int_updates");
  DatabaseOptions dbo;
  dbo.path = f.path();
  dbo.buffer_pool_frames = 2048;
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dbo));

  Schema schema({{"id", TypeId::kInt64, 0},
                 {"counter", TypeId::kInt64, 0},
                 {"pad", TypeId::kChar, 64}});
  TableOptions topts;
  topts.key_columns = {0};
  topts.cached_columns = {1};
  ASSERT_OK_AND_ASSIGN(Table * t, db->CreateTable("t", schema, topts));
  constexpr int64_t kN = 500;
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_OK(t->Insert({Value::Int64(i), Value::Int64(0), Value::Char("p")}));
  }
  // Interleave cached lookups with updates; the cache must never serve a
  // stale counter.
  std::vector<int64_t> truth(kN, 0);
  Rng rng(11);
  for (int op = 0; op < 20000; ++op) {
    const int64_t id = static_cast<int64_t>(rng.Uniform(kN));
    if (rng.Bernoulli(0.2)) {
      truth[id]++;
      ASSERT_OK(t->UpdateByKey({Value::Int64(id)},
                               {Value::Int64(id), Value::Int64(truth[id]),
                                Value::Char("p")}));
    } else {
      ASSERT_OK_AND_ASSIGN(Row r,
                           t->LookupProjected({Value::Int64(id)}, {1}));
      ASSERT_EQ(r[0].AsInt(), truth[id]) << "stale cached counter for " << id;
    }
  }
  // With 20% updates the cache still contributes (sanity, not a tight bound).
  EXPECT_GT(t->stats().lookups, 0u);
}

// ---------------------------------------------------------------------------
// Scenario 2 (§3.1): revision clustering and hot partitioning.
// ---------------------------------------------------------------------------

TEST(IntegrationTest, RevisionHotPartitionReducesBufferPoolMisses) {
  TempFile f("int_revision");
  DatabaseOptions dbo;
  dbo.path = f.path();
  dbo.page_size = 4096;
  dbo.buffer_pool_frames = 128;  // deliberately small: the full data set
                                 // thrashes, the hot partition fits
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dbo));

  WikipediaScale scale;
  scale.num_pages = 800;
  scale.revisions_per_page = 20;
  WikipediaSynthesizer synth(scale);

  Schema schema = WikipediaSynthesizer::RevisionSchema();
  TableOptions topts;
  topts.key_columns = {0};  // rev_id
  topts.cached_columns = {};
  topts.enable_index_cache = false;  // isolate the partitioning effect
  ASSERT_OK_AND_ASSIGN(Table * rev, db->CreateTable("revision", schema, topts));
  for (const Row& row : synth.revisions()) {
    ASSERT_OK(rev->Insert(row));
  }

  std::unordered_set<std::string> hot_keys;
  for (int64_t id : synth.latest_revision_ids()) {
    hot_keys.insert(*rev->key_codec().EncodeValues({Value::Int64(id)}));
  }
  ASSERT_OK_AND_ASSIGN(auto pt, PartitionedTable::BuildFromTable(
                                    db->buffer_pool(), rev, hot_keys));

  const auto trace = synth.RevisionLookupTrace(4000, 0.999);

  MetricsSnapshot before_run;
  auto run = [&](auto&& lookup) {
    ASSERT_OK(db->buffer_pool()->EvictAll());
    before_run = db->metrics()->Snapshot();
    for (int64_t id : trace) {
      lookup(id);
    }
  };
  auto run_misses = [&] {
    return (db->metrics()->Snapshot() - before_run).Total("buffer_pool.misses");
  };

  double misses_unclustered = 0, misses_partitioned = 0;
  run([&](int64_t id) {
    auto r = rev->LookupProjected({Value::Int64(id)}, {1});
    ASSERT_TRUE(r.ok());
  });
  misses_unclustered = run_misses();

  run([&](int64_t id) {
    auto r = pt->LookupProjected({Value::Int64(id)}, {1});
    ASSERT_TRUE(r.ok());
  });
  misses_partitioned = run_misses();

  EXPECT_LT(misses_partitioned * 2, misses_unclustered)
      << "partitioned: " << misses_partitioned
      << " unclustered: " << misses_unclustered;
}

TEST(IntegrationTest, ClusteringImprovesHeapLocalityForHotTrace) {
  TempFile f("int_cluster");
  DatabaseOptions dbo;
  dbo.path = f.path();
  dbo.page_size = 4096;
  dbo.buffer_pool_frames = 4096;
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dbo));

  WikipediaScale scale;
  scale.num_pages = 400;
  scale.revisions_per_page = 20;
  WikipediaSynthesizer synth(scale);

  Schema schema = WikipediaSynthesizer::RevisionSchema();
  TableOptions topts;
  topts.key_columns = {0};
  topts.enable_index_cache = false;
  ASSERT_OK_AND_ASSIGN(Table * rev, db->CreateTable("revision", schema, topts));
  for (const Row& row : synth.revisions()) {
    ASSERT_OK(rev->Insert(row));
  }

  // Pages holding hot tuples before clustering.
  auto hot_page_count = [&]() {
    std::unordered_set<PageId> pages;
    for (int64_t id : synth.latest_revision_ids()) {
      auto enc = rev->key_codec().EncodeValues({Value::Int64(id)});
      auto tid = rev->index()->Get(Slice(*enc));
      EXPECT_TRUE(tid.ok());
      pages.insert(Rid::FromU64(*tid).page);
    }
    return pages.size();
  };
  const size_t before = hot_page_count();

  std::vector<std::vector<Value>> hot_keys;
  for (int64_t id : synth.latest_revision_ids()) {
    hot_keys.push_back({Value::Int64(id)});
  }
  ASSERT_OK(
      Clusterer::ClusterHotTuples(rev, hot_keys, 1.0).status());
  const size_t after = hot_page_count();
  // After clustering, hot tuples pack as densely as their bytes (each with
  // its slot entry) permit.
  size_t hot_bytes = 0;
  for (int64_t id : synth.latest_revision_ids()) {
    auto enc = rev->key_codec().EncodeValues({Value::Int64(id)});
    ASSERT_OK_AND_ASSIGN(uint64_t tid, rev->index()->Get(Slice(*enc)));
    std::string tuple;
    ASSERT_OK(rev->heap()->Get(Rid::FromU64(tid), &tuple));
    hot_bytes += tuple.size() + HeapFile::kSlotEntrySize;
  }
  const size_t page_bytes = dbo.page_size - HeapFile::kPageHeaderSize;
  const size_t min_pages = (hot_bytes + page_bytes - 1) / page_bytes;
  EXPECT_LE(after, min_pages + 1);
  EXPECT_LT(after * 2, before);

  // Everything still answers correctly post-clustering.
  for (int64_t id : synth.latest_revision_ids()) {
    ASSERT_OK_AND_ASSIGN(Row r, rev->GetByKey({Value::Int64(id)}));
    ASSERT_EQ(r[0].AsInt(), id);
  }
}

}  // namespace
}  // namespace nblb
