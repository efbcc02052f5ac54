// Hot/cold clustering of Wikipedia's revision table (§3.1 of the paper).
//
// 99.9% of revision reads hit the 5% of tuples that are each page's latest
// revision — but those tuples are scattered roughly one per data page. This
// example measures page utilization before/after access-based clustering and
// the buffer-pool miss rate with a dedicated hot partition.
//
//   ./build/examples/hot_cold_revisions

#include <cstdio>
#include <string>
#include <unordered_set>

#include "exec/database.h"
#include "partition/clusterer.h"
#include "partition/partitioned_table.h"
#include "workload/wikipedia.h"

using namespace nblb;

int main() {
  DatabaseOptions dbo;
  dbo.path = "/tmp/nblb_example_revisions.db";
  std::remove(dbo.path.c_str());
  dbo.page_size = 4096;
  dbo.buffer_pool_frames = 256;  // small on purpose: locality matters
  auto dbr = Database::Open(dbo);
  if (!dbr.ok()) return 1;
  auto db = std::move(*dbr);

  WikipediaScale scale;
  scale.num_pages = 1000;
  scale.revisions_per_page = 20;
  WikipediaSynthesizer synth(scale);

  Schema schema = WikipediaSynthesizer::RevisionSchema();
  TableOptions topts;
  topts.key_columns = {0};  // rev_id
  topts.enable_index_cache = false;
  auto tr = db->CreateTable("revision", schema, topts);
  if (!tr.ok()) return 1;
  Table* rev = *tr;
  for (const Row& row : synth.revisions()) {
    if (!rev->Insert(row).ok()) return 1;
  }

  // How scattered are the hot tuples? Counts the pages holding them and
  // the bytes they use there (tuple bytes plus a slot entry each).
  size_t hot_bytes = 0;
  auto hot_pages = [&]() {
    std::unordered_set<PageId> pages;
    hot_bytes = 0;
    for (int64_t id : synth.latest_revision_ids()) {
      auto enc = rev->key_codec().EncodeValues({Value::Int64(id)});
      auto tid = rev->index()->Get(Slice(*enc));
      std::string tuple;
      if (!tid.ok() || !rev->heap()->Get(Rid::FromU64(*tid), &tuple).ok()) {
        continue;
      }
      pages.insert(Rid::FromU64(*tid).page);
      hot_bytes += tuple.size() + HeapFile::kSlotEntrySize;
    }
    return pages.size();
  };
  const size_t hot = synth.latest_revision_ids().size();
  std::printf("%zu hot tuples (latest revisions) out of %zu rows\n", hot,
              synth.revisions().size());
  const size_t pages_before = hot_pages();
  std::printf("before clustering: hot tuples spread over %zu heap pages "
              "(%.1f%% of those pages' bytes hold hot tuples)\n",
              pages_before,
              100.0 * static_cast<double>(hot_bytes) /
                  static_cast<double>(pages_before * (dbo.page_size -
                                                      HeapFile::kPageHeaderSize)));

  // Cluster: delete-then-append every hot tuple (§3.1).
  std::vector<std::vector<Value>> hot_keys;
  for (int64_t id : synth.latest_revision_ids()) {
    hot_keys.push_back({Value::Int64(id)});
  }
  ForwardingTable fwd;
  auto report = Clusterer::ClusterHotTuples(rev, hot_keys, 1.0, &fwd);
  if (!report.ok()) return 1;
  std::printf("after clustering %llu tuples: hot tuples packed into %zu "
              "pages; %zu forwarding entries recorded\n",
              static_cast<unsigned long long>(report->relocated), hot_pages(),
              fwd.size());

  // Replay the skewed read trace against table vs hot partition.
  std::unordered_set<std::string> hot_key_set;
  for (int64_t id : synth.latest_revision_ids()) {
    hot_key_set.insert(*rev->key_codec().EncodeValues({Value::Int64(id)}));
  }
  auto ptr = PartitionedTable::BuildFromTable(db->buffer_pool(), rev,
                                              hot_key_set);
  if (!ptr.ok()) return 1;
  auto pt = std::move(*ptr);

  const auto trace = synth.RevisionLookupTrace(5000, 0.999);
  // A run's miss rate, from the pool counters before and after it.
  auto miss_rate_since = [&db](const MetricsSnapshot& before) {
    const MetricsSnapshot run = db->metrics()->Snapshot() - before;
    const uint64_t hits = run.Total("buffer_pool.hits");
    const uint64_t accesses = hits + run.Total("buffer_pool.misses");
    return 1.0 - (accesses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(accesses));
  };
  (void)db->buffer_pool()->EvictAll();
  MetricsSnapshot before = db->metrics()->Snapshot();
  for (int64_t id : trace) {
    if (!rev->LookupProjected({Value::Int64(id)}, {1}).ok()) return 1;
  }
  const double clustered_miss = miss_rate_since(before);

  (void)db->buffer_pool()->EvictAll();
  before = db->metrics()->Snapshot();
  for (int64_t id : trace) {
    if (!pt->LookupProjected({Value::Int64(id)}, {1}).ok()) return 1;
  }
  const double partitioned_miss = miss_rate_since(before);

  std::printf("\nbuffer-pool miss rate on the 99.9%%-hot trace:\n");
  std::printf("  clustered table : %.2f%%\n", clustered_miss * 100);
  std::printf("  hot partition   : %.2f%% (its index+data fit the pool)\n",
              partitioned_miss * 100);
  std::remove(dbo.path.c_str());
  return 0;
}
