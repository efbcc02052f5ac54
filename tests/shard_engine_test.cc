// ShardedEngine tests: single-thread correctness against a plain Table
// oracle, hash placement, batch semantics, and a multi-threaded smoke test
// (no lost inserts, consistent lookups under 8 client threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "shard/sharded_engine.h"
#include "test_util.h"
#include "workload/replay.h"
#include "workload/wikipedia.h"

namespace nblb {
namespace {

using nblb::testing::TempFile;

Schema SmallSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"payload", TypeId::kVarchar, 32},
                 {"score", TypeId::kInt64, 0}});
}

Row MakeRow(uint64_t id) {
  return {Value::Int64(static_cast<int64_t>(id)),
          Value::Varchar("payload-" + std::to_string(id)),
          Value::Int64(static_cast<int64_t>(id * 7 + 3))};
}

ShardedEngineOptions SmallOptions(const std::string& tag, uint32_t shards,
                                  uint32_t workers = 0) {
  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.num_workers = workers;
  opts.path_prefix = ::testing::TempDir() + "nblb_engine_" + tag + "_" +
                     std::to_string(::getpid());
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 512;
  opts.schema = SmallSchema();
  opts.table_options.key_columns = {0};
  opts.table_options.cached_columns = {2};
  return opts;
}

/// Removes the per-shard backing files an engine created.
void Cleanup(const ShardedEngineOptions& opts) {
  for (uint32_t i = 0; i < opts.num_shards; ++i) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(i) + ".db").c_str());
  }
}

TEST(ShardedEngineTest, MatchesPlainTableOracle) {
  auto opts = SmallOptions("oracle", 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  // Oracle: one plain single-threaded Table with the same schema.
  auto stack = nblb::testing::MakeStack("shard_oracle", 4096, 2048);
  TableOptions topts;
  topts.key_columns = {0};
  topts.cached_columns = {2};
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       Table::Create(stack.bp.get(), SmallSchema(), topts));

  constexpr uint64_t kRows = 2000;
  Rng rng(7);
  std::vector<uint64_t> ids;
  ids.reserve(kRows);
  while (ids.size() < kRows) {
    // Sparse, shuffled id space so routing is non-trivial.
    const uint64_t id = rng.Uniform(1u << 20);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  RequestBatch inserts;
  for (uint64_t id : ids) {
    inserts.push_back(Request::Insert(id, MakeRow(id)));
    ASSERT_OK(oracle->Insert(MakeRow(id)));
  }
  BatchResult insert_result = engine->Execute(inserts);
  ASSERT_TRUE(insert_result.all_ok());

  // Full-row lookups must agree with the oracle.
  RequestBatch gets;
  for (uint64_t id : ids) gets.push_back(Request::Get(id));
  BatchResult get_result = engine->Execute(gets);
  ASSERT_EQ(get_result.results.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_OK(get_result.results[i].status);
    ASSERT_OK_AND_ASSIGN(
        Row expected, oracle->GetByKey({Value::Int64(
                          static_cast<int64_t>(ids[i]))}));
    EXPECT_EQ(get_result.results[i].row, expected) << "id=" << ids[i];
  }

  // Projected lookups (index-cache path) must agree too.
  const std::vector<size_t> projection = {0, 2};
  RequestBatch projected;
  for (uint64_t id : ids) {
    projected.push_back(Request::GetProjected(id, projection));
  }
  BatchResult proj_result = engine->Execute(projected);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_OK(proj_result.results[i].status);
    ASSERT_OK_AND_ASSIGN(
        Row expected,
        oracle->LookupProjected(
            {Value::Int64(static_cast<int64_t>(ids[i]))}, projection));
    EXPECT_EQ(proj_result.results[i].row, expected);
  }

  // Missing keys are NotFound, never a wrong row.
  auto missing = engine->Get((1ull << 40) + 17);
  EXPECT_TRUE(missing.status().IsNotFound());

  // Duplicate insert surfaces AlreadyExists on exactly that request.
  RequestBatch dup;
  dup.push_back(Request::Insert(ids[0], MakeRow(ids[0])));
  dup.push_back(Request::Get(ids[1]));
  BatchResult dup_result = engine->Execute(dup);
  EXPECT_TRUE(dup_result.results[0].status.IsAlreadyExists());
  EXPECT_OK(dup_result.results[1].status);

  const MetricsSnapshot totals = engine->MetricsSnapshotNow();
  // +1 duplicate attempt; + missing probe + dup-batch get.
  EXPECT_EQ(totals.Total("shard.inserts"), ids.size() + 1);
  EXPECT_EQ(totals.Total("shard.gets"), ids.size() + 2);
  EXPECT_EQ(totals.Total("shard.projected_gets"), ids.size());
  Cleanup(opts);
}

TEST(ShardedEngineTest, HashRouterSpreadsSequentialIds) {
  auto opts = SmallOptions("spread", 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  RequestBatch inserts;
  for (uint64_t id = 0; id < 1000; ++id) {
    inserts.push_back(Request::Insert(id, MakeRow(id)));
  }
  const BatchResult result = engine->Execute(inserts);
  ASSERT_TRUE(result.all_ok());
  // Every key lives where HashRouter over num_shards places it: a caller
  // that opens one shard by itself (perfbench's standalone-shard layer)
  // finds that shard's keys the same way.
  const HashRouter router(engine->num_shards());
  for (uint64_t id = 0; id < 1000; ++id) {
    ASSERT_OK_AND_ASSIGN(uint32_t home, router.Route(id));
    EXPECT_EQ(result.results[id].shard, home) << "id " << id;
  }
  // Sequential auto-increment ids must not pile onto one shard.
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    EXPECT_GT(engine->shard(s)->rows(), 100u) << "shard " << s;
  }
  Cleanup(opts);
}

TEST(ShardedEngineTest, ReplayDrivesWikipediaTraceThroughEngine) {
  // End-to-end: synthesize a small Wikipedia revision workload, load it,
  // replay its Zipfian lookup trace, and require perfect hit accounting.
  WikipediaScale scale;
  scale.num_pages = 200;
  scale.revisions_per_page = 5;
  WikipediaSynthesizer wiki(scale);

  ShardedEngineOptions opts;
  opts.num_shards = 4;
  opts.path_prefix =
      ::testing::TempDir() + "nblb_engine_wiki_" + std::to_string(::getpid());
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 1024;
  opts.schema = WikipediaSynthesizer::RevisionSchema();
  opts.table_options.key_columns = {0};
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  ASSERT_OK(LoadRows(engine.get(), wiki.revisions(), /*key_column=*/0));
  const auto batches =
      BuildLookupBatches(wiki.RevisionLookupTrace(5000), /*batch_size=*/64);
  ReplayReport report = ReplayBatches(engine.get(), batches);
  EXPECT_EQ(report.ops, 5000u);
  EXPECT_EQ(report.found, 5000u) << "every traced rev_id exists";
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.batch_seconds.size(), batches.size());
  Cleanup(opts);
}

TEST(ShardedEngineTest, OpenRejectsACoalesceWindowOfZero) {
  // The window starts at 1, so a maximum of 0 would leave no valid window.
  auto no_window = SmallOptions("nowindow", 1);
  no_window.max_coalesce_window = 0;
  EXPECT_TRUE(ShardedEngine::Open(no_window).status().IsInvalidArgument());

  auto one = SmallOptions("window1", 1);
  one.max_coalesce_window = 1;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(one));
  ASSERT_OK(engine->Insert(3, MakeRow(3)));
  ASSERT_OK_AND_ASSIGN(Row row, engine->Get(3));
  EXPECT_EQ(row, MakeRow(3));
  engine.reset();
  Cleanup(one);
}

// A shard's flush passes run on its worker, after the groups it serves:
// the pass count grows as groups are served, stays flat while the engine is
// idle (no timer wakes a worker), and stays 0 with the interval at 0.
TEST(ShardedEngineTest, WorkerRunsFlushPassesAfterServedGroupsOnly) {
  for (const uint64_t interval_us : {uint64_t{1}, uint64_t{0}}) {
    SCOPED_TRACE("flusher_interval_us=" + std::to_string(interval_us));
    auto opts = SmallOptions("flushpass" + std::to_string(interval_us), 1);
    opts.flusher_interval_us = interval_us;
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
    const auto passes = [&engine] {
      return engine->MetricsSnapshotNow().Total(
          "shard0.buffer_pool.flusher_passes");
    };
    // Each blocking Insert is one service group, and more than 1 µs passes
    // between two groups, so each group is followed by a pass.
    for (uint64_t id = 0; id < 50; ++id) {
      ASSERT_OK(engine->Insert(id, MakeRow(id)));
    }
    const uint64_t served = passes();
    // The last group's pass runs after its ticket completes: let the count
    // settle, then watch the idle engine.
    uint64_t idle = served;
    for (int i = 0; i < 200; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const uint64_t now = passes();
      if (now == idle) break;
      idle = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(passes(), idle) << "an idle worker ran a flush pass";
    for (uint64_t id = 0; id < 50; ++id) {
      ASSERT_OK(engine->Get(id).status());
    }
    if (interval_us == 0) {
      EXPECT_EQ(passes(), 0u);
    } else {
      EXPECT_GE(served, 25u);
      EXPECT_GE(passes(), idle + 25);
    }
    engine.reset();
    Cleanup(opts);
  }
}

TEST(ShardedEngineTest, TruncateGuardRefusesToClobberExistingShardFiles) {
  // First open (truncate, the default) creates the shard files and data.
  auto opts = SmallOptions("truncguard", 2);
  {
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
    ASSERT_OK(engine->Insert(7, MakeRow(7)));
  }

  // truncate_on_open=false on a prefix with existing files must refuse —
  // durable reopen is unimplemented, so "reopening" would destroy the data.
  auto guarded = opts;
  guarded.truncate_on_open = false;
  auto refused = ShardedEngine::Open(guarded);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsAlreadyExists())
      << refused.status().ToString();

  // A failed guarded open must not leave debris of its own: remove shard
  // 0's file, leaving shard 1's — the retry trips on shard 1, and the
  // fresh shard-0 file the attempt created must be cleaned up again (else
  // the guard would block its own retry forever).
  const std::string shard0 = opts.path_prefix + ".shard0.db";
  std::remove(shard0.c_str());
  EXPECT_FALSE(ShardedEngine::Open(guarded).ok());
  FILE* leftover = std::fopen(shard0.c_str(), "rb");
  EXPECT_EQ(leftover, nullptr) << "failed guarded open left " << shard0;
  if (leftover) std::fclose(leftover);

  // The guard really protected the files: a fresh default open still works
  // (and rebuilds), and a guarded open on a clean prefix succeeds too.
  Cleanup(opts);
  {
    ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(guarded));
    ASSERT_OK(engine->Insert(9, MakeRow(9)));
    ASSERT_OK_AND_ASSIGN(Row row, engine->Get(9));
    EXPECT_EQ(row, MakeRow(9));
  }
  Cleanup(opts);
}

TEST(ShardedEngineSmokeTest, EightClientThreadsNoLostInsertsOrLookups) {
  auto opts = SmallOptions("smoke", 4, /*workers=*/2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  constexpr int kClients = 8;
  constexpr uint64_t kIdsPerClient = 1500;
  std::atomic<uint64_t> insert_failures{0};
  std::atomic<uint64_t> lookup_wrong{0};

  // Each client owns a disjoint id range: inserts it in small batches, with
  // interleaved reads of ids already inserted (its own and other clients').
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const uint64_t base = static_cast<uint64_t>(c) * kIdsPerClient;
      Rng rng(c + 99);
      for (uint64_t i = 0; i < kIdsPerClient; i += 50) {
        RequestBatch batch;
        for (uint64_t k = i; k < i + 50 && k < kIdsPerClient; ++k) {
          batch.push_back(Request::Insert(base + k, MakeRow(base + k)));
        }
        // Mix in reads of ids this client has already written.
        for (int r = 0; r < 10 && i > 0; ++r) {
          batch.push_back(Request::Get(base + rng.Uniform(i)));
        }
        BatchResult result = engine->Execute(batch);
        for (size_t j = 0; j < result.results.size(); ++j) {
          const auto& rr = result.results[j];
          if (batch[j].kind == RequestKind::kInsert) {
            if (!rr.status.ok()) ++insert_failures;
          } else {
            if (!rr.status.ok() || rr.row != MakeRow(batch[j].id)) {
              ++lookup_wrong;
            }
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(insert_failures.load(), 0u);
  EXPECT_EQ(lookup_wrong.load(), 0u);

  // No lost inserts: every id readable, shard row counts add up exactly.
  constexpr uint64_t kTotal = kClients * kIdsPerClient;
  RequestBatch verify;
  for (uint64_t id = 0; id < kTotal; ++id) {
    verify.push_back(Request::Get(id));
  }
  BatchResult all = engine->Execute(verify);
  uint64_t found = 0;
  for (uint64_t id = 0; id < kTotal; ++id) {
    if (all.results[id].status.ok() && all.results[id].row == MakeRow(id)) {
      ++found;
    }
  }
  EXPECT_EQ(found, kTotal);

  uint64_t shard_rows = 0;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    shard_rows += engine->shard(s)->rows();
  }
  EXPECT_EQ(shard_rows, kTotal);
  const MetricsSnapshot totals = engine->MetricsSnapshotNow();
  EXPECT_EQ(totals.Total("shard.inserts"), kTotal);
  EXPECT_EQ(totals.Total("shard.errors"), 0u);
  Cleanup(opts);
}

}  // namespace
}  // namespace nblb
