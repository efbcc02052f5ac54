// Mixed-workload tests for the sharded engine: the new kUpdate/kDelete
// request kinds, the batched kGet read path (Shard::GetBatch through
// RunSubBatch), order preservation between writes and reads in one batch,
// and a multi-threaded mixed Zipfian replay against an oracle map.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "shard/sharded_engine.h"
#include "test_util.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace nblb {
namespace {

Schema SmallSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"payload", TypeId::kVarchar, 32},
                 {"version", TypeId::kInt64, 0}});
}

Row MakeRow(uint64_t id, int64_t version = 0) {
  return {Value::Int64(static_cast<int64_t>(id)),
          Value::Varchar("payload-" + std::to_string(id)),
          Value::Int64(version)};
}

ShardedEngineOptions SmallOptions(const std::string& tag, uint32_t shards,
                                  uint32_t workers = 0) {
  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.num_workers = workers;
  opts.path_prefix = ::testing::TempDir() + "nblb_mixed_" + tag + "_" +
                     std::to_string(::getpid());
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 512;
  opts.schema = SmallSchema();
  opts.table_options.key_columns = {0};
  return opts;
}

void Cleanup(const ShardedEngineOptions& opts) {
  for (uint32_t i = 0; i < opts.num_shards; ++i) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(i) + ".db").c_str());
  }
}

TEST(ShardMixedTest, UpdateAndDeleteRoundTrip) {
  auto opts = SmallOptions("upd", 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  for (uint64_t id = 0; id < 100; ++id) {
    ASSERT_OK(engine->Insert(id, MakeRow(id)));
  }

  ASSERT_OK(engine->Update(7, MakeRow(7, /*version=*/42)));
  ASSERT_OK_AND_ASSIGN(Row updated, engine->Get(7));
  EXPECT_EQ(updated[2].AsInt(), 42);

  ASSERT_OK(engine->Delete(7));
  EXPECT_TRUE(engine->Get(7).status().IsNotFound());
  EXPECT_TRUE(engine->Update(7, MakeRow(7, 1)).IsNotFound());
  EXPECT_TRUE(engine->Delete(7).IsNotFound());

  // Neighbors are untouched.
  ASSERT_OK_AND_ASSIGN(Row row6, engine->Get(6));
  EXPECT_EQ(row6[2].AsInt(), 0);

  const MetricsSnapshot st = engine->MetricsSnapshotNow();
  EXPECT_EQ(st.Total("shard.updates"), 2u);
  EXPECT_EQ(st.Total("shard.deletes"), 2u);
  Cleanup(opts);
}

TEST(ShardMixedTest, BatchedGetsMatchSingleGets) {
  auto opts = SmallOptions("batchget", 4, 2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  for (uint64_t id = 0; id < 500; ++id) {
    ASSERT_OK(engine->Insert(id, MakeRow(id, static_cast<int64_t>(id * 3))));
  }

  // One big lookup batch: every shard serves its fragment through the
  // batched read path.
  RequestBatch batch;
  for (uint64_t id = 0; id < 500; id += 3) batch.push_back(Request::Get(id));
  batch.push_back(Request::Get(10'000));  // miss
  BatchResult result = engine->Execute(batch);
  ASSERT_EQ(result.results.size(), batch.size());
  for (size_t i = 0; i + 1 < result.results.size(); ++i) {
    ASSERT_OK(result.results[i].status);
    EXPECT_EQ(result.results[i].row[2].AsInt(),
              static_cast<int64_t>(batch[i].id * 3));
  }
  EXPECT_TRUE(result.results.back().status.IsNotFound());
  EXPECT_GT(engine->MetricsSnapshotNow().Total("shard.batch_gets"), 0u);
  Cleanup(opts);
}

TEST(ShardMixedTest, WriteThenReadOfSameIdInOneBatchSeesTheWrite) {
  auto opts = SmallOptions("order", 2);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  for (uint64_t id = 0; id < 20; ++id) {
    ASSERT_OK(engine->Insert(id, MakeRow(id)));
  }
  // get(3), update(3 -> v9), get(3), delete(3), get(3): the batched-get
  // segmentation must not reorder a get across the intervening writes.
  RequestBatch batch;
  batch.push_back(Request::Get(3));
  batch.push_back(Request::Update(3, MakeRow(3, 9)));
  batch.push_back(Request::Get(3));
  batch.push_back(Request::Delete(3));
  batch.push_back(Request::Get(3));
  BatchResult result = engine->Execute(batch);
  ASSERT_OK(result.results[0].status);
  EXPECT_EQ(result.results[0].row[2].AsInt(), 0);
  ASSERT_OK(result.results[1].status);
  ASSERT_OK(result.results[2].status);
  EXPECT_EQ(result.results[2].row[2].AsInt(), 9);
  ASSERT_OK(result.results[3].status);
  EXPECT_TRUE(result.results[4].status.IsNotFound());
  Cleanup(opts);
}

TEST(ShardMixedTest, MixedZipfianReplayMatchesOracle) {
  auto opts = SmallOptions("zipf", 4, 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  constexpr uint64_t kItems = 2000;
  std::vector<Row> rows;
  for (uint64_t id = 0; id < kItems; ++id) rows.push_back(MakeRow(id));
  ASSERT_OK(LoadRows(engine.get(), rows, /*key_column=*/0));

  TraceOptions topts;
  topts.num_items = kItems;
  topts.num_ops = 20000;
  topts.distribution = TraceDistribution::kScrambledZipfian;
  topts.zipf_alpha = 0.5;
  topts.mix.lookup = 0.70;
  topts.mix.insert = 0.0;  // inserts of existing ids would AlreadyExists
  topts.mix.update = 0.20;
  topts.mix.del = 0.10;
  topts.seed = 7;
  const std::vector<Op> ops = BuildTrace(topts);
  const auto batches =
      BuildOpBatches(ops, [](uint64_t id) { return MakeRow(id, 1); }, 64);

  ReplayReport report = ReplayBatches(engine.get(), batches);
  EXPECT_EQ(report.ops, ops.size());
  EXPECT_EQ(report.errors, 0u) << "only OK/NotFound are acceptable";

  // Sequential oracle over the same trace: which ids survive, and with
  // which version.
  std::unordered_set<uint64_t> deleted;
  std::unordered_map<uint64_t, int64_t> version;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kUpdate:
        if (deleted.count(op.item) == 0) version[op.item] = 1;
        break;
      case OpKind::kDelete:
        deleted.insert(op.item);
        break;
      default:
        break;
    }
  }
  for (uint64_t id = 0; id < kItems; id += 17) {
    auto row = engine->Get(id);
    if (deleted.count(id) != 0) {
      EXPECT_TRUE(row.status().IsNotFound()) << "id " << id;
      continue;
    }
    ASSERT_OK(row.status());
    const int64_t want = version.count(id) != 0 ? version[id] : 0;
    EXPECT_EQ((*row)[2].AsInt(), want) << "id " << id;
  }
  Cleanup(opts);
}

TEST(ShardMixedTest, ConcurrentClientsMixedBatchesStayConsistent) {
  auto opts = SmallOptions("conc", 4, 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));
  constexpr uint64_t kItems = 1000;
  for (uint64_t id = 0; id < kItems; ++id) {
    ASSERT_OK(engine->Insert(id, MakeRow(id)));
  }

  // Each client owns a disjoint id range so the final state is
  // deterministic per id; lookups roam everywhere.
  constexpr int kClients = 8;
  constexpr uint64_t kSlice = kItems / kClients;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const uint64_t lo = c * kSlice;
      for (int round = 0; round < 20; ++round) {
        RequestBatch batch;
        for (uint64_t i = 0; i < kSlice; i += 7) {
          batch.push_back(Request::Update(lo + i, MakeRow(lo + i, round + 1)));
          batch.push_back(Request::Get((lo + i * 13) % kItems));
        }
        BatchResult result = engine->Execute(batch);
        for (const auto& r : result.results) {
          // Updates to own ids always succeed; roaming gets may race with
          // nothing here (no deletes), so OK is the only acceptable status.
          EXPECT_TRUE(r.status.ok()) << r.status.ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    const uint64_t lo = c * kSlice;
    for (uint64_t i = 0; i < kSlice; i += 7) {
      ASSERT_OK_AND_ASSIGN(Row row, engine->Get(lo + i));
      EXPECT_EQ(row[2].AsInt(), 20) << "id " << lo + i;
    }
  }
  Cleanup(opts);
}

}  // namespace
}  // namespace nblb
