// Sampled-tracing tests over the ShardedEngine: span ordering across a
// multi-shard Submit, the unified DumpMetrics document covering every layer
// (engine / trace / per-shard disk / buffer pool / shard), and the sampler
// default.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "shard/sharded_engine.h"
#include "test_util.h"

namespace nblb {
namespace {

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

ShardedEngineOptions TraceOptions(const std::string& tag, uint32_t shards,
                                  uint64_t sample_every) {
  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.path_prefix = ::testing::TempDir() + "nblb_trace_" + tag + "_" +
                     std::to_string(::getpid());
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 512;
  opts.trace_sample_every = sample_every;
  opts.schema = SmallSchema();
  opts.table_options.key_columns = {0};
  opts.table_options.cached_columns = {2};
  return opts;
}

void Cleanup(const ShardedEngineOptions& opts) {
  for (uint32_t i = 0; i < opts.num_shards; ++i) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(i) + ".db").c_str());
  }
}

uint64_t Phase(const TraceSummary& s, TracePhase p) {
  return s.first_start_ns[static_cast<size_t>(p)];
}

TEST(ShardTraceTest, SpansOrderAcrossMultiShardSubmit) {
  auto opts = TraceOptions("order", 4, 1);  // sample every sub-batch
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  constexpr uint64_t kRows = 256;
  RequestBatch inserts;
  for (uint64_t id = 0; id < kRows; ++id) {
    inserts.push_back(Request::Insert(id, MakeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(inserts).all_ok());

  RequestBatch gets;
  for (uint64_t id = 0; id < kRows; ++id) gets.push_back(Request::Get(id));
  ASSERT_TRUE(engine->Execute(gets).all_ok());

  // Every sub-batch was sampled: both batches fanned out to all 4 shards.
  EXPECT_GE(engine->tracer().sampled(), 8u);

  const std::vector<TraceSummary> recent = engine->tracer().Recent();
  ASSERT_FALSE(recent.empty());
  size_t with_get_batch = 0;
  for (const TraceSummary& s : recent) {
    // Queue wait opens at the enqueue origin; service (dequeue) follows it.
    ASSERT_NE(Phase(s, TracePhase::kQueueWait), UINT64_MAX);
    ASSERT_NE(Phase(s, TracePhase::kService), UINT64_MAX);
    EXPECT_LE(Phase(s, TracePhase::kQueueWait),
              Phase(s, TracePhase::kService));
    // GetBatch (recorded for the group's elected context) nests inside the
    // service span, and the buffer pool's fetch-start nests inside it.
    if (Phase(s, TracePhase::kGetBatch) != UINT64_MAX) {
      ++with_get_batch;
      EXPECT_LE(Phase(s, TracePhase::kService),
                Phase(s, TracePhase::kGetBatch));
      if (Phase(s, TracePhase::kFetchStart) != UINT64_MAX) {
        EXPECT_LE(Phase(s, TracePhase::kGetBatch),
                  Phase(s, TracePhase::kFetchStart));
      }
    }
    EXPECT_GT(s.end_to_end_us + 1, 0u);  // clamped, never underflows
  }
  // The get batch hit all shards with tracing on, so elected contexts with
  // a GetBatch span must exist.
  EXPECT_GT(with_get_batch, 0u);

  // The per-phase histograms fed from the same retirements.
  MetricsSnapshot snap = engine->MetricsSnapshotNow();
  EXPECT_EQ(snap.counters.at("trace.sampled"), engine->tracer().sampled());
  EXPECT_GT(snap.histograms.at("trace.queue_wait_us").count(), 0u);
  EXPECT_GT(snap.histograms.at("trace.service_us").count(), 0u);
  EXPECT_GT(snap.histograms.at("trace.get_batch_us").count(), 0u);

  Cleanup(opts);
}

TEST(ShardTraceTest, DumpMetricsCoversEveryLayerInOneDocument) {
  auto opts = TraceOptions("dump", 2, 4);
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  RequestBatch batch;
  for (uint64_t id = 0; id < 64; ++id) {
    batch.push_back(Request::Insert(id, MakeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(batch).all_ok());
  RequestBatch gets;
  for (uint64_t id = 0; id < 64; ++id) gets.push_back(Request::Get(id));
  ASSERT_TRUE(engine->Execute(gets).all_ok());

  MetricsSnapshot snap = engine->MetricsSnapshotNow();
  // Engine layer.
  EXPECT_EQ(snap.counters.at("engine.batches"), 2u);
  EXPECT_EQ(snap.counters.at("engine.requests"), 128u);
  // Per-shard serving layer: every insert/get landed on exactly one shard.
  EXPECT_EQ(snap.counters.at("shard0.shard.inserts") +
                snap.counters.at("shard1.shard.inserts"),
            64u);
  EXPECT_EQ(snap.counters.at("shard0.shard.gets") +
                snap.counters.at("shard1.shard.gets"),
            64u);
  // Storage layers, folded per shard.
  EXPECT_TRUE(snap.counters.count("shard0.disk.reads"));
  EXPECT_TRUE(snap.counters.count("shard1.disk.writes"));
  EXPECT_TRUE(snap.counters.count("shard0.buffer_pool.hits"));
  EXPECT_TRUE(snap.gauges.count("shard1.buffer_pool.hit_rate"));
  EXPECT_TRUE(snap.histograms.count("shard0.shard.queue_depth"));

  // And the single JSON document carries all of it.
  const std::string json = engine->DumpMetrics();
  for (const char* needle :
       {"\"engine.batches\"", "\"trace.sampled\"", "\"shard0.disk.reads\"",
        "\"shard1.buffer_pool.hits\"", "\"shard0.shard.gets\"",
        "\"trace.queue_wait_us\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  // The per-shard Database document matches what the engine folded in.
  const std::string shard_json = engine->shard(0)->database()->DumpMetrics();
  EXPECT_NE(shard_json.find("\"disk.reads\""), std::string::npos);
  EXPECT_NE(shard_json.find("\"shard.gets\""), std::string::npos);

  Cleanup(opts);
}

TEST(ShardTraceTest, TracingOffByDefaultSamplesNothing) {
  auto opts = TraceOptions("off", 2, 0);  // trace_sample_every = 0
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(opts));

  RequestBatch batch;
  for (uint64_t id = 0; id < 32; ++id) {
    batch.push_back(Request::Insert(id, MakeRow(id)));
  }
  ASSERT_TRUE(engine->Execute(batch).all_ok());
  EXPECT_EQ(engine->tracer().sampled(), 0u);
  MetricsSnapshot snap = engine->MetricsSnapshotNow();
  EXPECT_EQ(snap.counters.at("trace.sampled"), 0u);
  EXPECT_EQ(snap.histograms.at("trace.service_us").count(), 0u);
  // The registry itself is always on.
  EXPECT_EQ(snap.counters.at("engine.batches"), 1u);

  Cleanup(opts);
}

}  // namespace
}  // namespace nblb
