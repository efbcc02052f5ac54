// recovery: durability cost and crash-recovery speed for the WAL stack.
//
// Two phases:
//
//   1. SERVE OVERHEAD: the same mixed update/get workload (open-loop async
//      submit at --inflight depth over a pre-loaded keyspace) against a
//      4s4w engine with the WAL off, then on (group commit per service
//      group + periodic checkpoints). The headline is
//      wal_overhead_ratio = wal-on ops/sec ÷ wal-off ops/sec — what
//      logical logging, the group-commit fsync, and checkpoint cadence
//      cost the serving path. Open-loop depth matters: group commit
//      amortizes the fsync across every sub-batch the coalescer merges
//      into a service group, which only happens with real concurrency
//      (a closed-loop single-waiter client would pay one fsync per tiny
//      batch and measure the no-pipelining worst case instead).
//   2. REPLAY: for each of several WAL tail lengths, a forked child opens
//      a 1-shard durable engine, commits that many put records, and
//      _exit()s without a clean close — a real crash image on disk. The
//      parent times the recovery open (superblock read, heap walk + index
//      rebuild, WAL tail replay) and the first successful Get:
//      replay_mb_per_sec and time_to_first_get_ms vs tail length.
//
// Output: human-readable summary on stdout, JSON to BENCH_recovery.json
// (or $NBLB_BENCH_JSON_PATH).
//
// JSON schema (one object; times in seconds unless suffixed):
// {
//   "bench": "recovery",
//   "git_sha": "<commit>",
//   "shards": <uint>, "workers": <uint>, "inflight": <uint>,
//   "serve_ops": <uint>, "batch_size": <uint>, "keyspace": <uint>,
//   "update_pct": <uint>, "checkpoint_every_groups": <uint>,
//   "serve": {
//     "wal_off": { "seconds", "ops_per_sec", "errors" },
//     "wal_on":  { "seconds", "ops_per_sec", "errors" },
//     "wal_overhead_ratio": <double>            // the headline
//   },
//   "replay": [                                  // one entry per tail length
//     { "tail_records", "wal_bytes", "open_seconds",
//       "replay_mb_per_sec", "time_to_first_get_ms", "replayed_records" },
//     ...
//   ],
//   "metrics": { ... }   // wal-on serve engine document: engine.* plus
//                        // shard<i>.wal.* / disk.* / buffer_pool.*
// }
//
// Flags: --serve_ops=N --batch=N --inflight=N --keyspace=N --update_pct=N
// --serve_repeat=N (best-of)
// --checkpoint_groups=N --tails=a,b,c (record counts). Any other
// argument, or a value that does not parse, exits 2.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_engine.h"
#include "storage/superblock.h"
#include "storage/wal.h"
#include "workload/replay.h"
#include "test_support.h"

namespace nblb::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* GitSha() {
#ifdef NBLB_GIT_SHA
  return NBLB_GIT_SHA;
#else
  return "unknown";
#endif
}

Schema BenchSchema() {
  return Schema({{"id", TypeId::kInt64, 0},
                 {"payload", TypeId::kVarchar, 48},
                 {"version", TypeId::kInt64, 0}});
}

Row BenchRow(uint64_t id, uint64_t version) {
  return {Value::Int64(static_cast<int64_t>(id)),
          Value::Varchar("v" + std::to_string(version) + "-payload-" +
                         std::to_string(id)),
          Value::Int64(static_cast<int64_t>(version))};
}

void RemoveEngineFiles(const std::string& prefix, uint32_t num_shards) {
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::string path = prefix + ".shard" + std::to_string(s) + ".db";
    std::remove(path.c_str());
    std::remove(Superblock::PathFor(path).c_str());
    std::remove(Wal::PathFor(path).c_str());
  }
}

/// Deterministic mixed workload over a pre-loaded keyspace: update_pct%
/// updates / rest gets, uniform keys. Every key exists, so every op should
/// return OK. The default mix (20% updates) models a read-mostly serving
/// tier (YCSB-B territory); crank --update_pct=100 to measure the pure
/// logging worst case.
std::vector<RequestBatch> BuildMixedBatches(uint64_t total_ops,
                                            uint64_t batch,
                                            uint64_t keyspace,
                                            uint64_t update_pct) {
  std::vector<RequestBatch> batches;
  batches.reserve(total_ops / batch + 1);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (uint64_t issued = 0; issued < total_ops; issued += batch) {
    RequestBatch b;
    for (uint64_t i = 0; i < batch; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t key = (state >> 33) % keyspace;
      if (((state >> 13) % 100) < update_pct) {
        b.push_back(Request::Update(key, BenchRow(key, issued + i)));
      } else {
        b.push_back(Request::Get(key));
      }
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

Status LoadKeyspace(ShardedEngine* engine, uint64_t keyspace) {
  std::vector<Row> rows;
  rows.reserve(keyspace);
  for (uint64_t k = 0; k < keyspace; ++k) rows.push_back(BenchRow(k, 0));
  return LoadRows(engine, rows, /*key_column=*/0, 512);
}

ShardedEngineOptions ServeOptions(const std::string& prefix, bool wal,
                                  uint64_t checkpoint_groups) {
  ShardedEngineOptions opts;
  opts.num_shards = 4;
  opts.num_workers = 4;
  opts.path_prefix = prefix;
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 4096;
  // Deep coalescing: the group-commit fsync is a per-group latency stall
  // for the owning worker, so the overhead ratio is set by ops-per-group.
  // Raise the window cap so the adaptive window can absorb the whole
  // open-loop backlog — identical settings for both configs, so the
  // ratio stays apples-to-apples.
  opts.max_coalesce_window = 1024;
  opts.schema = BenchSchema();
  opts.table_options.key_columns = {0};
  opts.wal_enabled = wal;
  opts.checkpoint_every_groups = wal ? checkpoint_groups : 0;
  return opts;
}

struct ReplayPoint {
  uint64_t tail_records = 0;
  uint64_t wal_bytes = 0;
  double open_seconds = 0;
  double replay_mb_per_sec = 0;
  double time_to_first_get_ms = 0;
  uint64_t replayed_records = 0;
};

ShardedEngineOptions ReplayOptions(const std::string& prefix, bool truncate) {
  ShardedEngineOptions opts;
  opts.num_shards = 1;
  opts.num_workers = 1;
  opts.path_prefix = prefix;
  opts.truncate_on_open = truncate;
  opts.page_size = 4096;
  opts.buffer_pool_frames_per_shard = 2048;
  opts.wal_enabled = true;
  opts.checkpoint_every_groups = 0;  // the whole run stays in the tail
  opts.schema = BenchSchema();
  opts.table_options.key_columns = {0};
  return opts;
}

/// Child body: build a committed WAL tail of `records` puts, then die
/// without a clean close (no destructors — the on-disk image is a crash).
void BuildTailAndCrash(const std::string& prefix, uint64_t records) {
  auto engine_or = ShardedEngine::Open(ReplayOptions(prefix, true));
  if (!engine_or.ok()) _exit(2);
  auto engine = std::move(engine_or).ValueOrDie();
  constexpr uint64_t kBatch = 64;
  for (uint64_t i = 0; i < records; i += kBatch) {
    RequestBatch b;
    for (uint64_t k = i; k < i + kBatch && k < records; ++k) {
      b.push_back(Request::Insert(k, BenchRow(k, k)));
    }
    BatchResult result = engine->Execute(b);
    for (const auto& r : result.results) {
      if (!r.status.ok()) _exit(3);
    }
  }
  // Leak the engine on purpose: _exit skips every destructor, so nothing
  // checkpoints and the WAL tail is the only durable record of the rows.
  _exit(0);
}

bool RunReplayPoint(const std::string& prefix, uint64_t records,
                    ReplayPoint* out) {
  RemoveEngineFiles(prefix, 1);
  const pid_t child = ::fork();
  if (child < 0) return false;
  if (child == 0) BuildTailAndCrash(prefix, records);
  int wstatus = 0;
  if (::waitpid(child, &wstatus, 0) != child) return false;
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "tail-builder child failed (status %d)\n", wstatus);
    return false;
  }
  const std::string shard_path = prefix + ".shard0.db";
  struct stat st;
  if (::stat(Wal::PathFor(shard_path).c_str(), &st) != 0) return false;
  out->tail_records = records;
  out->wal_bytes = static_cast<uint64_t>(st.st_size);

  const double t0 = Now();
  auto engine_or = ShardedEngine::Open(ReplayOptions(prefix, false));
  if (!engine_or.ok()) {
    std::fprintf(stderr, "recovery open: %s\n",
                 engine_or.status().ToString().c_str());
    return false;
  }
  auto engine = std::move(engine_or).ValueOrDie();
  out->open_seconds = Now() - t0;
  auto first = engine->Get(0);
  if (!first.ok()) {
    std::fprintf(stderr, "first get after recovery: %s\n",
                 first.status().ToString().c_str());
    return false;
  }
  out->time_to_first_get_ms = (Now() - t0) * 1e3;
  out->replay_mb_per_sec =
      out->open_seconds > 0
          ? (out->wal_bytes / (1024.0 * 1024.0)) / out->open_seconds
          : 0;
  out->replayed_records = engine->shard(0)->replayed_records();
  if (!engine->shard(0)->recovered() || out->replayed_records != records) {
    std::fprintf(stderr,
                 "replay mismatch: recovered=%d replayed=%llu want=%llu\n",
                 engine->shard(0)->recovered() ? 1 : 0,
                 static_cast<unsigned long long>(out->replayed_records),
                 static_cast<unsigned long long>(records));
    return false;
  }
  engine.reset();
  RemoveEngineFiles(prefix, 1);
  return true;
}

}  // namespace
}  // namespace nblb::bench

int main(int argc, char** argv) {
  using namespace nblb;
  using namespace nblb::bench;

  Flags flags(argc, argv);
  const uint64_t serve_ops = flags.U64("serve_ops", 400000);
  const uint64_t batch = flags.U64("batch", 128);
  const uint64_t inflight = flags.U64("inflight", 512);
  const uint64_t keyspace = flags.U64("keyspace", 50000);
  const uint64_t update_pct =
      std::min<uint64_t>(flags.U64("update_pct", 20), 100);
  const uint64_t checkpoint_groups =
      flags.U64("checkpoint_groups", 256);
  const uint64_t serve_repeat =
      std::max<uint64_t>(flags.U64("serve_repeat", 3), 1);
  const std::vector<uint64_t> tails =
      flags.U64List("tails", {4000, 16000, 64000});
  flags.Done();

  std::printf("serve phase: %llu ops (%llu%% updates), batch %llu, inflight "
              "%llu, keyspace %llu, 4s4w\n",
              static_cast<unsigned long long>(serve_ops),
              static_cast<unsigned long long>(update_pct),
              static_cast<unsigned long long>(batch),
              static_cast<unsigned long long>(inflight),
              static_cast<unsigned long long>(keyspace));
  const std::vector<RequestBatch> mixed =
      BuildMixedBatches(serve_ops, batch, keyspace, update_pct);

  // ---- Phase 1: serve overhead, WAL off then on. ---------------------------
  const std::string serve_prefix = "/tmp/nblb_bench_recovery_serve";
  ReplayReport off, on;
  std::string metrics_json = "{}";
  for (const bool wal : {false, true}) {
    // Best-of-N: each repeat is a fresh engine + keyspace load + the same
    // open-loop replay. The serve phase runs well under a second, so a
    // single scheduler hiccup on a shared box skews one run by 20%+; the
    // best repeat of each config is the honest steady-state number and
    // keeps the on/off ratio comparing like against like.
    ReplayReport best;
    for (uint64_t r = 0; r < serve_repeat; ++r) {
      RemoveEngineFiles(serve_prefix, 4);
      auto engine_or = ShardedEngine::Open(
          ServeOptions(serve_prefix, wal, wal ? checkpoint_groups : 0));
      if (!engine_or.ok()) {
        std::fprintf(stderr, "%s engine open: %s\n",
                     wal ? "wal-on" : "wal-off",
                     engine_or.status().ToString().c_str());
        return 1;
      }
      auto engine = std::move(engine_or).ValueOrDie();
      if (Status s = LoadKeyspace(engine.get(), keyspace); !s.ok()) {
        std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
        return 1;
      }
      const ReplayReport report =
          ReplayBatchesOpenLoop(engine.get(), mixed, inflight);
      std::printf("  %s[%llu]: %.0f ops/s (%.2fs), errors %llu\n",
                  wal ? "wal-on " : "wal-off",
                  static_cast<unsigned long long>(r), report.OpsPerSec(),
                  report.seconds,
                  static_cast<unsigned long long>(report.errors));
      if (r == 0 || report.OpsPerSec() > best.OpsPerSec()) {
        best = report;
        if (wal) {
          // Capture the unified document while the durable engine is
          // live: the wal.* layer rides each shard's registry
          // (shard<i>.wal.*).
          metrics_json = engine->DumpMetrics();
        }
      }
    }
    if (wal) {
      on = best;
    } else {
      off = best;
    }
  }
  RemoveEngineFiles(serve_prefix, 4);
  const double ratio =
      off.OpsPerSec() > 0 ? on.OpsPerSec() / off.OpsPerSec() : 0;
  std::printf("  wal overhead: x%.3f of wal-off throughput\n", ratio);

  // ---- Phase 2: replay speed vs tail length. -------------------------------
  const std::string replay_prefix = "/tmp/nblb_bench_recovery_replay";
  std::vector<ReplayPoint> points;
  for (uint64_t records : tails) {
    ReplayPoint p;
    if (!RunReplayPoint(replay_prefix, records, &p)) {
      std::fprintf(stderr, "replay point %llu failed\n",
                   static_cast<unsigned long long>(records));
      return 1;
    }
    std::printf("  tail %7llu records (%6.2f MB): open %.3fs, "
                "%.1f MB/s, first get %.1f ms\n",
                static_cast<unsigned long long>(p.tail_records),
                p.wal_bytes / (1024.0 * 1024.0), p.open_seconds,
                p.replay_mb_per_sec, p.time_to_first_get_ms);
    points.push_back(p);
  }

  // ---- JSON ----------------------------------------------------------------
  const char* json_path = std::getenv("NBLB_BENCH_JSON_PATH");
  FILE* f = std::fopen(json_path ? json_path : "BENCH_recovery.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot open JSON output file\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"recovery\",\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"shards\": 4,\n  \"workers\": 4,\n  \"inflight\": %llu,\n"
      "  \"serve_ops\": %llu,\n  \"batch_size\": %llu,\n"
      "  \"keyspace\": %llu,\n  \"update_pct\": %llu,\n"
      "  \"checkpoint_every_groups\": %llu,\n"
      "  \"serve\": {\n"
      "    \"wal_off\": { \"seconds\": %.4f, \"ops_per_sec\": %.1f, "
      "\"errors\": %llu },\n"
      "    \"wal_on\": { \"seconds\": %.4f, \"ops_per_sec\": %.1f, "
      "\"errors\": %llu },\n"
      "    \"wal_overhead_ratio\": %.4f\n  },\n"
      "  \"replay\": [",
      GitSha(), static_cast<unsigned long long>(inflight),
      static_cast<unsigned long long>(serve_ops),
      static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(keyspace),
      static_cast<unsigned long long>(update_pct),
      static_cast<unsigned long long>(checkpoint_groups), off.seconds,
      off.OpsPerSec(), static_cast<unsigned long long>(off.errors),
      on.seconds, on.OpsPerSec(), static_cast<unsigned long long>(on.errors),
      ratio);
  for (size_t i = 0; i < points.size(); ++i) {
    const ReplayPoint& p = points[i];
    std::fprintf(
        f,
        "%s\n    { \"tail_records\": %llu, \"wal_bytes\": %llu,\n"
        "      \"open_seconds\": %.4f, \"replay_mb_per_sec\": %.2f,\n"
        "      \"time_to_first_get_ms\": %.2f, \"replayed_records\": %llu }",
        i ? "," : "", static_cast<unsigned long long>(p.tail_records),
        static_cast<unsigned long long>(p.wal_bytes), p.open_seconds,
        p.replay_mb_per_sec, p.time_to_first_get_ms,
        static_cast<unsigned long long>(p.replayed_records));
  }
  std::fprintf(f, "\n  ],\n  \"metrics\": %s\n}\n", metrics_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path ? json_path : "BENCH_recovery.json");
  return 0;
}
