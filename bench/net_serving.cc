// net_serving: loopback TCP serving benchmark for the src/net/ front end —
// the headline number for the networked serving stack.
//
// Three phases over a Zipfian Wikipedia revision lookup workload:
//
//   1. IN-PROCESS baseline: the same engine driven by the open-loop async
//      Submit driver (workload/replay.h) at --inflight depth. This is the
//      ceiling — no sockets, no framing, no syscalls per batch.
//   2. NET phase: a NetServer on the same warm engine, --conns loopback
//      connections each keeping --pipeline request frames in flight
//      (open-loop per connection). The headline ratio is
//      net ops/sec ÷ in-process ops/sec: what the event loop, the wire
//      codec, and two loopback traversals per batch actually cost.
//   3. OVERLOAD phase: a separate tiny engine (bounded fail-fast queues)
//      behind a server with matching admission caps, deliberately
//      over-driven. Overload must shed with explicit busy replies — zero
//      transport errors, zero hangs — exercising the same end-to-end
//      backpressure story CI asserts in the tests, at bench scale.
//
// The serving engine runs without O_DIRECT and with pools sized for the
// hit regime: this bench measures the network front end, not the device
// (bench/shard_throughput.cc owns the storage story).
//
// Output: human-readable summary on stdout, JSON to BENCH_net_serving.json
// (or $NBLB_BENCH_JSON_PATH).
//
// JSON schema (one object; times in seconds unless suffixed):
// {
//   "bench": "net_serving",
//   "git_sha": "<commit the binary was configured from>",
//   "rows": <uint>, "lookups": <uint>, "batch_size": <uint>,
//   "shards": <uint>, "workers": <uint>,
//   "connections": <uint>, "pipeline_depth": <uint>, "inflight": <uint>,
//   "engine_io_backend_effective": "uring"|"threads",
//   "inprocess": { "seconds", "ops_per_sec",
//                  "p50_batch_ms", "p99_batch_ms", "errors" },
//   "net": { "seconds", "ops_per_sec", "p50_batch_ms", "p99_batch_ms",
//            "found", "not_found", "busy", "errors",
//            "ratio_vs_inprocess" },                // the headline
//   "overload": { "requests", "served", "busy", "errors",
//                 "busy_shed_frames",               // server-side sheds
//                 "shed_fraction" },
//   "metrics": { ... }    // NetServer::DumpMetrics(): net.* + the engine
//                         // document, schema-gated by CI
// }
//
// Flags: --rows=N --lookups=N --batch=N --conns=N --pipeline=N
// --inflight=N --shards=N --workers=N --overload=0|1 (defaults below).
// Any other argument, or a value that does not parse, exits 2.
// NBLB_IO_BACKEND=uring|threads picks the engine's disk backend.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "shard/sharded_engine.h"
#include "workload/replay.h"
#include "workload/wikipedia.h"
#include "test_support.h"

namespace nblb::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t i = std::min(xs.size() - 1,
                            static_cast<size_t>(p * (xs.size() - 1) + 0.5));
  return xs[i];
}

const char* GitSha() {
#ifdef NBLB_GIT_SHA
  return NBLB_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Per-phase tallies shared by the net and overload drivers.
struct NetPhaseResult {
  double seconds = 0;
  double ops_per_sec = 0;
  double p50_batch_ms = 0;
  double p99_batch_ms = 0;
  uint64_t found = 0;
  uint64_t not_found = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  uint64_t requests = 0;
};

/// Drives `slices[c]` through one connection per slice, each keeping up to
/// `pipeline` request frames outstanding. Batch latency = Send → Wait.
NetPhaseResult RunNetPhase(const net::NetServer& server,
                           const std::vector<std::vector<RequestBatch>>& slices,
                           size_t pipeline) {
  const size_t conns = slices.size();
  std::vector<NetPhaseResult> partial(conns);
  std::vector<std::vector<double>> latencies(conns);
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      net::NetClient::Options copts;
      copts.port = server.port();
      auto client_result = net::NetClient::Connect(copts);
      if (!client_result.ok()) {
        std::fprintf(stderr, "connect: %s\n",
                     client_result.status().ToString().c_str());
        partial[c].errors += 1;
        return;
      }
      auto client = std::move(*client_result);
      NetPhaseResult& r = partial[c];
      std::vector<double>& lat = latencies[c];
      std::deque<std::pair<uint64_t, double>> window;
      auto reap_front = [&] {
        const auto [id, t0] = window.front();
        window.pop_front();
        auto result = client->Wait(id);
        if (!result.ok()) {
          r.errors += 1;
          return false;
        }
        lat.push_back(Now() - t0);
        for (const RequestResult& rr : result->results) {
          r.requests += 1;
          if (rr.status.ok()) {
            ++r.found;
          } else if (rr.status.IsNotFound()) {
            ++r.not_found;
          } else if (rr.status.IsBusy()) {
            ++r.busy;
          } else {
            ++r.errors;
          }
        }
        return true;
      };
      for (const RequestBatch& batch : slices[c]) {
        while (window.size() >= pipeline) {
          if (!reap_front()) return;
        }
        auto id = client->Send(batch);
        if (!id.ok()) {
          r.errors += 1;
          return;
        }
        window.emplace_back(*id, Now());
      }
      while (!window.empty()) {
        if (!reap_front()) return;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = Now() - start;

  NetPhaseResult total;
  std::vector<double> all_lat;
  for (size_t c = 0; c < conns; ++c) {
    total.found += partial[c].found;
    total.not_found += partial[c].not_found;
    total.busy += partial[c].busy;
    total.errors += partial[c].errors;
    total.requests += partial[c].requests;
    all_lat.insert(all_lat.end(), latencies[c].begin(), latencies[c].end());
  }
  total.seconds = seconds;
  total.ops_per_sec = seconds > 0 ? total.requests / seconds : 0;
  total.p50_batch_ms = Percentile(all_lat, 0.50) * 1e3;
  total.p99_batch_ms = Percentile(all_lat, 0.99) * 1e3;
  return total;
}

}  // namespace
}  // namespace nblb::bench

int main(int argc, char** argv) {
  using namespace nblb;
  using namespace nblb::bench;

  Flags flags(argc, argv);
  const uint64_t target_rows = flags.U64("rows", 200000);
  const uint64_t num_lookups = flags.U64("lookups", 400000);
  const uint64_t batch_size = flags.U64("batch", 32);
  const uint64_t conns = flags.U64("conns", 8);
  const uint64_t pipeline = flags.U64("pipeline", 16);
  const uint64_t inflight = flags.U64("inflight", 64);
  const uint32_t shards =
      static_cast<uint32_t>(flags.U64("shards", 4));
  const uint32_t workers =
      static_cast<uint32_t>(flags.U64("workers", 4));
  const bool run_overload = flags.U64("overload", 1) != 0;
  flags.Done();

  WikipediaScale scale;
  scale.revisions_per_page = 20;
  scale.num_pages = std::max<uint64_t>(1, target_rows / 20);
  WikipediaSynthesizer wiki(scale);
  std::printf("generating ~%llu revision rows...\n",
              static_cast<unsigned long long>(target_rows));
  const std::vector<Row>& rows = wiki.revisions();
  const auto batches = BuildLookupBatches(
      wiki.RevisionLookupTrace(num_lookups), batch_size);
  std::printf("rows=%zu lookups=%llu batch=%llu conns=%llu pipeline=%llu\n",
              rows.size(), static_cast<unsigned long long>(num_lookups),
              static_cast<unsigned long long>(batch_size),
              static_cast<unsigned long long>(conns),
              static_cast<unsigned long long>(pipeline));

  // Serving engine: hit-regime pools, no O_DIRECT — the bench measures the
  // network front end against an engine that is not device-bound.
  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.num_workers = workers;
  opts.path_prefix = "/tmp/nblb_bench_netserving";
  opts.buffer_pool_frames_per_shard = 8192;
  opts.max_coalesce_window = 32;
  opts.schema = WikipediaSynthesizer::RevisionSchema();
  opts.table_options.key_columns = {0};
  auto engine_result = ShardedEngine::Open(opts);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "engine open: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(*engine_result);
  if (Status s = LoadRows(engine.get(), rows, /*key_column=*/0, 512);
      !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    return 1;
  }
  bool engine_uring = true;
  for (uint32_t s = 0; s < shards; ++s) {
    engine_uring &= engine->shard(s)->database()->disk()->io_backend_in_use() ==
                    IoBackend::kUring;
  }

  // ---- Phase 1: in-process open-loop ceiling. ------------------------------
  std::printf("phase 1: in-process open-loop (inflight=%llu)...\n",
              static_cast<unsigned long long>(inflight));
  const ReplayReport inproc =
      ReplayBatchesOpenLoop(engine.get(), batches, inflight);
  const double inproc_p50 = Percentile(inproc.batch_seconds, 0.50) * 1e3;
  const double inproc_p99 = Percentile(inproc.batch_seconds, 0.99) * 1e3;
  std::printf("  %.0f ops/s, p50 %.3f ms, p99 %.3f ms, errors %llu\n",
              inproc.OpsPerSec(), inproc_p50, inproc_p99,
              static_cast<unsigned long long>(inproc.errors));

  // ---- Phase 2: the same engine behind the TCP front end. ------------------
  net::NetServerOptions sopts;
  sopts.max_inflight_per_conn = std::max<size_t>(pipeline * 2, 64);
  auto server_result = net::NetServer::Start(sopts, engine.get());
  if (!server_result.ok()) {
    std::fprintf(stderr, "server start: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  auto server = std::move(*server_result);
  std::printf("phase 2: loopback serving on port %u (%llu conns)...\n",
              server->port(), static_cast<unsigned long long>(conns));

  std::vector<std::vector<RequestBatch>> slices(conns);
  for (size_t i = 0; i < batches.size(); ++i) {
    slices[i % conns].push_back(batches[i]);
  }
  const NetPhaseResult net = RunNetPhase(*server, slices, pipeline);
  const double ratio =
      inproc.OpsPerSec() > 0 ? net.ops_per_sec / inproc.OpsPerSec() : 0;
  std::printf(
      "  %.0f ops/s (x%.2f of in-process), p50 %.3f ms, p99 %.3f ms, "
      "errors %llu\n",
      net.ops_per_sec, ratio, net.p50_batch_ms, net.p99_batch_ms,
      static_cast<unsigned long long>(net.errors));

  // Capture the unified document while server + engine are live: net.*
  // plus the engine/shard layers, merged (the CI gate schema-checks it).
  const std::string metrics_json = server->DumpMetrics();
  server.reset();

  // ---- Phase 3: overload must shed, not collapse. --------------------------
  NetPhaseResult overload;
  uint64_t busy_shed_frames = 0;
  if (run_overload) {
    ShardedEngineOptions oopts;
    oopts.num_shards = 2;
    oopts.num_workers = 2;
    oopts.path_prefix = "/tmp/nblb_bench_netserving_ovl";
    oopts.buffer_pool_frames_per_shard = 1024;
    oopts.schema = WikipediaSynthesizer::RevisionSchema();
    oopts.table_options.key_columns = {0};
    oopts.max_queue_depth = 4;
    oopts.busy_fail_fast = true;  // required behind a NetServer
    auto ovl_engine_result = ShardedEngine::Open(oopts);
    if (!ovl_engine_result.ok()) {
      std::fprintf(stderr, "overload engine open: %s\n",
                   ovl_engine_result.status().ToString().c_str());
      return 1;
    }
    auto ovl_engine = std::move(*ovl_engine_result);
    std::vector<Row> seed(rows.begin(),
                          rows.begin() + std::min<size_t>(rows.size(), 4096));
    if (Status s = LoadRows(ovl_engine.get(), seed, 0, 512); !s.ok()) {
      std::fprintf(stderr, "overload load: %s\n", s.ToString().c_str());
      return 1;
    }
    net::NetServerOptions ovl_sopts;
    ovl_sopts.max_inflight_per_conn = 4;  // well under the drive depth below
    auto ovl_server_result =
        net::NetServer::Start(ovl_sopts, ovl_engine.get());
    if (!ovl_server_result.ok()) {
      std::fprintf(stderr, "overload server start: %s\n",
                   ovl_server_result.status().ToString().c_str());
      return 1;
    }
    auto ovl_server = std::move(*ovl_server_result);
    std::printf("phase 3: overload (caps conn=4, queue_depth=4, drive "
                "depth %llu)...\n",
                static_cast<unsigned long long>(pipeline));

    // Over-drive: every connection pipelines far past the admission caps.
    const size_t ovl_batches_per_conn =
        std::max<size_t>(500, batches.size() / (conns * 4));
    std::vector<std::vector<RequestBatch>> ovl_slices(conns);
    for (size_t c = 0; c < conns; ++c) {
      for (size_t i = 0; i < ovl_batches_per_conn; ++i) {
        ovl_slices[c].push_back(batches[(c + i * conns) % batches.size()]);
      }
    }
    overload = RunNetPhase(*ovl_server, ovl_slices, pipeline);
    busy_shed_frames =
        ovl_server->MetricsSnapshotNow().counters.at("net.busy_shed");
    const double shed_fraction =
        overload.requests > 0
            ? static_cast<double>(overload.busy) / overload.requests
            : 0;
    std::printf(
        "  %llu requests: %llu served, %llu busy (%.1f%% shed, %llu "
        "server-side shed frames), errors %llu\n",
        static_cast<unsigned long long>(overload.requests),
        static_cast<unsigned long long>(overload.found + overload.not_found),
        static_cast<unsigned long long>(overload.busy), shed_fraction * 100,
        static_cast<unsigned long long>(busy_shed_frames),
        static_cast<unsigned long long>(overload.errors));
    if (overload.errors > 0) {
      std::fprintf(stderr,
                   "overload phase saw transport errors: admission control "
                   "failed to shed cleanly\n");
      return 1;
    }
  }

  // ---- JSON ----------------------------------------------------------------
  const char* json_path = std::getenv("NBLB_BENCH_JSON_PATH");
  FILE* f =
      std::fopen(json_path ? json_path : "BENCH_net_serving.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot open JSON output file\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"net_serving\",\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"rows\": %zu,\n  \"lookups\": %llu,\n  \"batch_size\": %llu,\n"
      "  \"shards\": %u,\n  \"workers\": %u,\n"
      "  \"connections\": %llu,\n  \"pipeline_depth\": %llu,\n"
      "  \"inflight\": %llu,\n"
      "  \"engine_io_backend_effective\": \"%s\",\n"
      "  \"inprocess\": {\n"
      "    \"seconds\": %.4f, \"ops_per_sec\": %.1f,\n"
      "    \"p50_batch_ms\": %.4f, \"p99_batch_ms\": %.4f,\n"
      "    \"errors\": %llu\n  },\n"
      "  \"net\": {\n"
      "    \"seconds\": %.4f, \"ops_per_sec\": %.1f,\n"
      "    \"p50_batch_ms\": %.4f, \"p99_batch_ms\": %.4f,\n"
      "    \"found\": %llu, \"not_found\": %llu, \"busy\": %llu, "
      "\"errors\": %llu,\n"
      "    \"ratio_vs_inprocess\": %.4f\n  }",
      GitSha(), rows.size(), static_cast<unsigned long long>(num_lookups),
      static_cast<unsigned long long>(batch_size), shards, workers,
      static_cast<unsigned long long>(conns),
      static_cast<unsigned long long>(pipeline),
      static_cast<unsigned long long>(inflight),
      engine_uring ? "uring" : "threads", inproc.seconds, inproc.OpsPerSec(),
      inproc_p50, inproc_p99, static_cast<unsigned long long>(inproc.errors),
      net.seconds, net.ops_per_sec, net.p50_batch_ms, net.p99_batch_ms,
      static_cast<unsigned long long>(net.found),
      static_cast<unsigned long long>(net.not_found),
      static_cast<unsigned long long>(net.busy),
      static_cast<unsigned long long>(net.errors), ratio);
  if (run_overload) {
    std::fprintf(
        f,
        ",\n  \"overload\": {\n"
        "    \"requests\": %llu, \"served\": %llu, \"busy\": %llu, "
        "\"errors\": %llu,\n"
        "    \"busy_shed_frames\": %llu,\n"
        "    \"shed_fraction\": %.4f\n  }",
        static_cast<unsigned long long>(overload.requests),
        static_cast<unsigned long long>(overload.found + overload.not_found),
        static_cast<unsigned long long>(overload.busy),
        static_cast<unsigned long long>(overload.errors),
        static_cast<unsigned long long>(busy_shed_frames),
        overload.requests > 0
            ? static_cast<double>(overload.busy) / overload.requests
            : 0);
  }
  std::fprintf(f, ",\n  \"metrics\": %s\n}\n", metrics_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", json_path ? json_path : "BENCH_net_serving.json");

  engine.reset();
  for (uint32_t s = 0; s < shards; ++s) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(s) + ".db").c_str());
  }
  if (run_overload) {
    for (uint32_t s = 0; s < 2; ++s) {
      std::remove(("/tmp/nblb_bench_netserving_ovl.shard" +
                   std::to_string(s) + ".db")
                      .c_str());
    }
  }
  return 0;
}
