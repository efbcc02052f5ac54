// shard_throughput: sweeps shard count × worker-thread count over a
// 1M-row Zipfian Wikipedia revision workload served by ShardedEngine, and
// reports aggregate lookup throughput and tail latency — closed-loop
// (blocking Execute, one batch in flight per client) AND open-loop (async
// Submit at a sustained in-flight depth) for every configuration.
//
// The sweep follows the scale-out model: every shard is a "node" with a
// fixed per-shard buffer pool, so 4 shards hold 4× the aggregate pool of 1
// shard — the paper's §3.1 argument (shrink the per-node index until it is
// RAM-resident) realized by the serving layer. At the default size that
// argument does not show: trimmed heap rows and full leaves fit the hot
// set in one shard's 32 MiB, and every configuration, one shard included,
// reads a buffer-pool hit rate of at least 0.99. So the shard-count
// speedup comes from worker threads — pipeline overlap between routing
// (client thread) and execution (shard owners), on more cores — not from
// cache. --frames=512 restores the miss regime (one shard reads about
// 0.79), where the sharded configurations also overlap the shards' misses:
// the device serves several outstanding reads while the CPU keeps routing.
//
// The open-loop phase is the "no I/O slot left idle" experiment: a
// closed-loop client's queue depth collapses to its thread count, so batch
// coalescing and preadv run length collapse with it; the open-loop driver
// keeps ≥ --inflight tickets outstanding, the per-shard adaptive window
// grows, and each service group drains more sub-batches per descent/syscall.
// Queue-depth, coalesced-group and service-latency distributions for both
// phases come from the engine's per-shard log-histograms.
//
// Shard files are opened with O_DIRECT (--direct=0 disables) so a
// buffer-pool miss pays real device latency rather than an OS page-cache
// copy; without it the host cache absorbs the entire dataset and the
// RAM-residency effect this benchmark exists to measure disappears.
//
// Output: a human-readable table on stdout, and machine-readable JSON
// written to BENCH_shard_throughput.json (or $NBLB_BENCH_JSON_PATH).
//
// JSON schema (all times seconds unless suffixed _ms/_us; one object):
// {
//   "bench": "shard_throughput",
//   "git_sha": "<commit the binary was configured from>",
//   "rows": <uint>,              // rows loaded per configuration
//   "lookups": <uint>,           // traced lookups per configuration
//   "batch_size": <uint>,        // requests per Execute/Submit call
//   "page_size": <uint>,
//   "frames_per_shard": <uint>,  // per-shard buffer pool capacity
//   "direct_io": <0|1>,          // O_DIRECT shard files
//   "inflight": <uint>,          // open-loop target in-flight depth
//   "configs": [                 // one entry per (shards, workers) point
//     {
//       "shards": <uint>, "workers": <uint>, "clients": <uint>,
//       "load_seconds": <float>, "load_ops_per_sec": <float>,
//       "lookup_seconds": <float>, "ops_per_sec": <float>,
//       "p50_batch_ms": <float>, "p99_batch_ms": <float>,
//       "found": <uint>, "not_found": <uint>, "errors": <uint>,
//       "bp_hit_rate": <float>,  // aggregated over shards, closed phase
//       "disk_reads": <uint>,    // aggregated over shards, closed phase
//       "queue_depth_p50": <uint>, "queue_depth_p99": <uint>,
//       "queue_depth_max": <uint>,      // log-bucket upper bounds
//       "coalesce_p50": <uint>, "coalesce_max": <uint>,
//       "avg_coalesce": <float>,        // sub-batches per service group
//       "service_us_p50": <uint>, "service_us_p99": <uint>,
//       "trace": {                      // sampled-tracing breakdown of the
//         "sampled": <uint>,            // closed phase (trace.* histogram
//         "<phase>_us": {"count","p50","p99","max"}, ...  // deltas); phases:
//       },                              // queue_wait service get_batch
//                                       // fetch_start io_submit device_wait
//                                       // copy end_to_end
//       "direct_io_effective": <0|1>,   // every shard file really O_DIRECT
//                                       // (0 = fs refused; page-cache run)
//       "open_loop": {                  // async Submit phase, same batches
//         "inflight": <uint>,
//         "lookup_seconds": <float>, "ops_per_sec": <float>,
//         "p50_batch_ms": <float>, "p99_batch_ms": <float>,
//         "found": <uint>, "not_found": <uint>, "errors": <uint>,
//         "bp_hit_rate": <float>, "disk_reads": <uint>,
//         "queue_depth_p50": <uint>, "queue_depth_p99": <uint>,
//         "queue_depth_max": <uint>,
//         "coalesce_p50": <uint>, "coalesce_max": <uint>,
//         "avg_coalesce": <float>,
//         "service_us_p50": <uint>, "service_us_p99": <uint>,
//         "trace": { ... }              // same shape, open-phase delta
//       },
//       "metrics": { ... }              // engine->DumpMetrics(): the full
//                                       // unified registry document
//                                       // (counters/gauges/histograms over
//                                       // engine./trace./shard<i>.* names)
//     }, ...
//   ],
//   "speedup_4s4t_vs_1s1t": <float>,    // closed-loop ratio, the headline
//   "openloop_speedup_4s4w": <float>    // open vs closed at 4 shards/4 wkrs
//                                       // (omitted with --openloop=0, as is
//                                       // each config's "open_loop" object)
// }
//
// After the open-loop phase every configuration runs a WRITE-HEAVY phase
// ("mixed"): a mixed kGet/kUpdate scrambled-Zipfian trace over the loaded
// rows (--mixed_update percent updates), replayed closed-loop through the
// async batched write pipeline with no flush passes. Updates against
// O_DIRECT storage keep the write-back path saturated, so this phase
// measures exactly that path: batched eviction-victim write-back and the
// group-fsync checkpoint the phase starts from.
//
// JSON: each config gains a "mixed" object ({ops_per_sec, p50/p99,
// errors, bp_hit_rate, disk_reads, disk_writes, async_writes,
// async_write_batches, write_runs, dirty_writebacks}), and the top level
// gains "mixed_ops" and "mixed_update_fraction".
//
// Flags: --rows=N --lookups=N --batch=N --frames=N --direct=0|1
// --inflight=N --openloop=0|1
// --max_queue=N (0 = unbounded Submit; >0 bounds each shard queue,
// blocking policy) --mixed=0|1 --mixed_ops=N (0 = lookups/2)
// --mixed_update=PCT --trace_every=N (sample 1-in-N
// sub-batches for tracing; 0 disables, NBLB_OBS_OFF=1 overrides to off)
// (defaults below); any other argument, or a value that does not parse,
// exits 2. NBLB_IO_BACKEND=auto|sync picks the shards' disk I/O
// backend. The JSON gains "io_backend_effective" (what every shard
// actually runs after runtime probing), "max_queue_depth" and
// "trace_every".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unordered_map>

#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "workload/replay.h"
#include "workload/trace.h"
#include "workload/wikipedia.h"
#include "test_support.h"

namespace nblb::bench {
namespace {

/// Distribution summary of one measurement phase, from the engine's
/// per-shard log-histograms (values are log-bucket upper bounds).
struct PhaseDist {
  uint64_t queue_depth_p50 = 0;
  uint64_t queue_depth_p99 = 0;
  uint64_t queue_depth_max = 0;
  uint64_t coalesce_p50 = 0;
  uint64_t coalesce_max = 0;
  double avg_coalesce = 0;
  uint64_t service_us_p50 = 0;
  uint64_t service_us_p99 = 0;
};

PhaseDist DistOf(const MetricsSnapshot& delta) {
  PhaseDist d;
  const LogHistogramSnapshot depth = delta.TotalHistogram("shard.queue_depth");
  const LogHistogramSnapshot coalesced =
      delta.TotalHistogram("shard.coalesced");
  const LogHistogramSnapshot latency =
      delta.TotalHistogram("shard.sub_batch_latency_us");
  const uint64_t groups = delta.Total("shard.coalesced_groups");
  d.queue_depth_p50 = depth.ApproxPercentile(0.50);
  d.queue_depth_p99 = depth.ApproxPercentile(0.99);
  d.queue_depth_max = depth.ApproxMax();
  d.coalesce_p50 = coalesced.ApproxPercentile(0.50);
  d.coalesce_max = coalesced.ApproxMax();
  d.avg_coalesce = groups == 0
                       ? 0
                       : static_cast<double>(delta.Total("shard.sub_batches")) /
                             static_cast<double>(groups);
  d.service_us_p50 = latency.ApproxPercentile(0.50);
  d.service_us_p99 = latency.ApproxPercentile(0.99);
  return d;
}

/// Write-path counters summed over shards (disk + buffer pool), for
/// phase deltas of the mixed write-heavy phases.
struct WriteCounters {
  uint64_t writes = 0;
  uint64_t async_writes = 0;
  uint64_t async_write_batches = 0;
  uint64_t write_runs = 0;
  uint64_t dirty_writebacks = 0;
};

/// One replay phase's throughput numbers.
struct PhaseResult {
  double seconds = 0;
  double ops_per_sec = 0;
  double p50_batch_ms = 0;
  double p99_batch_ms = 0;
  uint64_t found = 0;
  uint64_t not_found = 0;
  uint64_t errors = 0;
  double bp_hit_rate = 0;
  uint64_t disk_reads = 0;
  PhaseDist dist;
  WriteCounters wio;  ///< filled for the mixed phases only
  /// Sampled-tracing breakdown of this phase (JSON fragment from the
  /// "trace.*" histogram delta); empty when tracing was off.
  std::string trace_json;
};

struct ConfigResult {
  uint32_t shards = 0;
  uint32_t workers = 0;
  uint32_t clients = 0;
  double load_seconds = 0;
  double load_ops_per_sec = 0;
  PhaseResult closed;
  PhaseResult open;
  PhaseResult mixed;  ///< write-heavy, async batched write-back
  bool open_ran = false;
  bool mixed_ran = false;
  size_t inflight = 0;
  bool direct_io_effective = false;
  bool uring_effective = false;
  /// The engine's full unified-metrics document (DumpMetrics), captured at
  /// config teardown: every layer's counters/gauges/histograms in one JSON
  /// object, embedded verbatim under "metrics".
  std::string metrics_json;
};

/// Serializes the per-phase sampled-tracing latency breakdown out of a
/// metrics-snapshot delta: {"sampled": N, "<phase>_us": {count,p50,p99,max}}
/// for every trace phase that recorded anything during the phase.
std::string TraceBreakdownJson(const MetricsSnapshot& delta) {
  std::string out = "{";
  char buf[160];
  uint64_t sampled = 0;
  if (auto it = delta.counters.find("trace.sampled");
      it != delta.counters.end()) {
    sampled = it->second;
  }
  std::snprintf(buf, sizeof(buf), "\"sampled\": %llu",
                static_cast<unsigned long long>(sampled));
  out.append(buf);
  static const char* kPhases[] = {"queue_wait",  "service",     "get_batch",
                                  "fetch_start", "io_submit",   "device_wait",
                                  "copy",        "end_to_end"};
  for (const char* phase : kPhases) {
    const auto it = delta.histograms.find(std::string("trace.") + phase +
                                          "_us");
    if (it == delta.histograms.end() || it->second.count() == 0) continue;
    const LogHistogramSnapshot& h = it->second;
    std::snprintf(
        buf, sizeof(buf),
        ", \"%s_us\": {\"count\": %llu, \"p50\": %llu, \"p99\": %llu, "
        "\"max\": %llu}",
        phase, static_cast<unsigned long long>(h.count()),
        static_cast<unsigned long long>(h.ValueAtQuantile(0.50)),
        static_cast<unsigned long long>(h.ValueAtQuantile(0.99)),
        static_cast<unsigned long long>(h.ApproxMax()));
    out.append(buf);
  }
  out.push_back('}');
  return out;
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t i = std::min(xs.size() - 1,
                            static_cast<size_t>(p * (xs.size() - 1) + 0.5));
  return xs[i];
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WriteCounters WriteCountersOf(const MetricsSnapshot& delta) {
  WriteCounters c;
  c.writes = delta.Total("disk.writes");
  c.async_writes = delta.Total("disk.async_writes");
  c.async_write_batches = delta.Total("disk.async_write_batches");
  c.write_runs = delta.Total("disk.write_runs");
  c.dirty_writebacks = delta.Total("buffer_pool.dirty_writebacks");
  return c;
}

/// Disk reads and pool hit rate of a phase, from the engine snapshots
/// taken around it.
void FillPhaseIo(PhaseResult* phase, const MetricsSnapshot& delta) {
  phase->disk_reads = delta.Total("disk.reads");
  const uint64_t hits = delta.Total("buffer_pool.hits");
  const uint64_t accesses = hits + delta.Total("buffer_pool.misses");
  phase->bp_hit_rate =
      accesses == 0 ? 0
                    : static_cast<double>(hits) / static_cast<double>(accesses);
}

void FillPhaseReport(PhaseResult* phase, uint64_t ops,
                     const std::vector<double>& batch_seconds,
                     double seconds) {
  phase->seconds = seconds;
  phase->ops_per_sec = seconds > 0 ? ops / seconds : 0;
  phase->p50_batch_ms = Percentile(batch_seconds, 0.50) * 1e3;
  phase->p99_batch_ms = Percentile(batch_seconds, 0.99) * 1e3;
}

/// Runs one (shards, workers) point: fresh engine, bulk load, closed-loop
/// multi-client replay of the Zipfian revision trace, then an open-loop
/// async replay of the same batches at --inflight depth.
struct IoKnobs {
  size_t max_queue = 0;
  /// Request-tracing sample rate: 1-in-N sub-batches carry a TraceContext
  /// (0 disables sampling; NBLB_OBS_OFF=1 disables it regardless).
  uint64_t trace_every = 32;
};

/// Runs one closed-loop replay of `batches` over `clients` threads and
/// fills `phase` (throughput, latency percentiles, IO + write deltas).
void RunClosedPhase(ShardedEngine* engine, uint32_t clients,
                    const std::vector<RequestBatch>& batches,
                    PhaseResult* phase) {
  std::vector<std::vector<RequestBatch>> slices(clients);
  for (size_t i = 0; i < batches.size(); ++i) {
    slices[i % clients].push_back(batches[i]);
  }
  std::vector<ReplayReport> reports(clients);
  const double start = Now();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back(
        [&, c] { reports[c] = ReplayBatches(engine, slices[c]); });
  }
  for (auto& t : threads) t.join();
  const double seconds = Now() - start;

  std::vector<double> batch_seconds;
  uint64_t ops = 0;
  for (const auto& rep : reports) {
    ops += rep.ops;
    phase->found += rep.found;
    phase->not_found += rep.not_found;
    phase->errors += rep.errors;
    batch_seconds.insert(batch_seconds.end(), rep.batch_seconds.begin(),
                         rep.batch_seconds.end());
  }
  FillPhaseReport(phase, ops, batch_seconds, seconds);
}

ConfigResult RunConfig(uint32_t shards, uint32_t workers,
                       const std::vector<Row>& rows,
                       const std::vector<RequestBatch>& batches,
                       const std::vector<RequestBatch>& mixed_batches,
                       size_t frames_per_shard, bool direct_io,
                       size_t inflight, bool run_openloop,
                       const IoKnobs& io) {
  ConfigResult r;
  r.shards = shards;
  r.workers = workers;
  r.clients = workers;
  r.inflight = inflight;

  ShardedEngineOptions opts;
  opts.num_shards = shards;
  opts.num_workers = workers;
  opts.path_prefix =
      "/tmp/nblb_bench_shardtp_" + std::to_string(shards) + "x" +
      std::to_string(workers);
  opts.buffer_pool_frames_per_shard = frames_per_shard;
  opts.direct_io = direct_io;
  opts.max_coalesce_window = 32;
  opts.max_queue_depth = io.max_queue;
  opts.trace_sample_every = io.trace_every;
  opts.schema = WikipediaSynthesizer::RevisionSchema();
  opts.table_options.key_columns = {0};
  auto engine_result = ShardedEngine::Open(opts);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "engine open: %s\n",
                 engine_result.status().ToString().c_str());
    std::exit(1);
  }
  auto engine = std::move(*engine_result);

  // Record what the filesystem actually gave us: a silent O_DIRECT
  // fallback would measure the OS page cache instead of the device.
  r.direct_io_effective = true;
  r.uring_effective = true;
  for (uint32_t s = 0; s < shards; ++s) {
    r.direct_io_effective &=
        engine->shard(s)->database()->disk()->direct_io();
    r.uring_effective &= engine->shard(s)->database()->disk()
                             ->io_backend_in_use() == IoBackend::kUring;
  }
  if (direct_io && !r.direct_io_effective) {
    std::fprintf(stderr,
                 "warning: O_DIRECT unavailable on shard files; results "
                 "measure the page cache, not the device\n");
  }

  const double load_start = Now();
  if (Status s = LoadRows(engine.get(), rows, /*key_column=*/0, 512);
      !s.ok()) {
    std::fprintf(stderr, "load: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  r.load_seconds = Now() - load_start;
  r.load_ops_per_sec = rows.size() / r.load_seconds;

  // ---- Closed-loop phase: blocking Execute, one batch per client thread.
  // Every phase's counters are the difference of the engine snapshots
  // around it.
  const MetricsSnapshot m_before = engine->MetricsSnapshotNow();
  const uint32_t clients = r.clients;
  RunClosedPhase(engine.get(), clients, batches, &r.closed);
  const MetricsSnapshot m_mid = engine->MetricsSnapshotNow();
  {
    const MetricsSnapshot delta = m_mid - m_before;
    FillPhaseIo(&r.closed, delta);
    r.closed.dist = DistOf(delta);
    r.closed.trace_json = TraceBreakdownJson(delta);
  }

  // ---- Open-loop phase: async Submit at sustained in-flight depth, same
  // batches. The pool is warm from the closed phase in the hit regime; in
  // the miss regime the working set exceeds the pool either way, so the
  // comparison measures pipelining + coalescing, not cache warmth.
  if (run_openloop) {
    r.open_ran = true;
    ReplayReport rep =
        ReplayBatchesOpenLoop(engine.get(), batches, inflight);
    r.open.found = rep.found;
    r.open.not_found = rep.not_found;
    r.open.errors = rep.errors;
    FillPhaseReport(&r.open, rep.ops, rep.batch_seconds, rep.seconds);
    const MetricsSnapshot delta = engine->MetricsSnapshotNow() - m_mid;
    FillPhaseIo(&r.open, delta);
    r.open.dist = DistOf(delta);
    r.open.trace_json = TraceBreakdownJson(delta);
  }

  // ---- Mixed write-heavy phase through the async batched write pipeline.
  // The phase starts from a group-fsync Checkpoint, and updates against
  // O_DIRECT storage keep the write-back path saturated.
  if (!mixed_batches.empty()) {
    r.mixed_ran = true;
    // Warmup: one discarded replay of the same batches, so the measured
    // phase runs at steady-state residency instead of paying the mixed
    // trace's cold faults.
    {
      PhaseResult discard;
      RunClosedPhase(engine.get(), clients, mixed_batches, &discard);
    }
    // The harness thread checkpoints each shard while its worker idles.
    // With the WAL off and no flush passes, a worker touches no pool after
    // it completes a group's tickets, and every ticket of the warmup is
    // complete here, so each pool passes to this thread and back (at the
    // next Submit) without a race.
    for (uint32_t s = 0; s < shards; ++s) {
      if (Status cs = engine->shard(s)->database()->Checkpoint(); !cs.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", cs.ToString().c_str());
        std::exit(1);
      }
    }
    const MetricsSnapshot m_mixed = engine->MetricsSnapshotNow();
    RunClosedPhase(engine.get(), clients, mixed_batches, &r.mixed);
    const MetricsSnapshot delta = engine->MetricsSnapshotNow() - m_mixed;
    FillPhaseIo(&r.mixed, delta);
    r.mixed.wio = WriteCountersOf(delta);
  }

  // Capture the unified metrics document before the engine (and with it
  // every layer's registered metric) is torn down.
  r.metrics_json = engine->DumpMetrics();

  for (uint32_t s = 0; s < shards; ++s) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(s) + ".db").c_str());
  }
  return r;
}

const char* GitSha() {
#ifdef NBLB_GIT_SHA
  return NBLB_GIT_SHA;
#else
  return "unknown";
#endif
}

/// The mixed write-phase object: throughput + the write-path counters.
void PrintMixedPhaseJson(FILE* f, const PhaseResult& p) {
  std::fprintf(
      f,
      ",\n     \"mixed\": {\n"
      "       \"lookup_seconds\": %.4f, \"ops_per_sec\": %.1f,\n"
      "       \"p50_batch_ms\": %.4f, \"p99_batch_ms\": %.4f,\n"
      "       \"found\": %llu, \"not_found\": %llu, \"errors\": %llu,\n"
      "       \"bp_hit_rate\": %.6f, \"disk_reads\": %llu,\n"
      "       \"disk_writes\": %llu, \"async_writes\": %llu,\n"
      "       \"async_write_batches\": %llu, \"write_runs\": %llu,\n"
      "       \"dirty_writebacks\": %llu\n     }",
      p.seconds, p.ops_per_sec, p.p50_batch_ms, p.p99_batch_ms,
      static_cast<unsigned long long>(p.found),
      static_cast<unsigned long long>(p.not_found),
      static_cast<unsigned long long>(p.errors), p.bp_hit_rate,
      static_cast<unsigned long long>(p.disk_reads),
      static_cast<unsigned long long>(p.wio.writes),
      static_cast<unsigned long long>(p.wio.async_writes),
      static_cast<unsigned long long>(p.wio.async_write_batches),
      static_cast<unsigned long long>(p.wio.write_runs),
      static_cast<unsigned long long>(p.wio.dirty_writebacks));
}

void PrintPhaseDistJson(FILE* f, const char* indent, const PhaseResult& p) {
  std::fprintf(
      f,
      "%s\"queue_depth_p50\": %llu, \"queue_depth_p99\": %llu, "
      "\"queue_depth_max\": %llu,\n"
      "%s\"coalesce_p50\": %llu, \"coalesce_max\": %llu, "
      "\"avg_coalesce\": %.3f,\n"
      "%s\"service_us_p50\": %llu, \"service_us_p99\": %llu",
      indent, static_cast<unsigned long long>(p.dist.queue_depth_p50),
      static_cast<unsigned long long>(p.dist.queue_depth_p99),
      static_cast<unsigned long long>(p.dist.queue_depth_max), indent,
      static_cast<unsigned long long>(p.dist.coalesce_p50),
      static_cast<unsigned long long>(p.dist.coalesce_max),
      p.dist.avg_coalesce, indent,
      static_cast<unsigned long long>(p.dist.service_us_p50),
      static_cast<unsigned long long>(p.dist.service_us_p99));
}

}  // namespace
}  // namespace nblb::bench

int main(int argc, char** argv) {
  using namespace nblb;
  using namespace nblb::bench;

  Flags flags(argc, argv);
  const uint64_t target_rows = flags.U64("rows", 1000000);
  const uint64_t num_lookups = flags.U64("lookups", 400000);
  const uint64_t batch_size = flags.U64("batch", 64);
  // 4096 frames × 8 KiB = 32 MiB per shard-node, which holds the 1M-row
  // workload's hot set even on one node (see the file comment); 512 frames
  // put one node in the §3.1 miss regime.
  const uint64_t frames = flags.U64("frames", 4096);
  const bool direct_io = flags.U64("direct", 1) != 0;
  const uint64_t inflight = flags.U64("inflight", 64);
  const bool run_openloop = flags.U64("openloop", 1) != 0;
  IoKnobs io;
  io.max_queue = flags.U64("max_queue", 0);
  io.trace_every = flags.U64("trace_every", 32);
  const bool run_mixed = flags.U64("mixed", 1) != 0;
  const uint64_t mixed_ops_flag = flags.U64("mixed_ops", 0);
  const uint64_t mixed_ops =
      mixed_ops_flag != 0 ? mixed_ops_flag : num_lookups / 2;
  const uint64_t mixed_update_pct = flags.U64("mixed_update", 50);
  flags.Done();

  // ~20 revisions/page (the synthesizer's hot fraction is 1/this).
  WikipediaScale scale;
  scale.revisions_per_page = 20;
  scale.num_pages = std::max<uint64_t>(1, target_rows / 20);
  WikipediaSynthesizer wiki(scale);

  std::printf("generating ~%llu revision rows...\n",
              static_cast<unsigned long long>(target_rows));
  const std::vector<Row>& rows = wiki.revisions();
  const auto batches = BuildLookupBatches(
      wiki.RevisionLookupTrace(num_lookups), batch_size);

  // Mixed kGet/kUpdate trace for the write-heavy phase: scrambled-Zipfian
  // popularity over every loaded row, update rows replayed verbatim (the
  // heap rewrite dirties the page either way — this phase measures
  // write-back, not codec cost).
  std::vector<RequestBatch> mixed_batches;
  if (run_mixed) {
    std::unordered_map<uint64_t, size_t> row_by_id;
    row_by_id.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      row_by_id[static_cast<uint64_t>(rows[i][0].AsInt())] = i;
    }
    TraceOptions topt;
    topt.num_items = rows.size();
    topt.num_ops = mixed_ops;
    topt.distribution = TraceDistribution::kScrambledZipfian;
    topt.mix.lookup = 1.0 - static_cast<double>(mixed_update_pct) / 100.0;
    topt.mix.update = static_cast<double>(mixed_update_pct) / 100.0;
    topt.seed = 7;
    std::vector<Op> ops = BuildTrace(topt);
    for (Op& op : ops) {  // trace items are row indexes; ops carry routing ids
      op.item = static_cast<uint64_t>(rows[op.item][0].AsInt());
    }
    mixed_batches = BuildOpBatches(
        ops, [&](uint64_t id) { return rows[row_by_id[id]]; }, batch_size);
  }
  std::printf(
      "rows=%zu lookups=%llu batch=%llu frames/shard=%llu direct=%d "
      "inflight=%llu\n",
      rows.size(), static_cast<unsigned long long>(num_lookups),
      static_cast<unsigned long long>(batch_size),
      static_cast<unsigned long long>(frames), direct_io ? 1 : 0,
      static_cast<unsigned long long>(inflight));

  const std::vector<std::pair<uint32_t, uint32_t>> sweep = {
      {1, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 4}};

  std::vector<ConfigResult> results;
  std::printf("%-8s %-8s %-12s %-12s %-12s %-12s %-10s %-12s\n",
              "shards", "workers", "closed_ops/s", "open_ops/s", "p99_ms",
              "open_p99", "bp_hit", "mixed");
  for (auto [shards, workers] : sweep) {
    ConfigResult r = RunConfig(shards, workers, rows, batches,
                               mixed_batches, frames, direct_io, inflight,
                               run_openloop, io);
    results.push_back(r);
    char mixed_s[32] = "-";
    if (r.mixed_ran) {
      std::snprintf(mixed_s, sizeof(mixed_s), "%.0f", r.mixed.ops_per_sec);
    }
    if (r.open_ran) {
      std::printf(
          "%-8u %-8u %-12.0f %-12.0f %-12.3f %-12.3f %-10.4f %-12s\n",
          r.shards, r.workers, r.closed.ops_per_sec, r.open.ops_per_sec,
          r.closed.p99_batch_ms, r.open.p99_batch_ms, r.closed.bp_hit_rate,
          mixed_s);
    } else {
      std::printf(
          "%-8u %-8u %-12.0f %-12s %-12.3f %-12s %-10.4f %-12s\n",
          r.shards, r.workers, r.closed.ops_per_sec, "-",
          r.closed.p99_batch_ms, "-", r.closed.bp_hit_rate, mixed_s);
    }
    std::fflush(stdout);
  }

  double base = 0, scaled = 0, open_4s4w = 0;
  for (const auto& r : results) {
    if (r.shards == 1 && r.workers == 1) base = r.closed.ops_per_sec;
    if (r.shards == 4 && r.workers == 4) {
      scaled = r.closed.ops_per_sec;
      open_4s4w = r.open.ops_per_sec;
    }
  }
  const double speedup = base > 0 ? scaled / base : 0;
  const double open_speedup =
      run_openloop && scaled > 0 ? open_4s4w / scaled : 0;
  std::printf("\nspeedup 4 shards/4 workers vs 1/1 (closed): %.2fx\n",
              speedup);
  if (run_openloop) {
    std::printf("open-loop (inflight=%llu) vs closed at 4s/4w: %.2fx\n",
                static_cast<unsigned long long>(inflight), open_speedup);
  }

  const char* json_path = std::getenv("NBLB_BENCH_JSON_PATH");
  FILE* f = std::fopen(json_path ? json_path : "BENCH_shard_throughput.json",
                       "w");
  if (!f) {
    std::fprintf(stderr, "cannot open JSON output file\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"shard_throughput\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"rows\": %zu,\n  \"lookups\": %llu,\n"
               "  \"batch_size\": %llu,\n  \"page_size\": %zu,\n"
               "  \"frames_per_shard\": %llu,\n  \"direct_io\": %d,\n"
               "  \"inflight\": %llu,\n"
               "  \"io_backend_effective\": \"%s\",\n"
               "  \"max_queue_depth\": %llu,\n"
               "  \"trace_every\": %llu,\n"
               "  \"mixed_ops\": %llu,\n"
               "  \"mixed_update_fraction\": %.2f,\n"
               "  \"configs\": [\n",
               GitSha(), rows.size(),
               static_cast<unsigned long long>(num_lookups),
               static_cast<unsigned long long>(batch_size), kDefaultPageSize,
               static_cast<unsigned long long>(frames), direct_io ? 1 : 0,
               static_cast<unsigned long long>(inflight),
               !results.empty() && results.front().uring_effective
                   ? "uring"
                   : "sync",
               static_cast<unsigned long long>(io.max_queue),
               static_cast<unsigned long long>(io.trace_every),
               static_cast<unsigned long long>(run_mixed ? mixed_ops : 0),
               static_cast<double>(mixed_update_pct) / 100.0);
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        f,
        "    {\"shards\": %u, \"workers\": %u, \"clients\": %u,\n"
        "     \"load_seconds\": %.4f, \"load_ops_per_sec\": %.1f,\n"
        "     \"lookup_seconds\": %.4f, \"ops_per_sec\": %.1f,\n"
        "     \"p50_batch_ms\": %.4f, \"p99_batch_ms\": %.4f,\n"
        "     \"found\": %llu, \"not_found\": %llu, \"errors\": %llu,\n"
        "     \"bp_hit_rate\": %.6f, \"disk_reads\": %llu,\n",
        r.shards, r.workers, r.clients, r.load_seconds, r.load_ops_per_sec,
        r.closed.seconds, r.closed.ops_per_sec, r.closed.p50_batch_ms,
        r.closed.p99_batch_ms, static_cast<unsigned long long>(r.closed.found),
        static_cast<unsigned long long>(r.closed.not_found),
        static_cast<unsigned long long>(r.closed.errors), r.closed.bp_hit_rate,
        static_cast<unsigned long long>(r.closed.disk_reads));
    PrintPhaseDistJson(f, "     ", r.closed);
    if (!r.closed.trace_json.empty()) {
      std::fprintf(f, ",\n     \"trace\": %s", r.closed.trace_json.c_str());
    }
    std::fprintf(f, ",\n     \"direct_io_effective\": %d",
                 r.direct_io_effective ? 1 : 0);
    if (r.open_ran) {
      std::fprintf(
          f,
          ",\n     \"open_loop\": {\n"
          "       \"inflight\": %llu,\n"
          "       \"lookup_seconds\": %.4f, \"ops_per_sec\": %.1f,\n"
          "       \"p50_batch_ms\": %.4f, \"p99_batch_ms\": %.4f,\n"
          "       \"found\": %llu, \"not_found\": %llu, \"errors\": %llu,\n"
          "       \"bp_hit_rate\": %.6f, \"disk_reads\": %llu,\n",
          static_cast<unsigned long long>(r.inflight), r.open.seconds,
          r.open.ops_per_sec, r.open.p50_batch_ms, r.open.p99_batch_ms,
          static_cast<unsigned long long>(r.open.found),
          static_cast<unsigned long long>(r.open.not_found),
          static_cast<unsigned long long>(r.open.errors), r.open.bp_hit_rate,
          static_cast<unsigned long long>(r.open.disk_reads));
      PrintPhaseDistJson(f, "       ", r.open);
      if (!r.open.trace_json.empty()) {
        std::fprintf(f, ",\n       \"trace\": %s", r.open.trace_json.c_str());
      }
      std::fprintf(f, "\n     }");
    }
    if (r.mixed_ran) PrintMixedPhaseJson(f, r.mixed);
    if (!r.metrics_json.empty()) {
      std::fprintf(f, ",\n     \"metrics\": %s", r.metrics_json.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_4s4t_vs_1s1t\": %.4f", speedup);
  if (run_openloop) {
    std::fprintf(f, ",\n  \"openloop_speedup_4s4w\": %.4f", open_speedup);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n",
              json_path ? json_path : "BENCH_shard_throughput.json");
  return 0;
}
