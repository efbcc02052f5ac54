// buffer_pool_scan: the BufferPool driven by one client thread, as every
// pool is (one owner thread; see src/storage/buffer_pool.h), in a hit regime
// (working set resident), a miss regime (working set 8x the pool) and a
// dirty-churn regime, plus an embedded copy of the seed's single-mutex
// exact-LRU pool as the same-machine baseline.
//
// The headline number is the hit-regime speedup of the pool over the seed
// pool: a seed hit took a mutex and spliced a std::list; a pool hit probes
// an open-addressing table and bumps plain frame fields. The miss regime
// shows the batched path: FetchPages() reads each contiguous run with one
// vectored op, every run in flight at once.
//
// Output: a human-readable table on stdout and machine-readable JSON at
// BENCH_buffer_pool.json (or $NBLB_BENCH_JSON_PATH).
//
// JSON schema (one object):
// {
//   "bench": "buffer_pool_scan",
//   "page_size": <uint>, "frames": <uint>,
//   "hit_pages": <uint>, "miss_pages": <uint>,
//   "ops_per_config": <uint>, "batch_size": <uint>,
//   "hit": [   // the pool in "single" and "batch" mode, the seed pool in
//              // "single" mode
//     {"pool": "striped"|"seed_lru", "stripes": 1|0, "threads": 1,
//      "mode": "single"|"batch", "ops_per_sec": <float>},
//     ...
//   ],         // "pool", "stripes" and "threads" keep the values of the
//              // striped multi-thread pool this bench used to sweep, so
//              // the committed smoke baseline's rows ('striped', 1, 1,
//              // 'single') and ('seed_lru', 0, 1, 'single') stay gated by
//              // scripts/check_bench_regression.py
//   "miss": [
//     {"mode": "single"|"batch", "threads": 1,
//      "ops_per_sec": <float>, "disk_reads": <uint>,
//      "vectored_reads": <uint>, "async_reads": <uint>},
//     ...
//   ],
//   "churn": [   // update-churn regime: fetch+mutate+MarkDirty every op,
//                // working set 2x the pool (uniform — see the phase
//                // comment for why), flush passes ON, async batched
//                // write-back, own O_DIRECT file
//                // (churn_direct_io_effective=0 means the fs refused and
//                // the phase measured the page cache)
//     {"threads": 1, "ops_per_sec": <float>,
//      "disk_writes": <uint>, "async_writes": <uint>,
//      "async_write_batches": <uint>, "write_runs": <uint>,
//      "flusher_pages": <uint>, "flusher_coalesced_runs": <uint>,
//      "dirty_writebacks": <uint>}
//   ],
//   "metrics": { ... },  // unified-registry document (src/obs/): the scan
//                        // and churn DiskManagers plus the churn
//                        // BufferPool, under scan_disk./churn_disk./
//                        // churn_buffer_pool. prefixes (scan_disk covers
//                        // the last miss config)
//   "io_backend_effective": "uring"|"threads",
//   "speedup_8t_hit_vs_seed": <float>  // best pool hit mode vs seed pool,
//                                      // one thread (the name is kept
//                                      // for readers of older JSONs)
// }
// The top level also carries "git_sha": the commit the binary was
// configured from (stamped by CMake at configure time).
//
// Flags: --frames=N --ops=N --batch=N
// --io=auto|uring|threads (async I/O backend; "threads" forces the
// preadv/pwritev worker-pool fallback) --flusher_us=N (churn phase: the
// client runs a flush pass between ops once this long has passed since the
// last one, as a shard's worker does; 0 runs none). Any other argument, or
// a value that does not parse, exits 2.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_support.h"

namespace nblb::bench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The seed pool, verbatim in spirit: one mutex, exact LRU via std::list
/// splices, unordered_map page table. Kept here (not in src/) purely as the
/// same-run baseline the pool is measured against.
class SeedLruPool {
 public:
  SeedLruPool(DiskManager* disk, size_t num_frames)
      : disk_(disk), num_frames_(num_frames) {
    arena_.reset(new char[num_frames * disk->page_size()]);
    frames_.resize(num_frames);
    for (size_t i = 0; i < num_frames; ++i) {
      frames_[i].data = arena_.get() + i * disk->page_size();
      free_frames_.push_back(num_frames - 1 - i);
    }
  }

  char* Fetch(PageId id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = page_table_.find(id);
    if (it != page_table_.end()) {
      Frame& f = frames_[it->second];
      if (f.in_lru) {
        lru_.erase(f.lru_it);
        f.in_lru = false;
      }
      ++f.pin_count;
      return f.data;
    }
    size_t idx;
    if (!free_frames_.empty()) {
      idx = free_frames_.back();
      free_frames_.pop_back();
    } else {
      idx = lru_.back();
      Frame& victim = frames_[idx];
      lru_.pop_back();
      victim.in_lru = false;
      page_table_.erase(victim.id);
    }
    Frame& f = frames_[idx];
    if (!disk_->ReadPage(id, f.data).ok()) std::abort();
    f.id = id;
    f.pin_count = 1;
    page_table_[id] = idx;
    return f.data;
  }

  void Unpin(PageId id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = page_table_.find(id);
    Frame& f = frames_[it->second];
    if (--f.pin_count == 0) {
      lru_.push_front(it->second);
      f.lru_it = lru_.begin();
      f.in_lru = true;
    }
  }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    int pin_count = 0;
    char* data = nullptr;
    std::list<size_t>::iterator lru_it;
    bool in_lru = false;
  };

  DiskManager* disk_;
  size_t num_frames_;
  std::unique_ptr<char[]> arena_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  std::list<size_t> lru_;
  std::vector<size_t> free_frames_;
  std::mutex mu_;
};

struct HitResult {
  std::string pool;
  std::string mode;
  double ops_per_sec = 0;
};

struct MissResult {
  std::string mode;
  double ops_per_sec = 0;
  uint64_t disk_reads = 0;
  uint64_t vectored_reads = 0;
  uint64_t async_reads = 0;
};

/// Inline PRNG for the measurement loop: the pools are the thing under
/// test, so id generation must not cost out-of-line calls per op.
struct InlineRng {
  uint64_t state;
  explicit InlineRng(uint64_t seed) : state(SplitMix64(seed)) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  PageId Page(PageId n) { return static_cast<PageId>(Next() % n); }
};

/// Runs `total_ops` page touches on the calling thread via `touch(rng)`,
/// which returns the number of pages it touched; returns touches/second.
template <typename TouchFn>
double RunOps(uint64_t total_ops, const TouchFn& touch) {
  InlineRng rng(0x5eed);
  uint64_t done = 0;
  const double start = Now();
  while (done < total_ops) done += touch(rng);
  return static_cast<double>(total_ops) / (Now() - start);
}

}  // namespace
}  // namespace nblb::bench

int main(int argc, char** argv) {
  using namespace nblb;
  using namespace nblb::bench;

  Flags flags(argc, argv);
  const uint64_t frames = flags.U64("frames", 4096);
  const uint64_t total_ops = flags.U64("ops", 1'000'000);
  const uint64_t batch = flags.U64("batch", 32);
  const std::string io_flag = flags.Str("io", "auto");
  if (io_flag != "auto" && io_flag != "uring" && io_flag != "threads") {
    std::fprintf(stderr, "--io wants auto, uring or threads\n");
    return 2;
  }
  const uint64_t flusher_us = flags.U64("flusher_us", 1000);
  flags.Done();
  const size_t page_size = kDefaultPageSize;
  const PageId hit_pages = static_cast<PageId>(frames / 2);
  const PageId miss_pages = static_cast<PageId>(frames * 8);

  const std::string path = "/tmp/nblb_bench_bp_scan.db";
  std::remove(path.c_str());
  AsyncIoOptions aio;
  aio.backend = io_flag == "uring"     ? IoBackend::kUring
                : io_flag == "threads" ? IoBackend::kThreads
                                       : IoBackend::kAuto;
  DiskManager disk(path, page_size, nullptr, /*direct_io=*/false, aio);
  if (!disk.Open().ok()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  // Every counter is read through a registry; a config's counts are the
  // difference of the snapshots around it.
  MetricsRegistry scan_registry;
  disk.RegisterMetrics(&scan_registry, "scan_disk.");
  MetricsSnapshot scan_base;
  std::printf("allocating %u pages...\n", miss_pages);
  for (PageId i = 0; i < miss_pages; ++i) {
    if (!disk.AllocatePage().ok()) {
      std::fprintf(stderr, "allocation failed\n");
      return 1;
    }
  }

  // ---- Hit regime ----------------------------------------------------------
  std::vector<HitResult> hit_results;
  std::printf("\n== hit regime (%u resident pages, one thread) ==\n",
              hit_pages);
  std::printf("%-10s %-8s %-12s\n", "pool", "mode", "ops/sec");
  const auto report_hit = [&](const char* pool, const char* mode,
                              double ops) {
    hit_results.push_back({pool, mode, ops});
    std::printf("%-10s %-8s %-12.0f\n", pool, mode, ops);
    std::fflush(stdout);
  };
  {
    BufferPool bp(&disk, frames);
    // Warm the pool.
    for (PageId id = 0; id < hit_pages; ++id) {
      auto g = bp.FetchPage(id);
      if (!g.ok()) std::abort();
    }
    report_hit("striped", "single", RunOps(total_ops, [&](InlineRng& rng) {
                 auto g = bp.FetchPage(rng.Page(hit_pages));
                 volatile char sink = g->data()[0];
                 (void)sink;
                 return 1u;
               }));
    std::vector<PageId> ids(batch);
    report_hit("striped", "batch", RunOps(total_ops, [&](InlineRng& rng) {
                 for (auto& id : ids) id = rng.Page(hit_pages);
                 auto guards = bp.FetchPages(ids);
                 if (!guards.ok()) std::abort();
                 volatile char sink = (*guards)[0].data()[0];
                 (void)sink;
                 return static_cast<uint32_t>(batch);
               }));
  }
  {
    SeedLruPool seed(&disk, frames);
    for (PageId id = 0; id < hit_pages; ++id) seed.Fetch(id);
    for (PageId id = 0; id < hit_pages; ++id) seed.Unpin(id);
    report_hit("seed_lru", "single", RunOps(total_ops, [&](InlineRng& rng) {
                 const PageId id = rng.Page(hit_pages);
                 char* data = seed.Fetch(id);
                 volatile char sink = data[0];
                 (void)sink;
                 seed.Unpin(id);
                 return 1u;
               }));
  }

  // Headline: the pool's best hit-regime fetch mode (single pins or batched
  // FetchPages — both are how callers fetch pages) against the seed pool's
  // only mode. Per-mode rows are all in the JSON.
  double pool_best = 0, seed_ops = 0;
  std::string pool_mode;
  for (const auto& r : hit_results) {
    if (r.pool == "striped" && r.ops_per_sec > pool_best) {
      pool_best = r.ops_per_sec;
      pool_mode = r.mode;
    }
    if (r.pool == "seed_lru") seed_ops = r.ops_per_sec;
  }
  const double speedup = seed_ops > 0 ? pool_best / seed_ops : 0;
  std::printf("\nspeedup pool (%s mode) vs seed_lru (hit): %.2fx\n",
              pool_mode.c_str(), speedup);

  // ---- Miss regime ---------------------------------------------------------
  std::vector<MissResult> miss_results;
  std::printf("\n== miss regime (%u pages through %llu frames) ==\n",
              miss_pages, static_cast<unsigned long long>(frames));
  std::printf("%-8s %-12s %-10s %-10s\n", "mode", "ops/sec", "reads",
              "preadv");
  const uint64_t miss_ops = std::max<uint64_t>(total_ops / 4, 1);
  for (const char* mode : {"single", "batch"}) {
    BufferPool bp(&disk, frames);
    scan_base = scan_registry.Snapshot();
    double ops;
    if (std::strcmp(mode, "single") == 0) {
      ops = RunOps(miss_ops, [&](InlineRng& rng) {
        auto g = bp.FetchPage(rng.Page(miss_pages));
        if (!g.ok()) std::abort();
        volatile char sink = g->data()[0];
        (void)sink;
        return 1u;
      });
    } else {
      std::vector<PageId> ids(batch);
      ops = RunOps(miss_ops, [&](InlineRng& rng) {
        for (auto& id : ids) id = rng.Page(miss_pages);
        auto guards = bp.FetchPages(ids);
        if (!guards.ok()) std::abort();
        return static_cast<uint32_t>(batch);
      });
    }
    const MetricsSnapshot ds = scan_registry.Snapshot() - scan_base;
    const uint64_t reads = ds.Total("scan_disk.reads");
    const uint64_t vectored = ds.Total("scan_disk.vectored_reads");
    miss_results.push_back(
        {mode, ops, reads, vectored, ds.Total("scan_disk.async_reads")});
    std::printf("%-8s %-12.0f %-10llu %-10llu\n", mode, ops,
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(vectored));
    std::fflush(stdout);
  }

  // ---- Dirty-churn regime --------------------------------------------------
  // Update churn: each op batch-fetches `batch` pages (FetchPages — the
  // path the serving stack drives), mutates and dirties every one — the
  // write-back-bound isolation (the end-to-end mixed kGet/kUpdate Zipfian
  // replay lives in bench/shard_throughput's mixed phases). Batched
  // fetches matter: a batch whose claims displace dirty victims hands ALL
  // of them to one write-back group, which is the serving-path half of
  // the async write pipeline (single fetches only ever displace one
  // victim and cannot coalesce). Page choice is uniform over a working
  // set 2x the pool: skewing it enough to matter makes the hot set fully
  // resident and write-back stops gating anything, and diluting with
  // reads lets the flush passes keep up without trying. Here write-back
  // pressure comes from BOTH flush passes (FlushColdPages, which the client
  // runs between ops every --flusher_us, as Shard::FlushIfDue does) and
  // dirty eviction victims, drained through sorted async write groups.
  // Unlike the hit/miss phases this one runs on its OWN O_DIRECT file (when
  // the filesystem allows it): write-back against the page cache costs
  // microseconds and measures only submission overhead — the regime the
  // async pipeline exists for is the device paying real latency per
  // write.
  const PageId churn_pages = static_cast<PageId>(frames * 2);
  const uint64_t churn_ops = std::max<uint64_t>(total_ops / 16, 1);
  const std::string churn_path = "/tmp/nblb_bench_bp_churn.db";
  std::remove(churn_path.c_str());
  DiskManager churn_disk(churn_path, page_size, nullptr, /*direct_io=*/true,
                         aio);
  if (!churn_disk.Open().ok()) {
    std::fprintf(stderr, "cannot open %s\n", churn_path.c_str());
    return 1;
  }
  BufferPool churn_bp(&churn_disk, frames);
  MetricsRegistry churn_registry;
  churn_disk.RegisterMetrics(&churn_registry, "churn_disk.");
  churn_bp.RegisterMetrics(&churn_registry, "churn_buffer_pool.");
  for (PageId i = 0; i < churn_pages; ++i) {
    if (!churn_disk.AllocatePage().ok()) {
      std::fprintf(stderr, "churn allocation failed\n");
      return 1;
    }
  }
  std::printf(
      "\n== dirty-churn regime (%u pages, flusher %llu us, direct=%d) ==\n",
      churn_pages, static_cast<unsigned long long>(flusher_us),
      churn_disk.direct_io() ? 1 : 0);
  std::printf("%-12s %-10s %-10s %-10s %-10s\n", "ops/sec", "writes",
              "asyncw", "runs", "flusherp");
  const MetricsSnapshot churn_base = churn_registry.Snapshot();
  double last_pass = Now();
  std::vector<PageId> churn_ids;
  churn_ids.reserve(batch);
  const double churn_ops_per_sec = RunOps(churn_ops, [&](InlineRng& rng) {
    if (flusher_us > 0 && Now() - last_pass >= flusher_us * 1e-6) {
      auto pass = churn_bp.FlushColdPages();
      if (!pass.ok()) {
        std::fprintf(stderr, "churn flush pass: %s\n",
                     pass.status().ToString().c_str());
        std::abort();
      }
      last_pass = Now();
    }
    // FetchPages wants ascending unique ids (like every real caller).
    // Draw, sort, dedup — duplicates are rare over this id space and the
    // op count uses the actual unique size, so no per-op quadratic
    // membership scans pollute the measurement.
    churn_ids.clear();
    for (uint64_t k = 0; k < batch; ++k) {
      churn_ids.push_back(rng.Page(churn_pages));
    }
    std::sort(churn_ids.begin(), churn_ids.end());
    churn_ids.erase(std::unique(churn_ids.begin(), churn_ids.end()),
                    churn_ids.end());
    auto guards = churn_bp.FetchPages(churn_ids);
    if (!guards.ok()) {
      std::fprintf(stderr, "churn fetch: %s\n",
                   guards.status().ToString().c_str());
      std::abort();
    }
    for (PageGuard& g : *guards) {
      g.data()[rng.Next() % 64] = static_cast<char>(rng.Next());
      g.MarkDirty();
    }
    return static_cast<uint32_t>(churn_ids.size());
  });
  const MetricsSnapshot churn = churn_registry.Snapshot() - churn_base;
  std::printf("%-12.0f %-10llu %-10llu %-10llu %-10llu\n", churn_ops_per_sec,
              static_cast<unsigned long long>(churn.Total("churn_disk.writes")),
              static_cast<unsigned long long>(
                  churn.Total("churn_disk.async_writes")),
              static_cast<unsigned long long>(
                  churn.Total("churn_disk.write_runs")),
              static_cast<unsigned long long>(
                  churn.Total("churn_buffer_pool.flusher_pages")));
  std::fflush(stdout);

  // ---- JSON ----------------------------------------------------------------
  const char* json_path = std::getenv("NBLB_BENCH_JSON_PATH");
  FILE* f =
      std::fopen(json_path ? json_path : "BENCH_buffer_pool.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot open JSON output file\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"buffer_pool_scan\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"page_size\": %zu,\n  \"frames\": %llu,\n"
               "  \"hit_pages\": %u,\n  \"miss_pages\": %u,\n"
               "  \"ops_per_config\": %llu,\n  \"batch_size\": %llu,\n"
               "  \"io_backend\": \"%s\",\n"
               "  \"hit\": [\n",
#ifdef NBLB_GIT_SHA
               NBLB_GIT_SHA,
#else
               "unknown",
#endif
               page_size, static_cast<unsigned long long>(frames), hit_pages,
               miss_pages, static_cast<unsigned long long>(total_ops),
               static_cast<unsigned long long>(batch), io_flag.c_str());
  for (size_t i = 0; i < hit_results.size(); ++i) {
    const auto& r = hit_results[i];
    std::fprintf(f,
                 "    {\"pool\": \"%s\", \"stripes\": %d, \"threads\": 1, "
                 "\"mode\": \"%s\", \"ops_per_sec\": %.1f}%s\n",
                 r.pool.c_str(), r.pool == "seed_lru" ? 0 : 1, r.mode.c_str(),
                 r.ops_per_sec, i + 1 < hit_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"miss\": [\n");
  for (size_t i = 0; i < miss_results.size(); ++i) {
    const auto& r = miss_results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": 1, "
                 "\"ops_per_sec\": %.1f, \"disk_reads\": %llu, "
                 "\"vectored_reads\": %llu, \"async_reads\": %llu}%s\n",
                 r.mode.c_str(), r.ops_per_sec,
                 static_cast<unsigned long long>(r.disk_reads),
                 static_cast<unsigned long long>(r.vectored_reads),
                 static_cast<unsigned long long>(r.async_reads),
                 i + 1 < miss_results.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"churn\": [\n"
      "    {\"threads\": 1, \"ops_per_sec\": %.1f, "
      "\"disk_writes\": %llu, \"async_writes\": %llu, "
      "\"async_write_batches\": %llu, \"write_runs\": %llu, "
      "\"flusher_pages\": %llu, "
      "\"flusher_coalesced_runs\": %llu, \"dirty_writebacks\": %llu}\n",
      churn_ops_per_sec,
      static_cast<unsigned long long>(churn.Total("churn_disk.writes")),
      static_cast<unsigned long long>(churn.Total("churn_disk.async_writes")),
      static_cast<unsigned long long>(
          churn.Total("churn_disk.async_write_batches")),
      static_cast<unsigned long long>(churn.Total("churn_disk.write_runs")),
      static_cast<unsigned long long>(
          churn.Total("churn_buffer_pool.flusher_pages")),
      static_cast<unsigned long long>(
          churn.Total("churn_buffer_pool.flusher_coalesced_runs")),
      static_cast<unsigned long long>(
          churn.Total("churn_buffer_pool.dirty_writebacks")));
  // Unified-registry document for the bench's storage layers: same
  // MetricsRegistry/Snapshot/ToJson machinery the serving stack exports
  // through DumpMetrics(). scan_disk covers the last miss config.
  MetricsSnapshot metrics = scan_registry.Snapshot() - scan_base;
  metrics.Merge(churn, "");
  const std::string metrics_json = metrics.ToJson();
  std::fprintf(f,
               "  ],\n  \"metrics\": %s,\n"
               "  \"churn_direct_io_effective\": %d,\n"
               "  \"io_backend_effective\": \"%s\",\n"
               "  \"speedup_8t_hit_vs_seed\": %.4f\n}\n",
               metrics_json.c_str(),
               churn_disk.direct_io() ? 1 : 0,
               disk.io_backend_in_use() == IoBackend::kUring ? "uring"
                                                             : "threads",
               speedup);
  std::fclose(f);
  std::printf("wrote %s\n",
              json_path ? json_path : "BENCH_buffer_pool.json");
  std::remove(path.c_str());
  std::remove(churn_path.c_str());
  return 0;
}
