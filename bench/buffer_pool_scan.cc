// buffer_pool_scan: thread-count × stripe-count sweep over the striped
// clock-sweep BufferPool, in a hit regime (working set resident) and a miss
// regime (working set 8x the pool), plus an embedded copy of the seed's
// single-mutex exact-LRU pool as the same-machine baseline.
//
// The headline number is the 8-thread hit-regime speedup of the striped pool
// over the seed pool: every page touch used to serialize on one std::mutex
// and splice a std::list; now it takes one uncontended-by-construction
// stripe mutex and flips bits in a packed atomic word. The miss regime shows
// the second win: FetchPages() groups misses per stripe and reads each
// contiguous run with one preadv instead of one pread per page.
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
//   "hit": [   // one entry per (pool, stripes, threads, mode)
//     {"pool": "striped"|"seed_lru", "stripes": <uint>,  // 0 for seed_lru
//      "threads": <uint>, "mode": "single"|"batch",
//      "ops_per_sec": <float>},
//     ...
//   ],
//   "miss": [
//     {"mode": "single"|"batch", "threads": <uint>,
//      "ops_per_sec": <float>, "disk_reads": <uint>,
//      "vectored_reads": <uint>},
//     ...
//   ],
//   "churn": [   // update-churn regime: fetch+mutate+MarkDirty every op,
//                // working set 2x the pool (uniform — see the phase
//                // comment for why), flush passes ON, async batched
//                // write-back, own O_DIRECT file
//                // (churn_direct_io_effective=0 means the fs refused and
//                // the phase measured the page cache)
//     {"threads": <uint>, "ops_per_sec": <float>,
//      "disk_writes": <uint>, "async_writes": <uint>, "write_runs": <uint>,
//      "flusher_pages": <uint>, "flusher_coalesced_runs": <uint>,
//      "dirty_writebacks": <uint>},
//     ...
//   ],
//   "metrics": { ... },  // unified-registry document (src/obs/): the scan
//                        // and churn DiskManagers plus the final churn
//                        // BufferPool, under scan_disk./churn_disk./
//                        // churn_buffer_pool. prefixes (disk counters
//                        // cover the last config)
//   "io_backend_effective": "uring"|"threads",
//   "speedup_8t_hit_vs_seed": <float>  // striped single-fetch vs seed pool
// }
// The top level also carries "git_sha": the commit the binary was
// configured from (stamped by CMake at configure time).
//
// Flags: --frames=N --ops=N --batch=N --threads=N (max client threads)
// --io=auto|uring|threads (async I/O backend; "threads" forces the
// preadv/pwritev worker-pool fallback) --flusher_us=N (churn-phase flush
// pass cadence; 0 runs none). Any other argument, or a value that does not
// parse, exits 2.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
/// same-run baseline the striped pool is measured against.
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
  size_t stripes = 0;
  uint32_t threads = 0;
  std::string mode;
  double ops_per_sec = 0;
};

struct MissResult {
  std::string mode;
  uint32_t threads = 0;
  double ops_per_sec = 0;
  uint64_t disk_reads = 0;
  uint64_t vectored_reads = 0;
  uint64_t async_reads = 0;
};

struct ChurnResult {
  uint32_t threads = 0;
  double ops_per_sec = 0;
  uint64_t disk_writes = 0;
  uint64_t async_writes = 0;
  uint64_t async_write_batches = 0;
  uint64_t write_runs = 0;
  uint64_t flusher_pages = 0;
  uint64_t flusher_coalesced_runs = 0;
  uint64_t dirty_writebacks = 0;
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

/// Runs `total_ops` page touches split over `threads`, via `touch(rng)`
/// which returns the number of pages it touched.
template <typename TouchFn>
double RunThreads(uint32_t threads, uint64_t total_ops,
                  const TouchFn& touch) {
  const uint64_t per_thread = total_ops / threads;
  std::vector<std::thread> pool;
  const double start = Now();
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      InlineRng rng(0x5eed + 977 * t);
      uint64_t done = 0;
      while (done < per_thread) done += touch(rng);
    });
  }
  for (auto& th : pool) th.join();
  const double secs = Now() - start;
  return static_cast<double>(per_thread * threads) / secs;
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
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.U64("threads", 8));
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

  std::vector<uint32_t> thread_sweep;
  for (uint32_t t = 1; t <= max_threads; t *= 2) thread_sweep.push_back(t);
  const std::vector<size_t> stripe_sweep = {1, 4, 16, 64};

  // ---- Hit regime ----------------------------------------------------------
  std::vector<HitResult> hit_results;
  std::printf("\n== hit regime (%u resident pages) ==\n", hit_pages);
  std::printf("%-10s %-8s %-8s %-8s %-12s\n", "pool", "stripes", "threads",
              "mode", "ops/sec");

  for (size_t stripes : stripe_sweep) {
    if (stripes > frames) continue;
    BufferPool bp(&disk, frames, stripes);
    // Warm the pool.
    for (PageId id = 0; id < hit_pages; ++id) {
      auto g = bp.FetchPage(id);
      if (!g.ok()) std::abort();
    }
    for (uint32_t threads : thread_sweep) {
      const double ops = RunThreads(threads, total_ops, [&](InlineRng& rng) {
        auto g = bp.FetchPage((rng.Page(hit_pages)));
        volatile char sink = g->data()[0];
        (void)sink;
        return 1u;
      });
      hit_results.push_back(
          {"striped", stripes, threads, "single", ops});
      std::printf("%-10s %-8zu %-8u %-8s %-12.0f\n", "striped", stripes,
                  threads, "single", ops);
      std::fflush(stdout);
    }
    // Batched hit fetches at the widest stripe setting only (one row per
    // thread count is plenty for the JSON).
    if (stripes == stripe_sweep.back()) {
      for (uint32_t threads : thread_sweep) {
        const double ops = RunThreads(threads, total_ops, [&](InlineRng& rng) {
          std::vector<PageId> ids(batch);
          for (auto& id : ids) {
            id = (rng.Page(hit_pages));
          }
          auto guards = bp.FetchPages(ids);
          if (!guards.ok()) std::abort();
          volatile char sink = (*guards)[0].data()[0];
          (void)sink;
          return static_cast<uint32_t>(batch);
        });
        hit_results.push_back({"striped", stripes, threads, "batch", ops});
        std::printf("%-10s %-8zu %-8u %-8s %-12.0f\n", "striped", stripes,
                    threads, "batch", ops);
        std::fflush(stdout);
      }
    }
  }

  {
    SeedLruPool seed(&disk, frames);
    for (PageId id = 0; id < hit_pages; ++id) seed.Fetch(id);
    for (PageId id = 0; id < hit_pages; ++id) seed.Unpin(id);
    for (uint32_t threads : thread_sweep) {
      const double ops = RunThreads(threads, total_ops, [&](InlineRng& rng) {
        const PageId id = (rng.Page(hit_pages));
        char* data = seed.Fetch(id);
        volatile char sink = data[0];
        (void)sink;
        seed.Unpin(id);
        return 1u;
      });
      hit_results.push_back({"seed_lru", 0, threads, "single", ops});
      std::printf("%-10s %-8d %-8u %-8s %-12.0f\n", "seed_lru", 0, threads,
                  "single", ops);
      std::fflush(stdout);
    }
  }

  // Headline: the striped pool's best hit-regime fetch mode (single pins or
  // batched FetchPages — both are how callers fetch pages) against the seed
  // pool's only mode, at the widest thread count. Per-mode rows are all in
  // the JSON.
  double striped_8t = 0, seed_8t = 0;
  std::string striped_mode;
  for (const auto& r : hit_results) {
    if (r.threads != std::min<uint32_t>(8, max_threads)) continue;
    if (r.pool == "striped" && r.ops_per_sec > striped_8t) {
      striped_8t = r.ops_per_sec;
      striped_mode = r.mode;
    }
    if (r.pool == "seed_lru") seed_8t = r.ops_per_sec;
  }
  const double speedup = seed_8t > 0 ? striped_8t / seed_8t : 0;
  std::printf(
      "\nspeedup striped (%s mode) vs seed_lru at %u threads (hit): %.2fx\n",
      striped_mode.c_str(), std::min<uint32_t>(8, max_threads), speedup);

  // ---- Miss regime ---------------------------------------------------------
  std::vector<MissResult> miss_results;
  std::printf("\n== miss regime (%u pages through %llu frames) ==\n",
              miss_pages, static_cast<unsigned long long>(frames));
  std::printf("%-8s %-8s %-12s %-10s %-10s\n", "mode", "threads", "ops/sec",
              "reads", "preadv");
  const uint64_t miss_ops = std::max<uint64_t>(total_ops / 4, 1);
  for (const char* mode : {"single", "batch"}) {
    for (uint32_t threads : thread_sweep) {
      BufferPool bp(&disk, frames, 0);
      scan_base = scan_registry.Snapshot();
      double ops;
      if (std::strcmp(mode, "single") == 0) {
        ops = RunThreads(threads, miss_ops, [&](InlineRng& rng) {
          auto g = bp.FetchPage((rng.Page(miss_pages)));
          if (!g.ok()) std::abort();
          volatile char sink = g->data()[0];
          (void)sink;
          return 1u;
        });
      } else {
        ops = RunThreads(threads, miss_ops, [&](InlineRng& rng) {
          std::vector<PageId> ids(batch);
          for (auto& id : ids) {
            id = (rng.Page(miss_pages));
          }
          auto guards = bp.FetchPages(ids);
          if (!guards.ok()) std::abort();
          return static_cast<uint32_t>(batch);
        });
      }
      const MetricsSnapshot ds = scan_registry.Snapshot() - scan_base;
      const uint64_t reads = ds.Total("scan_disk.reads");
      const uint64_t vectored = ds.Total("scan_disk.vectored_reads");
      miss_results.push_back({mode, threads, ops, reads, vectored,
                              ds.Total("scan_disk.async_reads")});
      std::printf("%-8s %-8u %-12.0f %-10llu %-10llu\n", mode, threads, ops,
                  static_cast<unsigned long long>(reads),
                  static_cast<unsigned long long>(vectored));
      std::fflush(stdout);
    }
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
  // pressure comes from BOTH flush passes (FlushColdPages, run every
  // --flusher_us by a harness thread beside the clients) and dirty
  // eviction victims, drained through sorted async write groups. Unlike the
  // hit/miss phases this one runs on its OWN O_DIRECT file (when the
  // filesystem allows it): write-back against the page cache costs
  // microseconds and measures only submission overhead — the regime the
  // async pipeline exists for is the device paying real latency per
  // write.
  std::vector<ChurnResult> churn_results;
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
  MetricsRegistry churn_registry;
  churn_disk.RegisterMetrics(&churn_registry, "churn_disk.");
  MetricsSnapshot churn_base;
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
  std::printf("%-8s %-12s %-10s %-10s %-10s %-10s\n", "threads", "ops/sec",
              "writes", "asyncw", "runs", "flusherp");
  // The last churn pool outlives the sweep so its counters can be
  // published in the metrics document below. Each pool gets a registry of
  // its own, which dies before the pool does.
  std::unique_ptr<BufferPool> churn_bp;
  std::unique_ptr<MetricsRegistry> churn_pool_registry;
  for (uint32_t threads : thread_sweep) {
    churn_pool_registry.reset();
    churn_bp.reset(new BufferPool(&churn_disk, frames, 0));
    BufferPool& bp = *churn_bp;
    churn_pool_registry.reset(new MetricsRegistry());
    bp.RegisterMetrics(churn_pool_registry.get(), "churn_buffer_pool.");
    // The pool starts no thread, so a harness thread runs its flush passes
    // at the --flusher_us cadence for the whole phase.
    std::atomic<bool> churn_done{false};
    std::thread flusher;
    if (flusher_us > 0) {
      flusher = std::thread([&] {
        while (!churn_done.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(flusher_us));
          auto pass = bp.FlushColdPages();
          if (!pass.ok()) {
            std::fprintf(stderr, "churn flush pass: %s\n",
                         pass.status().ToString().c_str());
            std::abort();
          }
        }
      });
    }
    churn_base = churn_registry.Snapshot();
    const double ops = RunThreads(threads, churn_ops, [&](InlineRng& rng) {
      // FetchPages wants ascending unique ids (like every real caller).
      // Draw, sort, dedup — duplicates are rare over this id space and
      // the op count below uses the actual unique size, so no per-op
      // quadratic membership scans pollute the measurement.
      std::vector<PageId> ids;
      ids.reserve(batch);
      for (uint64_t k = 0; k < batch; ++k) ids.push_back(rng.Page(churn_pages));
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      auto guards = bp.FetchPages(ids);
      if (!guards.ok()) {
        // A flush pass pins its whole batch; a fetch that lands while
        // one stripe is saturated sees ResourceExhausted. That is
        // backpressure, not failure — yield and retry.
        if (guards.status().IsResourceExhausted()) {
          std::this_thread::yield();
          return 0u;
        }
        std::fprintf(stderr, "churn fetch: %s\n",
                     guards.status().ToString().c_str());
        std::abort();
      }
      for (PageGuard& g : *guards) {
        {
          // Latch-disciplined content write: the flush paths snapshot
          // under the same per-frame latch.
          LatchGuard latch(*g.cache_latch());
          g.data()[rng.Next() % 64] = static_cast<char>(rng.Next());
        }
        g.MarkDirty();
      }
      return static_cast<uint32_t>(ids.size());
    });
    churn_done.store(true, std::memory_order_release);
    if (flusher.joinable()) flusher.join();
    const MetricsSnapshot ds = churn_registry.Snapshot() - churn_base;
    const MetricsSnapshot ps = churn_pool_registry->Snapshot();
    const ChurnResult r{threads,
                        ops,
                        ds.Total("churn_disk.writes"),
                        ds.Total("churn_disk.async_writes"),
                        ds.Total("churn_disk.async_write_batches"),
                        ds.Total("churn_disk.write_runs"),
                        ps.Total("churn_buffer_pool.flusher_pages"),
                        ps.Total("churn_buffer_pool.flusher_coalesced_runs"),
                        ps.Total("churn_buffer_pool.dirty_writebacks")};
    churn_results.push_back(r);
    std::printf("%-8u %-12.0f %-10llu %-10llu %-10llu %-10llu\n", threads,
                ops, static_cast<unsigned long long>(r.disk_writes),
                static_cast<unsigned long long>(r.async_writes),
                static_cast<unsigned long long>(r.write_runs),
                static_cast<unsigned long long>(r.flusher_pages));
    std::fflush(stdout);
  }

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
                 "    {\"pool\": \"%s\", \"stripes\": %zu, \"threads\": %u, "
                 "\"mode\": \"%s\", \"ops_per_sec\": %.1f}%s\n",
                 r.pool.c_str(), r.stripes, r.threads, r.mode.c_str(),
                 r.ops_per_sec, i + 1 < hit_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"miss\": [\n");
  for (size_t i = 0; i < miss_results.size(); ++i) {
    const auto& r = miss_results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %u, "
                 "\"ops_per_sec\": %.1f, \"disk_reads\": %llu, "
                 "\"vectored_reads\": %llu, \"async_reads\": %llu}%s\n",
                 r.mode.c_str(), r.threads, r.ops_per_sec,
                 static_cast<unsigned long long>(r.disk_reads),
                 static_cast<unsigned long long>(r.vectored_reads),
                 static_cast<unsigned long long>(r.async_reads),
                 i + 1 < miss_results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"churn\": [\n");
  for (size_t i = 0; i < churn_results.size(); ++i) {
    const auto& r = churn_results[i];
    std::fprintf(
        f,
        "    {\"threads\": %u, \"ops_per_sec\": %.1f, "
        "\"disk_writes\": %llu, \"async_writes\": %llu, "
        "\"async_write_batches\": %llu, \"write_runs\": %llu, "
        "\"flusher_pages\": %llu, "
        "\"flusher_coalesced_runs\": %llu, \"dirty_writebacks\": %llu}%s\n",
        r.threads, r.ops_per_sec,
        static_cast<unsigned long long>(r.disk_writes),
        static_cast<unsigned long long>(r.async_writes),
        static_cast<unsigned long long>(r.async_write_batches),
        static_cast<unsigned long long>(r.write_runs),
        static_cast<unsigned long long>(r.flusher_pages),
        static_cast<unsigned long long>(r.flusher_coalesced_runs),
        static_cast<unsigned long long>(r.dirty_writebacks),
        i + 1 < churn_results.size() ? "," : "");
  }
  // Unified-registry document for the bench's storage layers: same
  // MetricsRegistry/Snapshot/ToJson machinery the serving stack exports
  // through DumpMetrics(). Each disk's counters cover its last config.
  MetricsSnapshot metrics = scan_registry.Snapshot() - scan_base;
  metrics.Merge(churn_registry.Snapshot() - churn_base, "");
  if (churn_pool_registry) metrics.Merge(churn_pool_registry->Snapshot(), "");
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
