// Concurrency hammer for the striped BufferPool: 8 threads mixing
// FetchPage / FetchPages / dirty writes / FlushPage / EvictAll against a
// sequential oracle (every page permanently holds a pattern derived from its
// id), then pin-count and content invariants are checked after the storm.
//
// Runs under ThreadSanitizer in CI. Page content accesses go through the
// per-frame cache latch, matching the pool's contract that content
// synchronization is the caller's concern.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace nblb {
namespace {

using nblb::testing::TempFile;

constexpr size_t kPageSize = 4096;
constexpr size_t kFrames = 64;
constexpr size_t kStripes = 4;
constexpr PageId kPages = 192;  // 3x the pool: constant eviction pressure
constexpr int kThreads = 8;
constexpr int kOpsPerThread = 4000;

char PatternOf(PageId id) { return static_cast<char>('!' + (id % 90)); }

void CheckPage(PageGuard& g, std::atomic<uint64_t>* corrupt) {
  LatchGuard latch(*g.cache_latch());
  const char want = PatternOf(g.id());
  for (size_t i = 0; i < 64; ++i) {
    if (g.data()[i] != want) {
      corrupt->fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

void RewritePage(PageGuard& g) {
  LatchGuard latch(*g.cache_latch());
  std::memset(g.data(), PatternOf(g.id()), 64);
  g.MarkDirty();
}

TEST(BufferPoolConcurrencyTest, EightThreadMixedWorkloadKeepsInvariants) {
  TempFile file("bp_conc");
  DiskManager disk(file.path(), kPageSize);
  ASSERT_OK(disk.Open());
  BufferPool bp(&disk, kFrames, kStripes);
  ASSERT_EQ(bp.num_stripes(), kStripes);
  MetricsRegistry registry;
  bp.RegisterMetrics(&registry, "buffer_pool.");

  // Seed every page with its pattern, single-threaded.
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, bp.NewPage());
    std::memset(g.data(), PatternOf(g.id()), 64);
    g.MarkDirty();
  }
  ASSERT_OK(bp.FlushAll());

  std::atomic<uint64_t> corrupt{0};
  std::atomic<uint64_t> hard_errors{0};
  std::atomic<uint64_t> ok_ops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xc0ffee + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t dice = rng.Uniform(100);
        if (dice < 55) {
          // Single fetch + verify.
          auto g = bp.FetchPage(static_cast<PageId>(rng.Uniform(kPages)));
          if (g.ok()) {
            CheckPage(*g, &corrupt);
            ok_ops.fetch_add(1, std::memory_order_relaxed);
          } else if (!g.status().IsResourceExhausted()) {
            hard_errors.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (dice < 85) {
          // Batched fetch (with duplicates) + verify all.
          std::vector<PageId> ids;
          const size_t n = 2 + rng.Uniform(6);
          for (size_t i = 0; i < n; ++i) {
            ids.push_back(static_cast<PageId>(rng.Uniform(kPages)));
          }
          if (n >= 4) ids[n - 1] = ids[0];  // guaranteed duplicate
          auto guards = bp.FetchPages(ids);
          if (guards.ok()) {
            for (auto& g : *guards) CheckPage(g, &corrupt);
            ok_ops.fetch_add(1, std::memory_order_relaxed);
          } else if (!guards.status().IsResourceExhausted()) {
            hard_errors.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (dice < 95) {
          // Dirty rewrite of the same pattern: exercises write-back without
          // perturbing the oracle.
          auto g = bp.FetchPage(static_cast<PageId>(rng.Uniform(kPages)));
          if (g.ok()) {
            RewritePage(*g);
            ok_ops.fetch_add(1, std::memory_order_relaxed);
          } else if (!g.status().IsResourceExhausted()) {
            hard_errors.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (dice < 98) {
          Status s = bp.FlushPage(static_cast<PageId>(rng.Uniform(kPages)));
          if (!s.ok()) hard_errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Cold-cache storm; Busy is expected while others hold pins.
          Status s = bp.EvictAll();
          if (!s.ok() && !s.IsBusy()) {
            hard_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(corrupt.load(), 0u) << "a fetch observed wrong page contents";
  EXPECT_EQ(hard_errors.load(), 0u);
  EXPECT_GT(ok_ops.load(), 0u);

  // Pin invariant: every guard released -> the pool must evict cleanly.
  ASSERT_OK(bp.EvictAll());

  // Content invariant: all dirty write-backs landed the oracle pattern.
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, bp.FetchPage(id));
    CheckPage(g, &corrupt);
  }
  EXPECT_EQ(corrupt.load(), 0u) << "post-storm contents diverged from oracle";

  // Stats stayed coherent under concurrency.
  const MetricsSnapshot st = registry.Snapshot();
  EXPECT_GT(st.Total("buffer_pool.hits") + st.Total("buffer_pool.misses"), 0u);
  EXPECT_GT(st.Total("buffer_pool.evictions"), 0u);
}

}  // namespace
}  // namespace nblb
