// Shared helpers for nblb tests: temp files, small schemas, stack builders.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace nblb::testing {

/// Unique temp file path removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = ::testing::TempDir() + "nblb_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
            ".db";
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

/// DiskManager + BufferPool over a temp file, with their counters in a
/// registry under the Database's prefixes ("disk.", "buffer_pool.").
struct Stack {
  std::unique_ptr<TempFile> file;
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> bp;
  /// Declared last, so destroyed first: its entries point into disk and bp.
  std::unique_ptr<MetricsRegistry> metrics;

  /// Registers disk and bp in a new registry. Call it again after replacing
  /// either: the old registry points into the old objects.
  void Register() {
    metrics.reset(new MetricsRegistry());
    disk->RegisterMetrics(metrics.get(), "disk.");
    bp->RegisterMetrics(metrics.get(), "buffer_pool.");
  }
  MetricsSnapshot Snapshot() const { return metrics->Snapshot(); }
  /// The counter's value now, e.g. Counter("buffer_pool.misses"), or its
  /// growth since `since`, an earlier Snapshot().
  uint64_t Counter(const std::string& name,
                   const MetricsSnapshot& since = {}) const {
    return (Snapshot() - since).Total(name);
  }
};

inline Stack MakeStack(const std::string& tag, size_t page_size = 8192,
                       size_t frames = 256) {
  Stack s;
  s.file.reset(new TempFile(tag));
  s.disk.reset(new DiskManager(s.file->path(), page_size));
  EXPECT_TRUE(s.disk->Open().ok());
  s.bp.reset(new BufferPool(s.disk.get(), frames));
  s.Register();
  return s;
}

/// HeapFile::GetBatch into copies: tuples[i] and statuses[i] answer
/// rids[i]. Adds a test failure unless every rid gets exactly one call when
/// the batch succeeds.
inline Status CopyBatch(HeapFile* heap, const std::vector<Rid>& rids,
                        std::vector<std::string>* tuples,
                        std::vector<Status>* statuses) {
  tuples->assign(rids.size(), std::string());
  statuses->assign(rids.size(), Status::OK());
  std::vector<int> calls(rids.size(), 0);
  Status s = heap->GetBatch(
      rids, [&](size_t i, const Status& st, const Slice& tuple) {
        ++calls[i];
        (*statuses)[i] = st;
        (*tuples)[i] = tuple.ToString();
      });
  if (s.ok()) {
    for (size_t i = 0; i < rids.size(); ++i) {
      EXPECT_EQ(calls[i], 1) << "rid " << i;
    }
  }
  return s;
}

#define ASSERT_OK(expr)                                    \
  do {                                                     \
    ::nblb::Status _st = (expr);                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

#define EXPECT_OK(expr)                                    \
  do {                                                     \
    ::nblb::Status _st = (expr);                           \
    EXPECT_TRUE(_st.ok()) << _st.ToString();               \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                   \
  auto NBLB_CONCAT(_r_, __LINE__) = (rexpr);               \
  ASSERT_TRUE(NBLB_CONCAT(_r_, __LINE__).ok())             \
      << NBLB_CONCAT(_r_, __LINE__).status().ToString();   \
  lhs = std::move(NBLB_CONCAT(_r_, __LINE__)).ValueOrDie()

}  // namespace nblb::testing
