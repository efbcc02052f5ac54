// Shared helpers for nblb tests: temp files, small schemas, stack builders.

#pragma once

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// Sets NBLB_IO_BACKEND to `value` for its lifetime, then restores the
/// prior value: the one way a test picks a DiskManager's backend, which
/// DiskManager::Open reads.
class ScopedIoBackend {
 public:
  explicit ScopedIoBackend(const char* value) {
    const char* prior = std::getenv("NBLB_IO_BACKEND");
    had_prior_ = prior != nullptr;
    if (had_prior_) prior_ = prior;
    ::setenv("NBLB_IO_BACKEND", value, 1);
  }
  ~ScopedIoBackend() {
    if (had_prior_) {
      ::setenv("NBLB_IO_BACKEND", prior_.c_str(), 1);
    } else {
      ::unsetenv("NBLB_IO_BACKEND");
    }
  }
  ScopedIoBackend(const ScopedIoBackend&) = delete;
  ScopedIoBackend& operator=(const ScopedIoBackend&) = delete;

 private:
  bool had_prior_ = false;
  std::string prior_;
};

/// The NBLB_IO_BACKEND value that selects `backend`: auto resolves to
/// kUring wherever BackendsToTest lists it.
inline const char* BackendName(IoBackend backend) {
  return backend == IoBackend::kUring ? "auto" : "sync";
}

/// The backends a test runs on: kSync always, and kUring when this runtime
/// comes up with a ring (a container may seccomp-block it, and a build may
/// leave it out).
inline std::vector<IoBackend> BackendsToTest() {
  std::vector<IoBackend> backends = {IoBackend::kSync};
  ScopedIoBackend env("auto");
  TempFile probe("io_probe");
  DiskManager disk(probe.path(), 4096);
  if (disk.Open().ok() && disk.io_backend_in_use() == IoBackend::kUring) {
    backends.push_back(IoBackend::kUring);
  }
  return backends;
}

/// Scoped write-failure injection: caps the size of any file the process
/// writes at `bytes`, so a write past it fails with EFBIG, or comes up
/// short where it crosses the cap (SIGXFSZ is ignored meanwhile).
/// Truncating a file would not inject a write error, since pwrite quietly
/// re-extends it.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(size_t bytes) {
    prev_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &prev_);
    struct rlimit lim = prev_;
    lim.rlim_cur = static_cast<rlim_t>(bytes);
    ::setrlimit(RLIMIT_FSIZE, &lim);
  }
  ~FileSizeLimit() { Release(); }
  void Release() {
    if (released_) return;
    released_ = true;
    ::setrlimit(RLIMIT_FSIZE, &prev_);
    ::signal(SIGXFSZ, prev_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  struct rlimit prev_;
  void (*prev_handler_)(int) = SIG_DFL;
  bool released_ = false;
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

/// MakeStack on the given backend, with 4 KiB pages and 64 frames by
/// default.
inline Stack MakeStackWithBackend(const std::string& tag, IoBackend backend,
                                  size_t page_size = 4096,
                                  size_t frames = 64) {
  ScopedIoBackend env(BackendName(backend));
  return MakeStack(tag, page_size, frames);
}

/// Fills `buf` with a page-sized pattern derived from (id, salt).
inline void FillPattern(char* buf, size_t page_size, PageId id, char salt) {
  std::memset(buf, salt + static_cast<char>(id % 26), page_size);
  std::memcpy(buf, &id, sizeof(id));
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
