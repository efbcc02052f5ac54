// Database: the top-level facade — one backing file, one buffer pool, and
// the tables in it by name. This is the entry point used by the examples.
//
// One thread drives a Database's tables (see storage/buffer_pool.h). Flush
// passes run on that thread too, when it calls
// buffer_pool()->FlushColdPages(), as a shard's worker does between service
// groups (Shard::FlushIfDue).

#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/vclock.h"
#include "exec/table.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/latency_model.h"

namespace nblb {

/// \brief Database-wide configuration.
struct DatabaseOptions {
  /// Backing file path.
  std::string path = "nblb.db";
  /// Page size in bytes.
  size_t page_size = kDefaultPageSize;
  /// Buffer pool capacity in pages.
  size_t buffer_pool_frames = 1024;
  /// Unused: the pool has one CLOCK and one owner thread (see
  /// storage/buffer_pool.h), so 0 and 1 mean the same and Open rejects any
  /// larger value. The field stays only because perfbench/layers.cc sets
  /// it; the benchmark change that drops that line deletes it.
  size_t buffer_pool_stripes = 0;
  /// Simulated storage latency (disabled charges nothing; see DESIGN.md §4).
  LatencyModelOptions latency;
  bool enable_latency_model = false;
  /// Open the backing file with O_DIRECT so buffer-pool misses pay real
  /// device latency instead of hitting the OS page cache (see
  /// DiskManager).
  bool direct_io = false;
};

/// \brief Owns the storage stack and the table registry.
class Database {
 public:
  /// \brief Opens (creating if needed) the backing file.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// \brief Creates a table; the name must be unused.
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             TableOptions options);

  /// \brief Reattaches a table to existing heap/index structures (clean
  /// shutdown; roots come from the superblock). See Table::Attach.
  Result<Table*> AttachTable(const std::string& name, Schema schema,
                             TableOptions options, PageId heap_first_page,
                             PageId btree_meta_page);

  /// \brief Crash-recovery reattach: tolerant heap walk + index rebuild
  /// from the heap. See Table::AttachRebuild.
  Result<Table*> AttachTableRebuild(const std::string& name, Schema schema,
                                    TableOptions options,
                                    PageId heap_first_page);

  /// \brief Looks up a table by name.
  Result<Table*> GetTable(const std::string& name);

  BufferPool* buffer_pool() { return bp_.get(); }
  DiskManager* disk() { return disk_.get(); }
  VirtualClock* clock() { return &clock_; }
  const DatabaseOptions& options() const { return options_; }

  /// \brief Unified metrics registry covering this database's storage stack
  /// ("disk.*" and "buffer_pool.*" at Open; owners of this Database — e.g.
  /// Shard — register their own layers into it too).
  MetricsRegistry* metrics() { return metrics_.get(); }

  /// \brief One JSON document with every registered metric (counters,
  /// gauges, histograms) across the disk and buffer-pool layers plus
  /// anything registered on top.
  std::string DumpMetrics() const { return metrics_->Snapshot().ToJson(); }

  /// \brief Flushes every dirty page and syncs the file (fdatasync).
  Status Checkpoint();

 private:
  explicit Database(DatabaseOptions options) : options_(std::move(options)) {}

  DatabaseOptions options_;
  VirtualClock clock_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> bp_;
  /// Declared after disk_/bp_ so it is destroyed first: registry entries
  /// point into the components, so the registry must die before they do.
  std::unique_ptr<MetricsRegistry> metrics_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace nblb
