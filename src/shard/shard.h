// Shard: one slice of a sharded table — its own backing file, buffer pool,
// and primary index, sized so the per-shard index stays RAM-resident.
//
// This is the paper's §3.1 observation operationalized: "reducing the index
// size ... allows the entire index to fit in RAM". Each shard is a full
// vertical stack (Database → Table), so N shards have N× the aggregate
// buffer capacity and each B+Tree is ~1/N the height of a monolithic one.
//
// Concurrency contract: a Shard is NOT thread safe. The ShardedEngine
// statically assigns every shard to exactly one worker thread, which is the
// only thread that ever executes operations on it — single-writer by
// construction, no per-operation locking. That thread also runs the
// shard's flush passes (FlushIfDue) and checkpoints, so it is the only
// thread that touches the shard's buffer pool. Other threads read the
// shard's counters only through its database's metrics registry (the
// counters are atomics, see shard_stats.h).

#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/database.h"
#include "exec/table.h"
#include "shard/shard_stats.h"
#include "storage/superblock.h"
#include "storage/wal.h"

namespace nblb {

/// \brief Per-shard configuration.
struct ShardOptions {
  /// Backing file for this shard's Database. With `truncate` (the default)
  /// Shard::Open removes and recreates this file (plus the `.sb`/`.wal`
  /// sidecars) — the load-phase model; give every engine a distinct
  /// path/prefix or prior data is destroyed.
  std::string path;
  /// When true, an existing file at `path` is removed and the shard is
  /// rebuilt from scratch (the load-phase model). When false AND
  /// wal_enabled, Open reattaches to the existing files: a valid
  /// superblock selects clean reattach or crash recovery (heap walk +
  /// index rebuild + WAL replay). Without wal_enabled, Open still refuses
  /// to touch an existing file — there is no catalog to reopen from, and
  /// the guard keeps an accidental reopen from silently destroying data.
  bool truncate = true;
  /// Durability layer: superblock sidecar + per-shard write-ahead log.
  /// Every write op appends a logical record; records become durable in
  /// groups via CommitWal() (the ShardedEngine commits once per service
  /// group, before acking the group's tickets). Checkpoints advance the
  /// recovery LSN and reclaim log space.
  bool wal_enabled = false;
  size_t page_size = kDefaultPageSize;
  /// Buffer pool capacity, per shard (the scale-out model: each shard is a
  /// "node" with its own fixed RAM budget).
  size_t buffer_pool_frames = 4096;
  /// O_DIRECT backing file: misses pay device latency, not page-cache cost.
  bool direct_io = false;
  /// Flush-pass cadence (µs): FlushIfDue runs a pass when at least this
  /// long has passed since the last one; 0 disables passes, and dirty
  /// write-back rides eviction and checkpoints. A pass cleans only unpinned
  /// dirty frames at usage count 0 (the next CLOCK victims); hot pages stay
  /// dirty until aged, evicted, checkpointed or closed. A pass never fsyncs
  /// — durability is the WAL's and Checkpoint's.
  uint64_t flusher_interval_us = 0;

  Schema schema;
  TableOptions table_options;
};

/// \brief One shard: a Database wrapping a single table with an int64
/// primary key.
class Shard {
 public:
  /// \brief Creates the shard's backing store. The schema must have a
  /// single-column int64-family primary key (it is the routing key).
  static Result<std::unique_ptr<Shard>> Open(uint32_t shard_id,
                                             ShardOptions options);

  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // ---- Operations (single worker thread only) -----------------------------

  Status Insert(const Row& row);
  Result<Row> Get(uint64_t id);
  Result<Row> GetProjected(uint64_t id, const std::vector<size_t>& projection);

  /// \brief Batched full-row lookups: encodes each id into its key in a
  /// reused buffer and resolves them all through the table's batch core
  /// (Table::GetBatchEncoded: shared B+Tree descent, vectored/async
  /// heap-page miss I/O, each row decoded from its pinned page straight
  /// into slots[i], or checked and copied there for an image
  /// destination). Per-id NotFound lands in the slot; the returned Status
  /// covers infrastructure failures only.
  Status GetBatch(const std::vector<uint64_t>& ids, const RowSlot* slots);

  /// \brief GetBatch, pushing one Result per id onto `out`, in input order.
  Status GetBatch(const std::vector<uint64_t>& ids,
                  std::vector<Result<Row>>* out);

  /// \brief Replaces the non-key columns of row `id` (Table::UpdateByKey:
  /// the cache invalidation predicate is logged before the heap write).
  Status Update(uint64_t id, const Row& row);

  /// \brief Deletes row `id` (index entry, heap tuple, cache predicate).
  Status Delete(uint64_t id);

  /// \brief Group commit: makes every WAL record appended since the last
  /// commit durable (one vectored write + one fsync). The ShardedEngine
  /// calls this once per service group, after serving the group's ops and
  /// before completing their tickets — that is the ack barrier. Then frees
  /// the slots that rows moved out of since the last commit (see Update).
  /// No-op without wal_enabled. A failure is sticky (see Wal) and must fail
  /// the group's write ops.
  Status CommitWal();

  /// \brief Durable checkpoint, in this order: commits pending WAL
  /// records, frees the slots moved rows left, stages the recovery LSN,
  /// persists index metadata, flushes all dirty pages and syncs the data
  /// file (Database::Checkpoint), publishes a new superblock version at the
  /// staged LSN, and resets the WAL to reclaim log space. Without
  /// wal_enabled this is just Database::Checkpoint. Owner thread only.
  Status Checkpoint();

  /// \brief Runs one flush pass over the shard's pool
  /// (BufferPool::FlushColdPages) when flusher_interval_us > 0 and at least
  /// that long has passed since the last pass; otherwise does nothing. The
  /// ShardedEngine's worker calls it after each service group, once the
  /// group's tickets are complete. Returns the pass's write error, if any.
  /// Owner thread only.
  Status FlushIfDue();

  /// \brief Test hook: skip the clean close (checkpoint + clean-shutdown
  /// superblock) in the destructor, so the next Open exercises the crash
  /// recovery path even though the process exits normally.
  void SimulateCrashForTest() { skip_clean_close_ = true; }

  // ---- Introspection (owner thread; counters via database()->metrics()) ---

  uint32_t id() const { return id_; }
  /// \brief The live counters, for the owning worker to record into.
  ShardStats& stats() { return stats_; }
  /// \brief Called by the owning worker after draining one batch fragment.
  void NoteSubBatch() { stats_.Add(stats_.sub_batches); }
  Database* database() { return db_.get(); }
  Table* table() { return table_; }
  uint64_t rows() const { return rows_; }
  /// nullptr unless wal_enabled.
  Wal* wal() { return wal_.get(); }
  /// \brief True when this Open took the crash-recovery path (no clean
  /// shutdown recorded: heap walk + index rebuild + WAL replay).
  bool recovered() const { return recovered_; }
  /// \brief WAL records re-applied during recovery (0 on clean reattach).
  uint64_t replayed_records() const { return replayed_records_; }

 private:
  Shard(uint32_t shard_id, ShardOptions options);

  std::vector<Value> KeyOf(uint64_t id) const;
  /// Writes the keys of `ids` back to back into keys_ (GetBatch); returns
  /// the first.
  const char* EncodeKeys(const std::vector<uint64_t>& ids);
  /// Counts a failed op: NotFound, or an error.
  void CountMiss(const Status& s) {
    stats_.Add(s.IsNotFound() ? stats_.not_found : stats_.errors);
  }

  /// Checkpoint; the superblock it publishes records `clean_shutdown`
  /// (true only for the orderly close in ~Shard).
  Status RunCheckpoint(bool clean_shutdown);
  /// Re-applies WAL records with lsn > checkpoint_lsn_ through UpsertByKey /
  /// DeleteByKey (idempotent logical redo). A put payload is decoded by
  /// RowCodec::Decode; one that does not decode fails the open with
  /// Corruption.
  Status ReplayWal();
  /// Snapshot of everything the next Open needs, from live structures.
  SuperblockData BuildSuperblock() const;
  /// Appends one logical record for an acked-on-commit write op. A put
  /// logs the trimmed image the table just stored (Table::last_image):
  /// VARCHAR padding holds no data, so it is neither stored nor logged.
  Status LogPut(uint64_t id);
  Status LogDelete(uint64_t id);
  /// Deletes the slots in moved_from_ once the puts that moved those rows
  /// are durable (after a WAL commit); keeps any that fail, for a retry,
  /// and returns the first failure.
  Status FreeMovedSlots();

  uint32_t id_;
  ShardOptions options_;
  /// Declared before db_ so it outlives it: the stats are registered in
  /// db_'s MetricsRegistry (Shard::Open), whose entries point in here.
  ShardStats stats_;
  std::unique_ptr<Database> db_;
  Table* table_ = nullptr;  // owned by db_
  uint64_t rows_ = 0;
  std::string keys_;  ///< GetBatch's encoded keys, reused across calls
  /// When FlushIfDue last ran a pass (the epoch until the first).
  std::chrono::steady_clock::time_point last_flush_{};

  // ---- Durability (all owner-thread only) ---------------------------------
  /// Owns its own file descriptor over the `.wal` sidecar, independent of
  /// db_.
  std::unique_ptr<Wal> wal_;
  /// Old slots of rows moved since the last WAL commit, still live.
  std::vector<Rid> moved_from_;
  uint64_t sb_version_ = 0;           ///< last published superblock version
  uint64_t checkpoint_lsn_ = 0;       ///< recovery LSN of that superblock
  bool durable_ = false;              ///< options_.wal_enabled, cached
  bool skip_clean_close_ = false;     ///< SimulateCrashForTest()
  bool recovered_ = false;
  uint64_t replayed_records_ = 0;
};

}  // namespace nblb
