// Wal: per-shard write-ahead log with CRC-framed records, LSN sequencing,
// and group commit over the async-write path.
//
// Records are logical (key-level PUT/DELETE), appended to an in-memory
// pending buffer by the shard worker as it serves its service group, and
// made durable in one Commit() per group: the pending bytes are laid out
// into page images, put in flight through DiskManager::SubmitWrites (one
// vectored write for the whole contiguous tail run, io_uring or the worker
// pool — the same machinery the flusher rides), and fsynced once. Writes
// ack to clients only after their group's Commit() returns.
//
// Torn-tail safety: the first page image of every commit starts from the
// in-memory copy of the current tail page, so the already-durable prefix
// bytes are rewritten bit-identical — a torn or short rewrite can corrupt
// only bytes past the durable watermark. The scanner (Open/Replay) walks
// records from the start and stops at the first zero length, implausible
// length, CRC mismatch, or non-monotonic LSN, logically truncating the tail
// there.
//
// Failure model: any append/commit I/O error is STICKY. A WAL that failed
// to make a group durable cannot accept later groups (their ordering
// guarantee would be built on a hole), so every subsequent Append/Commit
// returns the original error; recovery is a reopen, which re-scans the
// durable prefix.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/disk_manager.h"

namespace nblb {

class MetricsRegistry;

/// \brief Tuning for a shard WAL.
struct WalOptions {
  size_t page_size = 8192;
};

/// \brief A write-ahead log over one file. Single-writer (the owning shard
/// worker); Replay runs before the shard serves traffic.
class Wal {
 public:
  /// Logical operation carried by a record.
  enum class Op : uint8_t {
    kPut = 1,     ///< upsert of `payload` (a row image) at `key`; shards
                  ///< log trimmed images, see RowCodec
    kDelete = 2,  ///< delete of `key` (payload empty)
  };

  /// One decoded log record.
  struct Record {
    uint64_t lsn = 0;
    Op op = Op::kPut;
    uint64_t key = 0;
    Slice payload;  ///< valid only during the Replay callback
  };

  /// \brief Log path for a data file: "<db_path>.wal".
  static std::string PathFor(const std::string& db_path);

  /// \brief Opens (or creates) the log and scans it to find the valid tail:
  /// durable_bytes/durable_lsn point past the last intact record and
  /// next_lsn continues the sequence. Torn tails are logically truncated.
  static Result<std::unique_ptr<Wal>> Open(std::string path,
                                           WalOptions options);

  ~Wal();

  /// \brief Buffers one record and returns its LSN. Nothing is durable
  /// until Commit(). Fails with the sticky error after a commit failure.
  Result<uint64_t> Append(Op op, uint64_t key, const Slice& payload);

  /// \brief Group commit: makes every pending record durable (vectored
  /// write of the tail pages + one fsync). No-op when nothing is pending.
  Status Commit();

  /// \brief Re-delivers every durable record with lsn > from_lsn, in LSN
  /// order. The Record::payload slice is only valid inside the callback.
  Status Replay(uint64_t from_lsn,
                const std::function<Status(const Record&)>& fn) const;

  /// \brief Discards the log (close + remove + recreate) after a
  /// checkpoint made its records redundant. LSN sequencing continues; any
  /// pending (uncommitted) records are dropped by design — callers commit
  /// first. Clears a sticky error only if the recreate succeeds.
  Status Reset();

  bool HasPending() const { return !pending_.empty(); }
  uint64_t next_lsn() const { return next_lsn_; }
  /// \brief LSN of the last durable record (0 when the log is empty).
  uint64_t durable_lsn() const { return durable_lsn_; }
  uint64_t durable_bytes() const { return durable_bytes_; }
  const std::string& path() const { return path_; }

  /// \brief Publishes wal.* counters under `prefix` (e.g. "wal."). The
  /// registry must not outlive this Wal.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  Wal(std::string path, WalOptions options);

  /// (Re)creates and opens the log's own DiskManager.
  Status OpenDisk();
  /// Opens the backing DiskManager and scans for the durable tail.
  Status OpenAndScan();

  /// Streaming scan of the durable prefix: calls fn for each intact record
  /// and returns the byte offset and last LSN of the valid tail. A null fn
  /// just finds the tail.
  Status Scan(const std::function<Status(const Record&)>& fn,
              uint64_t* tail_bytes, uint64_t* tail_lsn,
              uint64_t* truncated_bytes) const;

  std::string path_;
  WalOptions options_;
  std::unique_ptr<DiskManager> disk_;

  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t durable_bytes_ = 0;
  uint64_t pending_first_lsn_ = 0;
  std::string pending_;  ///< framed records awaiting Commit
  /// In-memory image of the current (partially filled) tail page; its
  /// durable prefix is rewritten verbatim by the next commit.
  std::string tail_page_;
  Status sticky_error_;

  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> bytes_appended{0};
    std::atomic<uint64_t> commit_pages{0};
    /// Wall-clock microseconds the owning worker spent inside Commit()
    /// (page build + write + fsync). commit_micros / commits is the mean
    /// group-commit stall; against elapsed time it bounds the serve-path
    /// durability overhead.
    std::atomic<uint64_t> commit_micros{0};
    std::atomic<uint64_t> replayed_records{0};
    std::atomic<uint64_t> truncated_bytes{0};
    std::atomic<uint64_t> append_failures{0};
    std::atomic<uint64_t> resets{0};
  };
  mutable Counters counters_;
};

}  // namespace nblb
