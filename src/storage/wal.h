// Wal: per-shard write-ahead log with CRC-framed records, LSN sequencing,
// and group commit.
//
// Records are logical (key-level PUT/DELETE), appended to an in-memory
// pending buffer by the shard worker as it serves its service group, and
// made durable in one Commit() per group: one pwrite of exactly the pending
// bytes on the log's own buffered file descriptor, then one fdatasync.
// Writes ack to clients only after their group's Commit() returns.
//
// Layout: a commit's records start at the durable tail when all of them fit
// in the tail page's free space; otherwise they start at the next page
// boundary and the skipped remainder of the tail page stays zero. So a
// commit of up to one page writes into one page. Records of a commit larger
// than a page pack across its pages.
//
// Invariant: every byte past the durable tail is zero on disk. A commit
// that needs new pages first zero-extends the file with one vectored write
// (which fails, under a full disk or a file-size limit, before any record
// lands; the file is then trimmed back). Reset starts a fresh file. A Wal
// opened over a torn tail restores the invariant before its first commit:
// it zeroes the tail page past the tail, truncates the file after that page
// and fdatasyncs. An open that only replays writes nothing.
//
// Scanner (Open/Replay): walks records from the start. A record is valid
// when its length is plausible, its CRC matches, its op is known and its
// LSN exceeds the last one. Where no valid record starts inside a page
// (the zero gap a commit skipped, or a torn remnant), the scanner tries
// the next page boundary once and goes on only if a valid record with
// LSN = last + 1 starts there. Where that try fails, or no valid record
// starts at a page boundary, the log ends and its tail is logically
// truncated. Because bytes past the tail are zero, and a Wal over a torn
// tail drops everything after the tail page before it writes, nothing but
// the next commit can start at that boundary.
//
// Torn-write safety: no user-space copy of the tail page is rewritten. A
// commit's pwrite changes only bytes past the durable tail; the kernel
// writes the whole tail page back from the page cache, whose bytes before
// the tail are the durable ones. A torn page write leaves each sector old
// or new, and the two agree before the tail, so a torn commit damages only
// bytes past the durable watermark.
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

#include "common/result.h"
#include "common/slice.h"

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
  /// A file whose size is not a page multiple fails with Corruption.
  static Result<std::unique_ptr<Wal>> Open(std::string path,
                                           WalOptions options);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// \brief Buffers one record and returns its LSN. Nothing is durable
  /// until Commit(). Fails with the sticky error after a commit failure.
  Result<uint64_t> Append(Op op, uint64_t key, const Slice& payload);

  /// \brief Group commit: makes every pending record durable (one pwrite
  /// of the pending bytes + one fdatasync). No-op when nothing is pending.
  Status Commit();

  /// \brief Re-delivers every durable record with lsn > from_lsn, in LSN
  /// order. The Record::payload slice is only valid inside the callback.
  Status Replay(uint64_t from_lsn,
                const std::function<Status(const Record&)>& fn) const;

  /// \brief Discards the log (truncates the file to empty) after a
  /// checkpoint made its records redundant. LSN sequencing continues; any
  /// pending (uncommitted) records are dropped by design — callers commit
  /// first. Clears a sticky error only if the truncate succeeds.
  Status Reset();

  bool HasPending() const { return !pending_.empty(); }
  uint64_t next_lsn() const { return next_lsn_; }
  /// \brief LSN of the last durable record (0 when the log is empty).
  uint64_t durable_lsn() const { return durable_lsn_; }
  /// \brief File offset just past the last durable record.
  uint64_t durable_bytes() const { return durable_bytes_; }
  const std::string& path() const { return path_; }

  /// \brief Publishes wal.* counters under `prefix` (e.g. "wal."). The
  /// registry must not outlive this Wal.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  Wal(std::string path, WalOptions options);

  /// Opens the file and scans for the durable tail.
  Status OpenAndScan();

  /// Streaming scan of the durable prefix: calls fn for each intact record
  /// and returns the byte offset and last LSN of the valid tail. A null fn
  /// just finds the tail.
  Status Scan(const std::function<Status(const Record&)>& fn,
              uint64_t* tail_bytes, uint64_t* tail_lsn) const;

  /// Restores the zero-past-tail invariant over a torn tail: zeroes the
  /// tail page past the durable tail, truncates the file after that page
  /// and fdatasyncs.
  Status ZeroPastTail();
  /// Grows the file to `pages` pages with one vectored zero write; trims
  /// it back if the write fails.
  Status Extend(uint64_t pages);

  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  uint64_t file_pages_ = 0;  ///< file length in pages

  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t durable_bytes_ = 0;
  std::string pending_;  ///< framed records awaiting Commit
  /// Set by Open when a byte past the durable tail may be nonzero; the
  /// first commit runs ZeroPastTail.
  bool torn_tail_ = false;
  Status sticky_error_;

  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> bytes_appended{0};
    /// Pages the commits wrote records into.
    std::atomic<uint64_t> commit_pages{0};
    /// Wall-clock microseconds the owning worker spent inside Commit()
    /// (write + fdatasync). commit_micros / commits is the mean
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
