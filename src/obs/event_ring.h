// Flight recorder: fixed-size per-thread lock-free rings of compact binary
// events, dumpable on demand or on fatal error (via the common/logging.h
// fatal hook).
//
// The recorder captures the *rare* paths — chunk halvings, capacity
// waits, busy rejections, flusher passes, io errors — so
// that the next "bench hangs" or phantom-status bug is diagnosed from the
// recording instead of rediscovered by bisection. Hot paths (buffer-pool
// hits, queue pops) are never recorded.
//
// Concurrency model:
//   - Writer side: each thread owns one EventRing; Record() is a handful of
//     relaxed/release atomic stores into the thread's own ring. No locks, no
//     allocation after the first event on a thread, no cross-thread
//     contention.
//   - Reader side (Dump/Snapshot): any thread may read any ring while its
//     owner keeps writing. Every slot carries a sequence word written
//     release *after* the payload; a reader validates the sequence before
//     and after reading the payload (seqlock) and drops slots that were
//     overwritten mid-read. All cross-thread words are std::atomic, so the
//     scheme is TSan-clean by construction.
//   - Rings are registered in a global list as shared_ptr and survive their
//     owning thread's exit, so a dump always sees the full recent history.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nblb {

/// \brief Event codes recorded by the serving stack. Keep values stable —
/// they appear in dumps.
enum class FlightEvent : uint16_t {
  kNone = 0,
  // 1 and 2 were the buffer pool's transient claim-abort events, which only
  // another thread waiting on a load could see; unused.
  /// HeapFile::GetBatch halved its pipeline chunk size after a capacity
  /// miss. arg0 = new chunk capacity.
  kChunkHalve = 3,
  // 4 and 5 were the heap's and the B+Tree's retry events; unused.
  /// Engine Submit blocked waiting for shard-queue capacity.
  /// arg0 = shard, arg1 = queue size at wait.
  kCapacityWait = 6,
  /// Engine Submit failed a batch fail-fast because a shard queue was
  /// full (busy_fail_fast mode). arg0 = shard, arg1 = queue size.
  kBusyReject = 7,
  /// A flush pass (BufferPool::FlushColdPages) wrote pages. arg0 = pages
  /// flushed, arg1 = coalesced runs.
  kFlusherPass = 8,
  /// An async disk operation completed with an error. arg0 = page id.
  kIoError = 9,
  /// Write-back failed and the pages were re-marked dirty for retry.
  /// arg0 = pages re-dirtied.
  kRedirty = 10,
  /// Network admission control shed a request frame with a busy reply
  /// (per-connection or global in-flight cap). arg0 = connection id,
  /// arg1 = in-flight frames at shed time.
  kNetShed = 11,
  /// A connection's byte stream violated the framing protocol (garbage,
  /// oversized length prefix, malformed payload); the connection was
  /// closed. arg0 = connection id.
  kNetDecodeError = 12,
  /// The idle sweep closed a connection that had been quiet past
  /// idle_timeout_ms. arg0 = connection id, arg1 = idle milliseconds.
  kNetIdleClose = 13,
  /// A WAL commit failed to make a group durable; the log is poisoned
  /// until reopen. arg0 = first log page of the commit, arg1 = pending
  /// bytes in the failed group.
  kWalAppendError = 14,
  /// Shard::Open entered crash recovery (superblock says the shutdown was
  /// not clean). arg0 = shard id, arg1 = checkpoint LSN.
  kRecoveryStart = 15,
  /// Crash recovery finished. arg0 = WAL records replayed, arg1 = rows
  /// live after recovery.
  kRecoveryReplayed = 16,
  /// A durable checkpoint published a new superblock version.
  /// arg0 = superblock version, arg1 = checkpoint LSN.
  kCheckpoint = 17,
};

const char* FlightEventName(FlightEvent e);

/// \brief Decoded event, as returned by snapshots/dumps.
struct FlightEventRecord {
  uint64_t seq = 0;       // global per-ring sequence (monotonic)
  uint64_t ts_us = 0;     // microseconds since process start
  FlightEvent code = FlightEvent::kNone;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

/// \brief Fixed-size single-writer ring of events. All cross-thread state is
/// atomic; see file comment for the seqlock protocol.
class EventRing {
 public:
  static constexpr size_t kSlots = 256;  // power of two
  static constexpr uint64_t kSlotMask = kSlots - 1;

  /// \brief Writer-only: records one event. Must be called only by the
  /// owning thread.
  void Record(FlightEvent code, uint64_t arg0, uint64_t arg1, uint64_t ts_us);

  /// \brief Reader: copies out the surviving recent events, oldest first.
  /// Slots overwritten while being read are skipped.
  std::vector<FlightEventRecord> Snapshot() const;

 private:
  struct Slot {
    // seq == global_index + 1 once the payload below is fully written;
    // 0 while a write is in flight. Payload stores are relaxed, bracketed
    // by release stores of seq (invalidate, then publish).
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint64_t> code{0};
    std::atomic<uint64_t> arg0{0};
    std::atomic<uint64_t> arg1{0};
  };

  Slot slots_[kSlots];
  uint64_t next_ = 0;              // writer-private
  std::atomic<uint64_t> head_{0};  // published count, for readers
};

/// \brief Process-wide recorder: hands each thread its own EventRing and
/// dumps them all on demand. Disabled entirely (every Record is one relaxed
/// load + branch) when NBLB_OBS_OFF is set.
class FlightRecorder {
 public:
  static FlightRecorder& Instance();

  /// \brief Records an event into the calling thread's ring (creating and
  /// registering the ring on first use). No-op when disabled.
  void Record(FlightEvent code, uint64_t arg0 = 0, uint64_t arg1 = 0);

  /// \brief All surviving events across all rings, per ring oldest-first.
  std::vector<std::vector<FlightEventRecord>> SnapshotAll() const;

  /// \brief Human-readable dump of every ring ("[ring 0] seq=5 +12034us
  /// chunk_halve arg0=8 arg1=0" style), for on-demand diagnosis and the
  /// fatal-error hook.
  std::string Dump() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// \brief Number of per-thread rings registered so far.
  size_t ring_count() const;

 private:
  FlightRecorder();

  EventRing* RingForThisThread();
  uint64_t NowMicros() const;

  std::atomic<bool> enabled_{true};
  std::chrono::steady_clock::time_point origin_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<EventRing>> rings_;
};

/// \brief Convenience wrapper: FlightRecorder::Instance().Record(...).
inline void RecordFlightEvent(FlightEvent code, uint64_t arg0 = 0,
                              uint64_t arg1 = 0) {
  FlightRecorder::Instance().Record(code, arg0, arg1);
}

}  // namespace nblb
