// Sampled request tracing for the sharded serving stack.
//
// A 1-in-N sampler (ShardedEngineOptions::trace_sample_every) stamps a
// TraceContext onto sub-batches at Submit. The context rides the sub-batch
// through the shard queue; the shard worker that serves the group installs
// it as the thread-local "active trace" for the duration of RunGroup, and
// the storage layers (Shard::GetBatch, BufferPool::StartFetchPages /
// FinishFetchPages, DiskManager submit/wait, HeapFile's tuple-copy loop)
// attribute their span durations to it via TraceTimer. The result is a
// per-request end-to-end latency breakdown: queue wait vs service vs device
// time vs copy time.
//
// Overhead contract (the "provably near-zero" story):
//   - Unsampled sub-batches carry a null pointer; the only per-sub-batch
//     cost of tracing being *on* is one relaxed fetch_add in the sampler.
//   - Instrumented call sites construct a TraceTimer, which is one
//     thread_local load and a null check — the clock is read only when a
//     sampled trace is active on this thread. With tracing off (sample_every
//     == 0 or NBLB_OBS_OFF) no TraceContext ever exists, so every timer is
//     the null branch.
//   - The buffer-pool hit path (TryOptimisticHit / FetchPage hits) carries
//     no instrumentation at all.
//
// Ownership/threading: a TraceContext is written by one thread at a time —
// the submitting client stamps enqueue, then ownership transfers to the
// shard worker through the queue mutex, and the worker retires it into the
// TraceAggregator before completing the ticket. Plain (non-atomic) fields
// are therefore correct and TSan-clean.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace nblb {

class MetricsRegistry;

/// \brief Phases of a traced sub-batch's life. Order matches the request
/// pipeline; used to index the per-phase arrays below.
enum class TracePhase : uint8_t {
  kQueueWait = 0,   // Submit enqueue -> worker dequeue
  kService,         // worker dequeue -> results written
  kGetBatch,        // inside Shard::GetBatch
  kFetchStart,      // BufferPool::StartFetchPages (claim + submit)
  kIoSubmit,        // DiskManager submit (io_uring push/flush or queue)
  kDeviceWait,      // DiskManager wait/reap for the read group
  kCopy,            // HeapFile::GetBatch: read + decode under the pin
};
constexpr size_t kNumTracePhases = 7;

const char* TracePhaseName(TracePhase p);

/// \brief Per-request span accumulator. Single-writer (see file comment).
struct TraceContext {
  uint64_t trace_id = 0;
  /// Wall origin of the trace: stamped at Submit, before queue publication.
  std::chrono::steady_clock::time_point enqueued{};

  /// First time each phase started, as ns offsets from `enqueued`;
  /// UINT64_MAX = phase never entered. Used by the span-ordering test and
  /// the recent-trace ring.
  uint64_t first_start_ns[kNumTracePhases];
  /// Total time spent in each phase, ns (a phase can run more than once per
  /// sub-batch, e.g. one GetBatch per coalesced run).
  uint64_t total_ns[kNumTracePhases];

  TraceContext() {
    for (size_t i = 0; i < kNumTracePhases; ++i) {
      first_start_ns[i] = UINT64_MAX;
      total_ns[i] = 0;
    }
  }

  void AddSpan(TracePhase phase, std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
    const size_t i = static_cast<size_t>(phase);
    const auto start_off =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - enqueued)
            .count();
    const uint64_t start_ns =
        start_off > 0 ? static_cast<uint64_t>(start_off) : 0;
    if (start_ns < first_start_ns[i]) first_start_ns[i] = start_ns;
    total_ns[i] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  }
};

/// \brief Plain-data summary of a retired trace, kept in the aggregator's
/// recent ring for tests and ad-hoc inspection.
struct TraceSummary {
  uint64_t trace_id = 0;
  uint64_t first_start_ns[kNumTracePhases];
  uint64_t total_ns[kNumTracePhases];
  uint64_t end_to_end_us = 0;
};

/// \brief Thread-local active trace. Storage layers read this through
/// TraceTimer; the shard worker installs it via ActiveTraceScope.
TraceContext*& ActiveTrace();

/// \brief RAII: installs `ctx` (may be null) as this thread's active trace,
/// restoring the previous value on destruction.
class ActiveTraceScope {
 public:
  explicit ActiveTraceScope(TraceContext* ctx)
      : prev_(ActiveTrace()) {
    ActiveTrace() = ctx;
  }
  ~ActiveTraceScope() { ActiveTrace() = prev_; }
  ActiveTraceScope(const ActiveTraceScope&) = delete;
  ActiveTraceScope& operator=(const ActiveTraceScope&) = delete;

 private:
  TraceContext* prev_;
};

/// \brief RAII span timer: reads the clock only when a trace is active on
/// this thread (one TLS load + branch otherwise).
class TraceTimer {
 public:
  explicit TraceTimer(TracePhase phase)
      : ctx_(ActiveTrace()), phase_(phase) {
    if (ctx_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~TraceTimer() {
    if (ctx_ != nullptr) {
      ctx_->AddSpan(phase_, start_, std::chrono::steady_clock::now());
    }
  }
  TraceTimer(const TraceTimer&) = delete;
  TraceTimer& operator=(const TraceTimer&) = delete;

 private:
  TraceContext* ctx_;
  TracePhase phase_;
  std::chrono::steady_clock::time_point start_{};
};

/// \brief Sink for retired traces: per-phase LogHistograms (microseconds,
/// registered with the engine's MetricsRegistry under "trace.") plus a
/// small mutex-guarded ring of recent TraceSummary records.
class TraceAggregator {
 public:
  static constexpr size_t kRecent = 64;

  TraceAggregator() = default;

  /// \brief Retires a completed trace: folds each entered phase into its
  /// microsecond histogram and appends a summary to the recent ring.
  void Retire(const TraceContext& ctx,
              std::chrono::steady_clock::time_point end);

  /// \brief Registers the per-phase histograms plus "trace.sampled" under
  /// `prefix` (e.g. "trace.").
  void RegisterMetrics(MetricsRegistry* registry, const std::string& prefix);

  /// \brief Most recent retired traces, oldest first.
  std::vector<TraceSummary> Recent() const;

  uint64_t sampled() const {
    return sampled_.load(std::memory_order_relaxed);
  }

 private:
  LogHistogram phase_us_[kNumTracePhases];
  LogHistogram end_to_end_us_;
  std::atomic<uint64_t> sampled_{0};

  mutable std::mutex mu_;
  TraceSummary recent_[kRecent];
  size_t recent_count_ = 0;  // total ever retired; ring index = count % kRecent
};

}  // namespace nblb
