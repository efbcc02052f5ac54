// Per-shard operation counters, safe to read while a worker is serving.
//
// Counters use memory_order_relaxed throughout: each one is an independent
// monotonic event count, never used to publish other memory, so there is no
// acquire/release pairing to preserve — relaxed keeps the serving path at a
// plain atomic add. A registry snapshot taken while workers run is a
// consistent per-counter view but may straddle an in-flight operation;
// totals are exact once the engine's workers are quiesced (thread join
// synchronizes-with all their prior writes).
//
// The log-bucket histograms (queue depth, coalesced group size, sub-batch
// latency) live in obs/histogram.h and follow the same discipline: each
// bucket is an independent relaxed counter, so recording a sample is one
// atomic add and snapshots are cheap.
//
// Reading: RegisterMetrics() publishes every counter and histogram into
// the unified MetricsRegistry (see src/obs/) under "shard."; the registry's
// snapshots are the one read API (Database::metrics() for one shard,
// ShardedEngine::MetricsSnapshotNow() for all of them).

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/histogram.h"
#include "obs/metrics.h"

namespace nblb {

/// \brief Live counters, written by the shard's owning worker thread and
/// readable from any thread.
struct ShardStats {
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> projected_gets{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> not_found{0};
  std::atomic<uint64_t> errors{0};            ///< non-NotFound failures
  std::atomic<uint64_t> sub_batches{0};       ///< batch fragments executed
  std::atomic<uint64_t> batch_gets{0};  ///< gets served by the batched path
  std::atomic<uint64_t> coalesced_groups{0};  ///< service groups

  /// Shard-queue depth observed at each service-group pop.
  LogHistogram queue_depth;
  /// Sub-batches coalesced into each service group.
  LogHistogram coalesced;
  /// Per-sub-batch latency, enqueue to results written, in microseconds.
  LogHistogram sub_batch_latency_us;

  void Add(std::atomic<uint64_t>& c, uint64_t n = 1) {
    c.fetch_add(n, std::memory_order_relaxed);
  }

  /// \brief Publishes every counter/histogram under `prefix` (e.g.
  /// "shard."). The registry must not outlive this object.
  void RegisterMetrics(MetricsRegistry* registry,
                       const std::string& prefix) const {
    registry->RegisterCounter(prefix + "gets", &gets);
    registry->RegisterCounter(prefix + "projected_gets", &projected_gets);
    registry->RegisterCounter(prefix + "inserts", &inserts);
    registry->RegisterCounter(prefix + "updates", &updates);
    registry->RegisterCounter(prefix + "deletes", &deletes);
    registry->RegisterCounter(prefix + "not_found", &not_found);
    registry->RegisterCounter(prefix + "errors", &errors);
    registry->RegisterCounter(prefix + "sub_batches", &sub_batches);
    registry->RegisterCounter(prefix + "batch_gets", &batch_gets);
    registry->RegisterCounter(prefix + "coalesced_groups", &coalesced_groups);
    registry->RegisterHistogram(prefix + "queue_depth", &queue_depth);
    registry->RegisterHistogram(prefix + "coalesced", &coalesced);
    registry->RegisterHistogram(prefix + "sub_batch_latency_us",
                                &sub_batch_latency_us);
  }
};

}  // namespace nblb
