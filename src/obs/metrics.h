// MetricsRegistry: one named catalogue over the engine's hand-rolled stats.
//
// Design: components keep owning their counters as plain relaxed atomics —
// the update path stays exactly as cheap as before (one relaxed add, no
// indirection, no locks). The registry only stores *pointers* (or reader
// callbacks) under stable dotted names, so registration is a one-time,
// mutex-guarded step at component construction and the hot path never sees
// the registry at all.
//
// Snapshot model: `Snapshot()` walks the catalogue and copies every value
// into a plain-data `MetricsSnapshot`. Snapshots subtract (`operator-`) to
// isolate a measurement phase, merge under a prefix (for the engine to fold
// per-shard Database registries into one document), and serialize to a
// single JSON document consumed by the benches and
// scripts/check_bench_regression.py.
//
// The registry is the one read API for the counters registered in it: no
// component keeps a second plain-value stats struct or a reset call.
// Readers take a snapshot, read names with Total()/TotalHistogram(), and
// subtract an earlier snapshot where they once reset.
//
// Lifetime rule: a registry must not outlive the objects whose counters it
// points at. Database and ShardedEngine own their registries alongside the
// components registered into them and never snapshot during destruction.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace nblb {

/// \brief Global observability kill switch: false when NBLB_OBS_OFF is set
/// to a non-empty, non-"0" value in the environment (checked once). Gates
/// trace sampling and flight recording; the metrics registry itself stays on
/// (its cost is registration-time only).
bool ObsEnabled();

/// \brief Adds `n` to a counter that one owner thread writes and a registry
/// reader on another thread reads: a plain relaxed load and store, no locked
/// read-modify-write. BufferPool and DiskManager count this way.
inline void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

/// \brief Plain-data copy of every registered metric at one point in time.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LogHistogramSnapshot> histograms;

  /// \brief Subtracts an earlier snapshot counter-by-counter (gauges keep
  /// this snapshot's value — they are levels, not monotonic totals).
  MetricsSnapshot& operator-=(const MetricsSnapshot& earlier);
  friend MetricsSnapshot operator-(MetricsSnapshot later,
                                   const MetricsSnapshot& earlier) {
    later -= earlier;
    return later;
  }

  /// \brief Folds `other` into this snapshot with every name prefixed, e.g.
  /// Merge(shard_db_snapshot, "shard3.") yields "shard3.disk.reads".
  void Merge(const MetricsSnapshot& other, const std::string& prefix);

  /// \brief Counter `name` summed over every scope it was merged under:
  /// Total("disk.reads") adds "disk.reads", "shard0.disk.reads",
  /// "shard1.disk.reads", ...; a full name ("shard1.disk.reads") reads one
  /// scope. Aborts when no counter matches — a misspelt name is a bug, not
  /// a zero.
  uint64_t Total(const std::string& name) const;
  /// \brief Total() for a histogram: the bucket-wise sum over scopes.
  LogHistogramSnapshot TotalHistogram(const std::string& name) const;

  /// \brief One structured JSON document:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,p50,p90,
  /// p99,max,buckets:[...]}}}
  std::string ToJson() const;
};

/// \brief Named catalogue of counters, gauges, and histograms. Registration
/// is mutex-guarded; reads (Snapshot) are mutex-guarded; metric *updates*
/// never touch the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief Registers a monotonic counter read directly from `counter`
  /// (relaxed load at snapshot time). `counter` must outlive the registry.
  void RegisterCounter(std::string name, const std::atomic<uint64_t>* counter);

  /// \brief Registers a monotonic counter computed by `read` at snapshot
  /// time (for derived values, such as a sum over several counters).
  void RegisterCounterFn(std::string name, std::function<uint64_t()> read);

  /// \brief Registers a point-in-time level (ratio, occupancy, ...).
  void RegisterGauge(std::string name, std::function<double()> read);

  /// \brief Registers a live LogHistogram; snapshot copies its buckets.
  void RegisterHistogram(std::string name, const LogHistogram* hist);

  MetricsSnapshot Snapshot() const;

 private:
  struct CounterEntry {
    std::string name;
    const std::atomic<uint64_t>* direct = nullptr;  // exactly one of
    std::function<uint64_t()> read;                 // these two is set
  };
  struct GaugeEntry {
    std::string name;
    std::function<double()> read;
  };
  struct HistEntry {
    std::string name;
    const LogHistogram* hist;
  };

  mutable std::mutex mu_;
  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistEntry> hists_;
};

}  // namespace nblb
