// Observability stack tests: the sample-based Histogram (re-homed from
// common_test when common/histogram.h folded into obs/), the LogHistogram
// quantile API, MetricsRegistry snapshot/delta/merge/JSON, the TraceContext
// span accumulator + TraceAggregator ring, and the flight-recorder event
// ring (wraparound + concurrent-writer integrity).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_ring.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nblb {
namespace {

// ---- Histogram (sample-based) ----------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 100u);
  EXPECT_EQ(h.Percentile(50.0), 51u);  // nearest rank: round(0.5 * 99) = 50
  EXPECT_EQ(h.Percentile(99.0), 99u);
  EXPECT_EQ(h.Percentile(100.0), 100u);
  // Unified quantile API: q in [0,1] mirrors Percentile(q*100).
  EXPECT_EQ(h.ValueAtQuantile(0.50), h.Percentile(50.0));
  EXPECT_EQ(h.ValueAtQuantile(0.99), h.Percentile(99.0));
  EXPECT_NE(h.Summary().find("count=100"), std::string::npos);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(50.0), 0u);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Record(7);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50.0), 0u);
}

// ---- LogHistogram -----------------------------------------------------------

TEST(LogHistogramTest, QuantileApiMatchesApproxPercentile) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  LogHistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 1000u);
  EXPECT_EQ(snap.ValueAtQuantile(0.50), snap.ApproxPercentile(0.50));
  EXPECT_EQ(snap.ValueAtQuantile(0.99), snap.ApproxPercentile(0.99));
  // Power-of-two buckets: the answer is an upper bound of the right bucket.
  EXPECT_GE(snap.ValueAtQuantile(0.50), 500u);
  EXPECT_GE(snap.ApproxMax(), 1000u);
}

TEST(LogHistogramTest, SnapshotSubtractIsolatesAPhase) {
  LogHistogram h;
  h.Record(5);
  h.Record(5);
  LogHistogramSnapshot before = h.Snapshot();
  h.Record(5);
  LogHistogramSnapshot delta = h.Snapshot();
  delta -= before;
  EXPECT_EQ(delta.count(), 1u);
}

// ---- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotReadsCountersGaugesHistograms) {
  std::atomic<uint64_t> hits{40};
  LogHistogram lat;
  lat.Record(10);
  lat.Record(20);

  MetricsRegistry reg;
  reg.RegisterCounter("pool.hits", &hits);
  reg.RegisterCounterFn("pool.misses", [] { return uint64_t{2}; });
  reg.RegisterGauge("pool.hit_rate", [] { return 0.95; });
  reg.RegisterHistogram("pool.latency_us", &lat);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("pool.hits"), 40u);
  EXPECT_EQ(snap.counters.at("pool.misses"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("pool.hit_rate"), 0.95);
  EXPECT_EQ(snap.histograms.at("pool.latency_us").count(), 2u);

  // Live pointer semantics: later snapshots see later counter values.
  hits.fetch_add(2, std::memory_order_relaxed);
  EXPECT_EQ(reg.Snapshot().counters.at("pool.hits"), 42u);
}

TEST(MetricsRegistryTest, DeltaSubtractsCountersAndHistogramsOnly) {
  std::atomic<uint64_t> ops{10};
  LogHistogram lat;
  lat.Record(1);
  MetricsRegistry reg;
  reg.RegisterCounter("ops", &ops);
  reg.RegisterGauge("level", [&] {
    return static_cast<double>(ops.load(std::memory_order_relaxed));
  });
  reg.RegisterHistogram("lat", &lat);

  MetricsSnapshot before = reg.Snapshot();
  ops.store(25, std::memory_order_relaxed);
  lat.Record(2);
  lat.Record(3);
  MetricsSnapshot delta = reg.Snapshot() - before;
  EXPECT_EQ(delta.counters.at("ops"), 15u);
  EXPECT_EQ(delta.histograms.at("lat").count(), 2u);
  // Gauges are levels, not totals: the delta keeps the later value.
  EXPECT_DOUBLE_EQ(delta.gauges.at("level"), 25.0);
}

TEST(MetricsRegistryTest, MergePrefixesEveryName) {
  std::atomic<uint64_t> reads{7};
  MetricsRegistry db;
  db.RegisterCounter("disk.reads", &reads);

  MetricsSnapshot engine;
  engine.counters["engine.batches"] = 1;
  engine.Merge(db.Snapshot(), "shard3.");
  EXPECT_EQ(engine.counters.at("shard3.disk.reads"), 7u);
  EXPECT_EQ(engine.counters.at("engine.batches"), 1u);

  // Merging a second shard with the same names accumulates counters.
  engine.Merge(db.Snapshot(), "shard3.");
  EXPECT_EQ(engine.counters.at("shard3.disk.reads"), 14u);
}

TEST(MetricsRegistryTest, ToJsonEmitsOneStructuredDocument) {
  std::atomic<uint64_t> c{3};
  LogHistogram h;
  h.Record(4);
  MetricsRegistry reg;
  reg.RegisterCounter("a.count", &c);
  reg.RegisterGauge("a.rate", [] { return 0.5; });
  reg.RegisterHistogram("a.lat", &h);

  const std::string json = reg.Snapshot().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\": {\"a.count\": 3}"), std::string::npos);
  EXPECT_NE(json.find("\"a.rate\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"a.lat\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
}

TEST(ObsEnabledTest, DefaultsOnWithoutEnvOverride) {
  // The test harness never sets NBLB_OBS_OFF, so the cached value is true.
  EXPECT_TRUE(ObsEnabled());
}

// ---- TraceContext / TraceAggregator ----------------------------------------

TEST(TraceTest, TimerAttributesToActiveContextOnly) {
  {
    // No active trace: timers are a no-op.
    TraceTimer t(TracePhase::kGetBatch);
  }
  TraceContext ctx;
  ctx.enqueued = std::chrono::steady_clock::now();
  {
    ActiveTraceScope scope(&ctx);
    TraceTimer t(TracePhase::kGetBatch);
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
  const size_t i = static_cast<size_t>(TracePhase::kGetBatch);
  EXPECT_NE(ctx.first_start_ns[i], UINT64_MAX);
  const size_t j = static_cast<size_t>(TracePhase::kCopy);
  EXPECT_EQ(ctx.first_start_ns[j], UINT64_MAX);
}

TEST(TraceTest, AggregatorRetiresIntoHistogramsAndRing) {
  TraceAggregator agg;
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < 3; ++k) {
    TraceContext ctx;
    ctx.trace_id = static_cast<uint64_t>(k);
    ctx.enqueued = t0;
    ctx.AddSpan(TracePhase::kQueueWait, t0, t0 + std::chrono::microseconds(5));
    ctx.AddSpan(TracePhase::kService, t0 + std::chrono::microseconds(5),
                t0 + std::chrono::microseconds(9));
    agg.Retire(ctx, t0 + std::chrono::microseconds(9));
  }
  EXPECT_EQ(agg.sampled(), 3u);

  MetricsRegistry reg;
  agg.RegisterMetrics(&reg, "trace.");
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("trace.sampled"), 3u);
  EXPECT_EQ(snap.histograms.at("trace.queue_wait_us").count(), 3u);
  EXPECT_EQ(snap.histograms.at("trace.service_us").count(), 3u);
  EXPECT_EQ(snap.histograms.at("trace.end_to_end_us").count(), 3u);
  // Never-entered phases contribute nothing.
  EXPECT_EQ(snap.histograms.at("trace.device_wait_us").count(), 0u);

  const std::vector<TraceSummary> recent = agg.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent.front().trace_id, 0u);  // oldest first
  EXPECT_EQ(recent.back().trace_id, 2u);
}

// ---- EventRing --------------------------------------------------------------

TEST(EventRingTest, WraparoundKeepsTheMostRecentWindow) {
  EventRing ring;
  const uint64_t total = EventRing::kSlots * 3 + 17;
  for (uint64_t i = 0; i < total; ++i) {
    ring.Record(FlightEvent::kChunkHalve, i, i * 2, i * 10);
  }
  std::vector<FlightEventRecord> events = ring.Snapshot();
  ASSERT_EQ(events.size(), EventRing::kSlots);
  // Oldest surviving event is exactly kSlots back from the newest.
  EXPECT_EQ(events.front().seq, total - EventRing::kSlots);
  EXPECT_EQ(events.back().seq, total - 1);
  for (size_t k = 0; k < events.size(); ++k) {
    const FlightEventRecord& e = events[k];
    if (k > 0) EXPECT_EQ(e.seq, events[k - 1].seq + 1);
    EXPECT_EQ(e.code, FlightEvent::kChunkHalve);
    EXPECT_EQ(e.arg0, e.seq);
    EXPECT_EQ(e.arg1, e.seq * 2);
    EXPECT_EQ(e.ts_us, e.seq * 10);
  }
}

TEST(EventRingTest, ConcurrentReadersNeverSeeTornEvents) {
  // A writer records bursts (payload fields are functions of the sequence
  // number) while readers snapshot concurrently: every record a snapshot
  // returns must be internally consistent — the seqlock drops slots that
  // were overwritten mid-copy rather than returning torn payloads. Between
  // bursts the writer stops, and then every reader's snapshot must return
  // every live slot. That check cannot pass vacuously, whichever thread
  // outruns the other during a burst. TSan-clean.
  EventRing ring;
  constexpr int kReaders = 3;
  const auto check = [](const std::vector<FlightEventRecord>& events) {
    for (size_t k = 0; k < events.size(); ++k) {
      const FlightEventRecord& e = events[k];
      ASSERT_EQ(e.code, FlightEvent::kChunkHalve);
      ASSERT_EQ(e.arg0, e.ts_us * 3);
      ASSERT_EQ(e.arg1, e.ts_us ^ 0xabcdef);
      if (k > 0) {
        ASSERT_GT(e.seq, events[k - 1].seq);
      }
    }
  };
  uint64_t recorded = 0;  // the writer's count; read only between bursts
  for (int burst = 0; burst < 5; ++burst) {
    std::atomic<bool> stop{false};
    std::atomic<bool> started{false};
    std::thread writer([&] {
      for (uint64_t i = recorded; !stop.load(std::memory_order_relaxed);
           ++i) {
        ring.Record(FlightEvent::kChunkHalve, i * 3, i ^ 0xabcdef, i);
        recorded = i + 1;
        started.store(true, std::memory_order_release);
      }
    });
    while (!started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        for (int iter = 0; iter < 200; ++iter) check(ring.Snapshot());
      });
    }
    for (auto& t : readers) t.join();
    stop.store(true, std::memory_order_relaxed);
    writer.join();

    // The writer is stopped: each reader sees the newest kSlots events
    // (or all of them), every one validated, ending at the last recorded.
    const size_t live = std::min<uint64_t>(recorded, EventRing::kSlots);
    readers.clear();
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        const std::vector<FlightEventRecord> events = ring.Snapshot();
        ASSERT_EQ(events.size(), live) << "burst " << burst;
        EXPECT_EQ(events.back().seq, recorded - 1);
        EXPECT_EQ(events.front().seq, recorded - live);
        check(events);
      });
    }
    for (auto& t : readers) t.join();
  }
}

TEST(FlightRecorderTest, RecordsPerThreadAndDumps) {
  FlightRecorder& rec = FlightRecorder::Instance();
  ASSERT_TRUE(rec.enabled());
  RecordFlightEvent(FlightEvent::kBusyReject, 3, 9);
  std::thread other(
      [] { RecordFlightEvent(FlightEvent::kCapacityWait, 1, 4); });
  other.join();
  EXPECT_GE(rec.ring_count(), 2u);  // this thread + the joined one

  bool saw_busy = false;
  bool saw_wait = false;
  for (const auto& ring : rec.SnapshotAll()) {
    for (const auto& e : ring) {
      if (e.code == FlightEvent::kBusyReject && e.arg0 == 3 && e.arg1 == 9) {
        saw_busy = true;
      }
      if (e.code == FlightEvent::kCapacityWait && e.arg0 == 1 && e.arg1 == 4) {
        saw_wait = true;
      }
    }
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_wait);  // ring survives its owning thread's exit

  const std::string dump = rec.Dump();
  EXPECT_NE(dump.find("busy_reject"), std::string::npos);
  EXPECT_NE(dump.find("capacity_wait"), std::string::npos);

  // Kill switch: disabled recorders drop events entirely.
  rec.set_enabled(false);
  const auto before = rec.SnapshotAll();
  RecordFlightEvent(FlightEvent::kIoError, 77);
  const auto after = rec.SnapshotAll();
  size_t count_before = 0, count_after = 0;
  for (const auto& ring : before) count_before += ring.size();
  for (const auto& ring : after) count_after += ring.size();
  EXPECT_EQ(count_before, count_after);
  rec.set_enabled(true);
}

}  // namespace
}  // namespace nblb
