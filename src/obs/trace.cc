#include "obs/trace.h"

#include "obs/metrics.h"

namespace nblb {

const char* TracePhaseName(TracePhase p) {
  switch (p) {
    case TracePhase::kQueueWait:
      return "queue_wait";
    case TracePhase::kService:
      return "service";
    case TracePhase::kGetBatch:
      return "get_batch";
    case TracePhase::kFetchStart:
      return "fetch_start";
    case TracePhase::kIoSubmit:
      return "io_submit";
    case TracePhase::kDeviceWait:
      return "device_wait";
    case TracePhase::kCopy:
      return "copy";
  }
  return "unknown";
}

TraceContext*& ActiveTrace() {
  thread_local TraceContext* active = nullptr;
  return active;
}

void TraceAggregator::Retire(const TraceContext& ctx,
                             std::chrono::steady_clock::time_point end) {
  sampled_.fetch_add(1, std::memory_order_relaxed);
  TraceSummary summary;
  summary.trace_id = ctx.trace_id;
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    summary.first_start_ns[i] = ctx.first_start_ns[i];
    summary.total_ns[i] = ctx.total_ns[i];
    if (ctx.first_start_ns[i] != UINT64_MAX) {
      phase_us_[i].Record(ctx.total_ns[i] / 1000);
    }
  }
  const auto e2e = std::chrono::duration_cast<std::chrono::microseconds>(
                       end - ctx.enqueued)
                       .count();
  summary.end_to_end_us = e2e > 0 ? static_cast<uint64_t>(e2e) : 0;
  end_to_end_us_.Record(summary.end_to_end_us);

  std::lock_guard<std::mutex> lock(mu_);
  recent_[recent_count_ % kRecent] = summary;
  ++recent_count_;
}

void TraceAggregator::RegisterMetrics(MetricsRegistry* registry,
                                      const std::string& prefix) {
  registry->RegisterCounter(prefix + "sampled", &sampled_);
  registry->RegisterHistogram(prefix + "end_to_end_us", &end_to_end_us_);
  for (size_t i = 0; i < kNumTracePhases; ++i) {
    registry->RegisterHistogram(
        prefix + TracePhaseName(static_cast<TracePhase>(i)) + "_us",
        &phase_us_[i]);
  }
}

std::vector<TraceSummary> TraceAggregator::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceSummary> out;
  const size_t n = recent_count_ < kRecent ? recent_count_ : kRecent;
  out.reserve(n);
  const size_t start = recent_count_ - n;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(recent_[(start + i) % kRecent]);
  }
  return out;
}

}  // namespace nblb
