#include "obs/event_ring.h"

#include <cstdio>

#include "common/logging.h"
#include "obs/metrics.h"

namespace nblb {

const char* FlightEventName(FlightEvent e) {
  switch (e) {
    case FlightEvent::kNone:
      return "none";
    case FlightEvent::kChunkHalve:
      return "chunk_halve";
    case FlightEvent::kCapacityWait:
      return "capacity_wait";
    case FlightEvent::kBusyReject:
      return "busy_reject";
    case FlightEvent::kFlusherPass:
      return "flusher_pass";
    case FlightEvent::kIoError:
      return "io_error";
    case FlightEvent::kRedirty:
      return "redirty";
    case FlightEvent::kNetShed:
      return "net_shed";
    case FlightEvent::kNetDecodeError:
      return "net_decode_error";
    case FlightEvent::kNetIdleClose:
      return "net_idle_close";
    case FlightEvent::kWalAppendError:
      return "wal_append_error";
    case FlightEvent::kRecoveryStart:
      return "recovery_start";
    case FlightEvent::kRecoveryReplayed:
      return "recovery_replayed";
    case FlightEvent::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

void EventRing::Record(FlightEvent code, uint64_t arg0, uint64_t arg1,
                       uint64_t ts_us) {
  const uint64_t n = next_++;
  Slot& s = slots_[n & kSlotMask];
  // Invalidate the slot first so a concurrent reader that saw the old seq
  // cannot validate a half-overwritten payload, then publish with the new
  // seq (release pairs with the reader's acquire loads).
  s.seq.store(0, std::memory_order_release);
  s.ts_us.store(ts_us, std::memory_order_relaxed);
  s.code.store(static_cast<uint64_t>(code), std::memory_order_relaxed);
  s.arg0.store(arg0, std::memory_order_relaxed);
  s.arg1.store(arg1, std::memory_order_relaxed);
  s.seq.store(n + 1, std::memory_order_release);
  head_.store(n + 1, std::memory_order_release);
}

std::vector<FlightEventRecord> EventRing::Snapshot() const {
  std::vector<FlightEventRecord> out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t begin = head > kSlots ? head - kSlots : 0;
  out.reserve(head - begin);
  for (uint64_t i = begin; i < head; ++i) {
    const Slot& s = slots_[i & kSlotMask];
    if (s.seq.load(std::memory_order_acquire) != i + 1) continue;
    FlightEventRecord rec;
    rec.seq = i;
    rec.ts_us = s.ts_us.load(std::memory_order_relaxed);
    rec.code = static_cast<FlightEvent>(s.code.load(std::memory_order_relaxed));
    rec.arg0 = s.arg0.load(std::memory_order_relaxed);
    rec.arg1 = s.arg1.load(std::memory_order_relaxed);
    // Re-validate: if the writer lapped us mid-read the payload above may
    // be torn — drop it. The fence orders the payload loads before the
    // second seq load.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != i + 1) continue;
    out.push_back(rec);
  }
  return out;
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

namespace {
void FlightRecorderFatalDump() {
  std::fprintf(stderr, "%s", FlightRecorder::Instance().Dump().c_str());
}
}  // namespace

FlightRecorder::FlightRecorder()
    : origin_(std::chrono::steady_clock::now()) {
  enabled_.store(ObsEnabled(), std::memory_order_relaxed);
  SetFatalHook(&FlightRecorderFatalDump);
}

uint64_t FlightRecorder::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

EventRing* FlightRecorder::RingForThisThread() {
  thread_local EventRing* tls_ring = nullptr;
  if (tls_ring == nullptr) {
    auto ring = std::make_shared<EventRing>();
    tls_ring = ring.get();
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::move(ring));  // keeps ring alive past thread exit
  }
  return tls_ring;
}

void FlightRecorder::Record(FlightEvent code, uint64_t arg0, uint64_t arg1) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  RingForThisThread()->Record(code, arg0, arg1, NowMicros());
}

std::vector<std::vector<FlightEventRecord>> FlightRecorder::SnapshotAll()
    const {
  std::vector<std::shared_ptr<EventRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings = rings_;
  }
  std::vector<std::vector<FlightEventRecord>> out;
  out.reserve(rings.size());
  for (const auto& ring : rings) out.push_back(ring->Snapshot());
  return out;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rings_.size();
}

std::string FlightRecorder::Dump() const {
  const auto all = SnapshotAll();
  std::string out = "=== flight recorder dump ===\n";
  char buf[160];
  size_t ring_idx = 0;
  for (const auto& ring : all) {
    for (const auto& rec : ring) {
      std::snprintf(buf, sizeof(buf),
                    "[ring %zu] seq=%llu +%lluus %s arg0=%llu arg1=%llu\n",
                    ring_idx, static_cast<unsigned long long>(rec.seq),
                    static_cast<unsigned long long>(rec.ts_us),
                    FlightEventName(rec.code),
                    static_cast<unsigned long long>(rec.arg0),
                    static_cast<unsigned long long>(rec.arg1));
      out.append(buf);
    }
    ++ring_idx;
  }
  std::snprintf(buf, sizeof(buf), "=== %zu ring(s) ===\n", all.size());
  out.append(buf);
  return out;
}

}  // namespace nblb
