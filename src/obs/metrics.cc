#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace nblb {

bool ObsEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("NBLB_OBS_OFF");
    return v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0;
  }();
  return enabled;
}

MetricsSnapshot& MetricsSnapshot::operator-=(const MetricsSnapshot& earlier) {
  for (auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    if (it != earlier.counters.end()) value -= it->second;
  }
  for (auto& [name, hist] : histograms) {
    auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) hist -= it->second;
  }
  return *this;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other,
                            const std::string& prefix) {
  for (const auto& [name, value] : other.counters) {
    counters[prefix + name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[prefix + name] = value;
  }
  for (const auto& [name, hist] : other.histograms) {
    histograms[prefix + name] += hist;
  }
}

namespace {

/// True iff `key` is `name` or ends in "." + `name`.
bool InScope(const std::string& key, const std::string& name) {
  if (key.size() < name.size()) return false;
  if (key.compare(key.size() - name.size(), name.size(), name) != 0) {
    return false;
  }
  return key.size() == name.size() || key[key.size() - name.size() - 1] == '.';
}

}  // namespace

uint64_t MetricsSnapshot::Total(const std::string& name) const {
  uint64_t total = 0;
  bool found = false;
  for (const auto& [key, value] : counters) {
    if (!InScope(key, name)) continue;
    total += value;
    found = true;
  }
  NBLB_CHECK_MSG(found, name.c_str());
  return total;
}

LogHistogramSnapshot MetricsSnapshot::TotalHistogram(
    const std::string& name) const {
  LogHistogramSnapshot total;
  bool found = false;
  for (const auto& [key, hist] : histograms) {
    if (!InScope(key, name)) continue;
    total += hist;
    found = true;
  }
  NBLB_CHECK_MSG(found, name.c_str());
  return total;
}

namespace {

void AppendJsonKey(std::string* out, const std::string& name) {
  // Metric names are dotted identifiers (no quotes/escapes needed).
  out->push_back('"');
  out->append(name);
  out->append("\": ");
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out;
  out.reserve(1024 + 96 * (counters.size() + histograms.size()));
  char buf[64];

  out.append("{\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.append(", ");
    first = false;
    AppendJsonKey(&out, name);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out.append(buf);
  }
  out.append("}, \"gauges\": {");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.append(", ");
    first = false;
    AppendJsonKey(&out, name);
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    out.append(buf);
  }
  out.append("}, \"histograms\": {");
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.append(", ");
    first = false;
    AppendJsonKey(&out, name);
    std::snprintf(
        buf, sizeof(buf), "{\"count\": %llu, \"p50\": %llu, ",
        static_cast<unsigned long long>(hist.count()),
        static_cast<unsigned long long>(hist.ValueAtQuantile(0.50)));
    out.append(buf);
    std::snprintf(
        buf, sizeof(buf), "\"p90\": %llu, \"p99\": %llu, \"max\": %llu, ",
        static_cast<unsigned long long>(hist.ValueAtQuantile(0.90)),
        static_cast<unsigned long long>(hist.ValueAtQuantile(0.99)),
        static_cast<unsigned long long>(hist.ApproxMax()));
    out.append(buf);
    out.append("\"buckets\": [");
    for (size_t i = 0; i < kStatsLogBuckets; ++i) {
      if (i > 0) out.append(", ");
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(hist.buckets[i]));
      out.append(buf);
    }
    out.append("]}");
  }
  out.append("}}");
  return out;
}

void MetricsRegistry::RegisterCounter(std::string name,
                                      const std::atomic<uint64_t>* counter) {
  NBLB_CHECK(counter != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(CounterEntry{std::move(name), counter, nullptr});
}

void MetricsRegistry::RegisterCounterFn(std::string name,
                                        std::function<uint64_t()> read) {
  NBLB_CHECK(read != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(CounterEntry{std::move(name), nullptr, std::move(read)});
}

void MetricsRegistry::RegisterGauge(std::string name,
                                    std::function<double()> read) {
  NBLB_CHECK(read != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  gauges_.push_back(GaugeEntry{std::move(name), std::move(read)});
}

void MetricsRegistry::RegisterHistogram(std::string name,
                                        const LogHistogram* hist) {
  NBLB_CHECK(hist != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  hists_.push_back(HistEntry{std::move(name), hist});
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& entry : counters_) {
    const uint64_t v = entry.direct != nullptr
                           ? entry.direct->load(std::memory_order_relaxed)
                           : entry.read();
    snap.counters[entry.name] += v;
  }
  for (const auto& entry : gauges_) {
    snap.gauges[entry.name] = entry.read();
  }
  for (const auto& entry : hists_) {
    snap.histograms[entry.name] += entry.hist->Snapshot();
  }
  return snap;
}

}  // namespace nblb
