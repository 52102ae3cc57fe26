#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace sprite {

LatencyRecorder::LatencyRecorder(double min_us, double max_us, double base)
    : hist_(min_us, max_us, base) {}

void LatencyRecorder::Record(SimDuration latency) {
  ++count_;
  total_ += latency;
  hist_.Add(static_cast<double>(latency));
}

SimDuration LatencyRecorder::Quantile(double q) const {
  if (count_ == 0 || total_ == 0) {
    return 0;
  }
  return static_cast<SimDuration>(std::llround(hist_.ApproxQuantile(q)));
}

void LatencyRecorder::Reset() {
  count_ = 0;
  total_ = 0;
  hist_.Reset();
}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  for (const auto& entry : counters_) {
    if (entry->name == name) {
      return &entry->instrument;
    }
  }
  counters_.push_back(std::make_unique<Named<Counter>>(Named<Counter>{name, Counter{}}));
  return &counters_.back()->instrument;
}

void MetricsRegistry::AddGauge(const std::string& name, std::function<int64_t()> read) {
  for (auto& entry : gauges_) {
    if (entry.name == name) {
      entry.instrument = std::move(read);
      return;
    }
  }
  gauges_.push_back({name, std::move(read)});
}

LatencyRecorder* MetricsRegistry::AddLatency(const std::string& name, double min_us,
                                             double max_us, double base) {
  for (const auto& entry : latencies_) {
    if (entry->name == name) {
      return &entry->instrument;
    }
  }
  latencies_.push_back(std::make_unique<Named<LatencyRecorder>>(
      Named<LatencyRecorder>{name, LatencyRecorder(min_us, max_us, base)}));
  return &latencies_.back()->instrument;
}

void MetricsRegistry::ForEachLatency(
    const std::function<void(const std::string&, const LatencyRecorder&)>& fn) const {
  for (const auto& entry : latencies_) {
    fn(entry->name, entry->instrument);
  }
}

void MetricsRegistry::RecordSnapshot(MetricsSnapshot snapshot) {
  history_.push_back(std::move(snapshot));
  if (history_limit_ > 0 && history_.size() > history_limit_) {
    history_.erase(history_.begin());
  }
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  for (const auto& entry : counters_) {
    if (entry->name == name) {
      return &entry->instrument;
    }
  }
  return nullptr;
}

const LatencyRecorder* MetricsRegistry::FindLatency(const std::string& name) const {
  for (const auto& entry : latencies_) {
    if (entry->name == name) {
      return &entry->instrument;
    }
  }
  return nullptr;
}

MetricsSnapshot MetricsRegistry::Snapshot(SimTime now) const {
  MetricsSnapshot snapshot;
  snapshot.time = now;
  snapshot.samples.reserve(instrument_count());
  for (const auto& entry : counters_) {
    MetricSample s;
    s.name = entry->name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = entry->instrument.value();
    snapshot.samples.push_back(std::move(s));
  }
  for (const auto& entry : gauges_) {
    MetricSample s;
    s.name = entry.name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = entry.instrument ? entry.instrument() : 0;
    snapshot.samples.push_back(std::move(s));
  }
  for (const auto& entry : latencies_) {
    const LatencyRecorder& rec = entry->instrument;
    MetricSample s;
    s.name = entry->name;
    s.kind = MetricSample::Kind::kLatency;
    s.count = rec.count();
    s.total = rec.total();
    s.p50 = rec.Quantile(0.50);
    s.p90 = rec.Quantile(0.90);
    s.p99 = rec.Quantile(0.99);
    snapshot.samples.push_back(std::move(s));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  for (auto& entry : counters_) {
    entry->instrument.Reset();
  }
  for (auto& entry : latencies_) {
    entry->instrument.Reset();
  }
  history_.clear();
}

std::string FormatMetricsSnapshot(const MetricsSnapshot& snapshot) {
  std::string out = "# sprite-metrics v1\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "snapshot t_us=%lld\n",
                static_cast<long long>(snapshot.time));
  out += buf;
  for (const MetricSample& s : snapshot.samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "counter %s %lld\n", s.name.c_str(),
                      static_cast<long long>(s.value));
        break;
      case MetricSample::Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "gauge %s %lld\n", s.name.c_str(),
                      static_cast<long long>(s.value));
        break;
      case MetricSample::Kind::kLatency:
        std::snprintf(buf, sizeof(buf),
                      "latency %s count=%lld total_us=%lld p50_us=%lld p90_us=%lld "
                      "p99_us=%lld\n",
                      s.name.c_str(), static_cast<long long>(s.count),
                      static_cast<long long>(s.total), static_cast<long long>(s.p50),
                      static_cast<long long>(s.p90), static_cast<long long>(s.p99));
        break;
    }
    out += buf;
  }
  out += "end\n";
  return out;
}

}  // namespace sprite
