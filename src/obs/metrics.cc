#include "src/obs/metrics.h"

#include <cmath>
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

MetricsRegistry::LatencyEntry::LatencyEntry(std::string name, double min_us, double max_us,
                                            double log_base)
    : name(std::move(name)),
      recorder(min_us, max_us, log_base),
      base_hist(recorder.histogram()) {}

Counter* MetricsRegistry::AddCounter(const std::string& name) {
  for (const auto& entry : counters_) {
    if (entry->name == name) {
      return &entry->counter;
    }
  }
  counters_.push_back(std::make_unique<CounterEntry>(CounterEntry{name, Counter{}}));
  return &counters_.back()->counter;
}

void MetricsRegistry::AddGauge(const std::string& name, std::function<int64_t()> read) {
  for (auto& entry : gauges_) {
    if (entry.name == name) {
      entry.read = std::move(read);
      return;
    }
  }
  gauges_.push_back({name, std::move(read)});
}

LatencyRecorder* MetricsRegistry::AddLatency(const std::string& name, double min_us,
                                             double max_us, double base) {
  for (const auto& entry : latencies_) {
    if (entry->name == name) {
      return &entry->recorder;
    }
  }
  latencies_.push_back(std::make_unique<LatencyEntry>(name, min_us, max_us, base));
  return &latencies_.back()->recorder;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  for (const auto& entry : counters_) {
    if (entry->name == name) {
      return &entry->counter;
    }
  }
  return nullptr;
}

const LatencyRecorder* MetricsRegistry::FindLatency(const std::string& name) const {
  for (const auto& entry : latencies_) {
    if (entry->name == name) {
      return &entry->recorder;
    }
  }
  return nullptr;
}

const MetricsWindow& MetricsRegistry::Capture(SimTime now, bool final_partial) {
  MetricsWindow window;
  window.seq = series_.windows_captured();
  window.start = series_.last_capture_time();
  window.end = now;
  window.final_partial = final_partial;
  const SimDuration span = now - window.start;
  const double seconds = span > 0 ? ToSeconds(span) : 0.0;

  window.samples.reserve(instrument_count());
  for (const auto& entry : counters_) {
    WindowSample& w = window.samples.emplace_back();
    w.name = entry->name;
    w.kind = WindowSample::Kind::kCounter;
    w.value = entry->counter.value();
    w.delta = w.value - entry->base;
    w.rate_per_sec = seconds > 0.0 ? static_cast<double>(w.delta) / seconds : 0.0;
    entry->base = w.value;
  }
  for (auto& entry : gauges_) {
    WindowSample& w = window.samples.emplace_back();
    w.name = entry.name;
    w.kind = WindowSample::Kind::kGauge;
    w.value = entry.read ? entry.read() : 0;
    w.delta = w.value - entry.base;
    entry.base = w.value;
  }
  for (const auto& entry : latencies_) {
    const LatencyRecorder& rec = entry->recorder;
    WindowSample& w = window.samples.emplace_back();
    w.name = entry->name;
    w.kind = WindowSample::Kind::kLatency;
    w.count = rec.count();
    w.total = rec.total();
    w.p50 = rec.Quantile(0.50);
    w.p90 = rec.Quantile(0.90);
    w.p99 = rec.Quantile(0.99);
    w.win_count = w.count - entry->base_count;
    w.win_total = w.total - entry->base_total;
    // Windowed percentiles: quantile the bucket state minus the baseline
    // taken at the previous window boundary.
    if (w.win_count > 0 && w.win_total > 0) {
      LogHistogram diff = rec.histogram();
      diff.Subtract(entry->base_hist);
      w.win_p50 = static_cast<SimDuration>(std::llround(diff.ApproxQuantile(0.50)));
      w.win_p90 = static_cast<SimDuration>(std::llround(diff.ApproxQuantile(0.90)));
      w.win_p99 = static_cast<SimDuration>(std::llround(diff.ApproxQuantile(0.99)));
    }
    entry->base_count = w.count;
    entry->base_total = w.total;
    entry->base_hist = rec.histogram();
  }
  return series_.Append(std::move(window));
}

void MetricsRegistry::Reset(SimTime now) {
  for (auto& entry : counters_) {
    entry->counter.Reset();
    entry->base = 0;
  }
  for (auto& entry : gauges_) {
    entry.base = 0;
  }
  for (auto& entry : latencies_) {
    entry->recorder.Reset();
    entry->base_count = 0;
    entry->base_total = 0;
    entry->base_hist.Reset();
  }
  series_.Reset(now);
}

}  // namespace sprite
