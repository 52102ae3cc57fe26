#include "src/obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sprite {

const WindowSample* MetricsWindow::Find(const std::string& name) const {
  for (const WindowSample& s : samples) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

MetricsTimeSeries::MetricsTimeSeries(const MetricsRegistry* registry, size_t capacity)
    : registry_(registry), capacity_(std::max<size_t>(1, capacity)) {}

void MetricsTimeSeries::Capture(const MetricsSnapshot& snapshot, bool final_partial) {
  const SimTime now = snapshot.time;
  MetricsWindow window;
  window.seq = captured_;
  window.start = last_time_;
  window.end = now;
  window.final_partial = final_partial;

  const SimDuration span = now - last_time_;
  const double seconds = span > 0 ? ToSeconds(span) : 0.0;

  window.samples.reserve(snapshot.samples.size());
  for (const MetricSample& s : snapshot.samples) {
    WindowSample w;
    w.name = s.name;
    w.kind = s.kind;
    Baseline& base = baselines_[s.name];
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        w.value = s.value;
        w.delta = s.value - base.value;
        w.rate_per_sec = seconds > 0.0 ? static_cast<double>(w.delta) / seconds : 0.0;
        base.value = s.value;
        break;
      case MetricSample::Kind::kGauge:
        w.value = s.value;
        w.delta = s.value - base.value;
        base.value = s.value;
        break;
      case MetricSample::Kind::kLatency:
        w.count = s.count;
        w.total = s.total;
        w.p50 = s.p50;
        w.p90 = s.p90;
        w.p99 = s.p99;
        w.win_count = s.count - base.count;
        w.win_total = s.total - base.total;
        base.count = s.count;
        base.total = s.total;
        break;
    }
    window.samples.push_back(std::move(w));
  }

  // Windowed percentiles: diff the current bucket state against the baseline
  // captured at the previous window boundary, then quantile the difference.
  size_t sample_index = 0;
  registry_->ForEachLatency([&](const std::string& name, const LatencyRecorder& rec) {
    while (sample_index < window.samples.size() &&
           (window.samples[sample_index].kind != MetricSample::Kind::kLatency ||
            window.samples[sample_index].name != name)) {
      ++sample_index;
    }
    if (sample_index >= window.samples.size()) {
      return;
    }
    WindowSample& w = window.samples[sample_index];
    Baseline& base = baselines_[name];
    if (w.win_count > 0 && w.win_total > 0) {
      LogHistogram diff = rec.histogram();
      if (base.hist != nullptr) {
        diff.Subtract(*base.hist);
      }
      w.win_p50 = static_cast<SimDuration>(std::llround(diff.ApproxQuantile(0.50)));
      w.win_p90 = static_cast<SimDuration>(std::llround(diff.ApproxQuantile(0.90)));
      w.win_p99 = static_cast<SimDuration>(std::llround(diff.ApproxQuantile(0.99)));
    }
    base.hist = std::make_unique<LogHistogram>(rec.histogram());
    ++sample_index;
  });

  windows_.push_back(std::move(window));
  if (windows_.size() > capacity_) {
    windows_.pop_front();
    ++evicted_;
  }
  last_time_ = now;
  ++captured_;
}

void MetricsTimeSeries::Reset(SimTime now) {
  windows_.clear();
  baselines_.clear();
  last_time_ = now;
  captured_ = 0;
  evicted_ = 0;
}

std::string FormatMetricsWindow(const MetricsWindow& window) {
  std::string out = "# sprite-metrics v2\n";
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "window seq=%lld t_start_us=%lld t_end_us=%lld final_partial=%d\n",
                static_cast<long long>(window.seq), static_cast<long long>(window.start),
                static_cast<long long>(window.end), window.final_partial ? 1 : 0);
  out += buf;
  for (const WindowSample& s : window.samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "counter %s %lld delta=%lld rate_hz=%.3f\n",
                      s.name.c_str(), static_cast<long long>(s.value),
                      static_cast<long long>(s.delta), s.rate_per_sec);
        break;
      case MetricSample::Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "gauge %s %lld delta=%lld\n", s.name.c_str(),
                      static_cast<long long>(s.value), static_cast<long long>(s.delta));
        break;
      case MetricSample::Kind::kLatency:
        std::snprintf(buf, sizeof(buf),
                      "latency %s count=%lld total_us=%lld p50_us=%lld p90_us=%lld "
                      "p99_us=%lld win_count=%lld win_total_us=%lld win_p50_us=%lld "
                      "win_p90_us=%lld win_p99_us=%lld\n",
                      s.name.c_str(), static_cast<long long>(s.count),
                      static_cast<long long>(s.total), static_cast<long long>(s.p50),
                      static_cast<long long>(s.p90), static_cast<long long>(s.p99),
                      static_cast<long long>(s.win_count),
                      static_cast<long long>(s.win_total),
                      static_cast<long long>(s.win_p50), static_cast<long long>(s.win_p90),
                      static_cast<long long>(s.win_p99));
        break;
    }
    out += buf;
  }
  out += "end\n";
  return out;
}

}  // namespace sprite
