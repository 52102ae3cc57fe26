#include "src/obs/timeseries.h"

#include <cstdio>
#include <utility>

namespace sprite {

const WindowSample* MetricsWindow::Find(const std::string& name) const {
  for (const WindowSample& s : samples) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

const MetricsWindow& MetricsTimeSeries::Append(MetricsWindow window) {
  last_time_ = window.end;
  ++captured_;
  windows_.push_back(std::move(window));
  if (windows_.size() > kCapacity) {
    windows_.pop_front();
    ++evicted_;
  }
  return windows_.back();
}

void MetricsTimeSeries::Reset(SimTime now) {
  windows_.clear();
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
      case WindowSample::Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "counter %s %lld delta=%lld rate_hz=%.3f\n",
                      s.name.c_str(), static_cast<long long>(s.value),
                      static_cast<long long>(s.delta), s.rate_per_sec);
        break;
      case WindowSample::Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "gauge %s %lld delta=%lld\n", s.name.c_str(),
                      static_cast<long long>(s.value), static_cast<long long>(s.delta));
        break;
      case WindowSample::Kind::kLatency:
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
