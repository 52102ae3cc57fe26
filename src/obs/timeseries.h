// Windowed metrics time series.
//
// The paper's collector polled ~50 kernel counters per workstation on an
// interval for two weeks; the interesting numbers were the *differences*
// between polls, not the run-cumulative totals. MetricsTimeSeries is the
// ring those polls land in: MetricsRegistry::Capture (src/obs/metrics.h)
// diffs each registered instrument against its previous capture and
// appends one MetricsWindow — counter deltas and rates, gauge deltas, and
// windowed latency percentiles computed by subtracting the previous
// histogram bucket state (LogHistogram::Subtract) from the current one.
// The registry owns the only series; it retains the newest kCapacity
// windows and counts the ones it evicts.
//
// Windows render in a line-oriented format (DESIGN.md "Observability v2"):
//
//   # sprite-metrics v2
//   window seq=<n> t_start_us=<a> t_end_us=<b> final_partial=<0|1>
//   counter <name> <cumulative> delta=<d> rate_hz=<r>
//   gauge <name> <value> delta=<d>
//   latency <name> count=<n> total_us=<n> p50_us=<n> p90_us=<n> p99_us=<n>
//     win_count=<n> win_total_us=<n> win_p50_us=<n> win_p90_us=<n> win_p99_us=<n>
//   end
//
// Capture only reads instruments; it never mutates simulation state, so
// same-seed runs with and without the series enabled stay bit-identical.

#ifndef SPRITE_DFS_SRC_OBS_TIMESERIES_H_
#define SPRITE_DFS_SRC_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace sprite {

// One instrument inside one window.
struct WindowSample {
  enum class Kind { kCounter, kGauge, kLatency };

  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;        // counter cumulative / gauge value at window end
  int64_t delta = 0;        // change over the window (counters and gauges)
  double rate_per_sec = 0;  // counters only: delta / window length
  // Latency-only fields: run-cumulative at window end...
  int64_t count = 0;
  SimDuration total = 0;
  SimDuration p50 = 0;
  SimDuration p90 = 0;
  SimDuration p99 = 0;
  // ...and this window alone (exact count/total; bucket-diffed percentiles).
  int64_t win_count = 0;
  SimDuration win_total = 0;
  SimDuration win_p50 = 0;
  SimDuration win_p90 = 0;
  SimDuration win_p99 = 0;
};

struct MetricsWindow {
  int64_t seq = 0;  // capture ordinal since construction/reset (0-based)
  SimTime start = 0;
  SimTime end = 0;
  bool final_partial = false;  // end-of-run capture off the periodic grid
  // Counters, gauges, latencies, each in registration order.
  std::vector<WindowSample> samples;

  // Lookup by instrument name; null when absent.
  const WindowSample* Find(const std::string& name) const;
};

class MetricsTimeSeries {
 public:
  // Windows retained; older ones are evicted.
  static constexpr size_t kCapacity = 512;

  MetricsTimeSeries(const MetricsTimeSeries&) = delete;
  MetricsTimeSeries& operator=(const MetricsTimeSeries&) = delete;

  size_t size() const { return windows_.size(); }
  // Retained windows, oldest first.
  const MetricsWindow& window(size_t i) const { return windows_[i]; }
  const MetricsWindow* latest() const {
    return windows_.empty() ? nullptr : &windows_.back();
  }

  int64_t windows_captured() const { return captured_; }
  int64_t windows_evicted() const { return evicted_; }
  // Where the next window starts.
  SimTime last_capture_time() const { return last_time_; }

 private:
  // Only the registry fills and clears its series.
  friend class MetricsRegistry;
  MetricsTimeSeries() = default;

  const MetricsWindow& Append(MetricsWindow window);
  // Drops all windows; the next one starts at `now`.
  void Reset(SimTime now);

  std::deque<MetricsWindow> windows_;
  SimTime last_time_ = 0;
  int64_t captured_ = 0;
  int64_t evicted_ = 0;
};

// Renders one window in the machine-readable format above (including the
// leading "# sprite-metrics v2" header line).
std::string FormatMetricsWindow(const MetricsWindow& window);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_TIMESERIES_H_
