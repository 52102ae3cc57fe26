// Windowed metrics time series.
//
// The paper's collector polled ~50 kernel counters per workstation on an
// interval for two weeks; the interesting numbers were the *differences*
// between polls, not the run-cumulative totals. MetricsTimeSeries is that
// layer: on every periodic snapshot it diffs each registered instrument
// against the previous capture and retains a bounded ring of per-window
// records — counter deltas and rates, gauge deltas, and windowed latency
// percentiles computed by subtracting the previous histogram bucket state
// (LogHistogram::Subtract) from the current one.
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

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/units.h"

namespace sprite {

// One instrument inside one window.
struct WindowSample {
  std::string name;
  MetricSample::Kind kind = MetricSample::Kind::kCounter;
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
  std::vector<WindowSample> samples;

  // Lookup by instrument name; null when absent.
  const WindowSample* Find(const std::string& name) const;
};

class MetricsTimeSeries {
 public:
  // Retains at most `capacity` windows (>= 1); older windows are evicted.
  MetricsTimeSeries(const MetricsRegistry* registry, size_t capacity);
  MetricsTimeSeries(const MetricsTimeSeries&) = delete;
  MetricsTimeSeries& operator=(const MetricsTimeSeries&) = delete;

  // Closes the window [last capture, snapshot.time] over `snapshot`, which
  // must be of this series' registry, and appends it to the ring. The
  // SimTime form takes the snapshot itself.
  void Capture(const MetricsSnapshot& snapshot, bool final_partial = false);
  void Capture(SimTime now, bool final_partial = false) {
    Capture(registry_->Snapshot(now), final_partial);
  }

  size_t size() const { return windows_.size(); }
  size_t capacity() const { return capacity_; }
  // Retained windows, oldest first.
  const MetricsWindow& window(size_t i) const { return windows_[i]; }
  const MetricsWindow* latest() const {
    return windows_.empty() ? nullptr : &windows_.back();
  }

  int64_t windows_captured() const { return captured_; }
  int64_t windows_evicted() const { return evicted_; }
  SimTime last_capture_time() const { return last_time_; }

  // Drops all windows and re-baselines every instrument at `now`; the next
  // window starts there. Used to discard a warmup window.
  void Reset(SimTime now);

 private:
  struct Baseline {
    int64_t value = 0;  // counter / gauge
    int64_t count = 0;  // latency
    SimDuration total = 0;
    std::unique_ptr<LogHistogram> hist;  // latency bucket state at last capture
  };

  const MetricsRegistry* registry_;
  size_t capacity_;
  std::deque<MetricsWindow> windows_;
  std::map<std::string, Baseline> baselines_;
  SimTime last_time_ = 0;
  int64_t captured_ = 0;
  int64_t evicted_ = 0;
};

// Renders one window in the machine-readable format above (including the
// leading "# sprite-metrics v2" header line).
std::string FormatMetricsWindow(const MetricsWindow& window);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_TIMESERIES_H_
