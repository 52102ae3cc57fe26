// Cluster-wide metrics registry and its window store.
//
// The paper's second data source was ~50 kernel counters per workstation,
// sampled by a user-level collector for two weeks. MetricsRegistry is the
// modern analogue: components (client caches, servers, disks, the RPC
// transport, the event queue) register named counters, gauges, and latency
// distributions at wiring time, and the cluster captures the whole registry
// on a configurable sim-time interval. Each Capture reads every instrument
// once, diffs it against the baseline kept beside it, and appends one
// MetricsWindow to the registry's MetricsTimeSeries (src/obs/timeseries.h,
// which also documents the "sprite-metrics v2" text format).
//
// Everything is deterministic: samples appear in registration order, and
// registering the same counter/latency name twice returns the existing
// instrument (so N clients can share one cluster-wide counter).

#ifndef SPRITE_DFS_SRC_OBS_METRICS_H_
#define SPRITE_DFS_SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/util/histogram.h"
#include "src/util/units.h"

namespace sprite {

// Monotonically increasing event count, incremented inline by the owning
// component.
class Counter {
 public:
  void Add(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

// Latency distribution: exact count and sum plus a log-bucketed histogram
// for approximate quantiles. The count/sum pair is exact so window totals
// can be cross-checked against the RPC ledger.
class LatencyRecorder {
 public:
  // Buckets span [min_us, max_us] by powers of `base`; defaults cover 10 us
  // to one simulated minute at ~10% resolution.
  explicit LatencyRecorder(double min_us = 10.0, double max_us = 60.0e6, double base = 1.25);

  void Record(SimDuration latency);

  int64_t count() const { return count_; }
  SimDuration total() const { return total_; }
  // Approximate quantile in microseconds (0 when nothing nonzero recorded).
  SimDuration Quantile(double q) const;
  // Bucket state, exposed so the registry can diff consecutive captures
  // (LogHistogram::Subtract) for windowed percentiles.
  const LogHistogram& histogram() const { return hist_; }

  void Reset();

 private:
  int64_t count_ = 0;
  SimDuration total_ = 0;
  LogHistogram hist_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or returns the existing) counter named `name`. The returned
  // pointer stays valid for the registry's lifetime.
  Counter* AddCounter(const std::string& name);
  // Registers a gauge: `read` is invoked at capture time. Re-registering a
  // name replaces the reader (the previous component was rewired).
  void AddGauge(const std::string& name, std::function<int64_t()> read);
  // Registers (or returns the existing) latency recorder named `name`.
  LatencyRecorder* AddLatency(const std::string& name, double min_us = 10.0,
                              double max_us = 60.0e6, double base = 1.25);

  // Lookup by name; null when absent.
  const Counter* FindCounter(const std::string& name) const;
  const LatencyRecorder* FindLatency(const std::string& name) const;

  // Reads every instrument now and appends the window [last capture, now]
  // to series(): counters, gauges, latencies, each in registration order.
  // Each instrument's reading becomes the baseline of its next delta.
  // `final_partial` marks an end-of-run capture off the periodic grid.
  const MetricsWindow& Capture(SimTime now, bool final_partial = false);
  const MetricsTimeSeries& series() const { return series_; }

  // Zeroes counters and latency recorders, drops every window, and
  // re-baselines every instrument at zero; the next window starts at
  // `now`. Gauges read live state and need no reset. Used to discard a
  // warmup window (Cluster::ResetMeasurements).
  void Reset(SimTime now);

  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + latencies_.size();
  }

 private:
  // Each instrument with its reading at the last capture: the baseline the
  // next window's deltas and windowed percentiles are taken against.
  struct CounterEntry {
    std::string name;
    Counter counter;
    int64_t base = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::function<int64_t()> read;
    int64_t base = 0;
  };
  struct LatencyEntry {
    LatencyEntry(std::string name, double min_us, double max_us, double log_base);

    std::string name;
    LatencyRecorder recorder;
    int64_t base_count = 0;
    SimDuration base_total = 0;
    LogHistogram base_hist;
  };

  // unique_ptr entries keep instrument addresses stable across registration.
  std::vector<std::unique_ptr<CounterEntry>> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<std::unique_ptr<LatencyEntry>> latencies_;
  MetricsTimeSeries series_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_METRICS_H_
