// Cluster-wide metrics registry.
//
// The paper's second data source was ~50 kernel counters per workstation,
// sampled by a user-level collector for two weeks. MetricsRegistry is the
// modern analogue: components (client caches, servers, disks, the RPC
// transport, the event queue) register named counters, gauges, and latency
// distributions at wiring time, and the cluster snapshots the whole registry
// on a configurable sim-time interval. Snapshots render in a line-oriented,
// machine-readable format (documented in DESIGN.md, "Observability"):
//
//   # sprite-metrics v1
//   snapshot t_us=<sim time>
//   counter <name> <value>
//   gauge <name> <value>
//   latency <name> count=<n> total_us=<n> p50_us=<n> p90_us=<n> p99_us=<n>
//   end
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
// for approximate quantiles. The count/sum pair is exact so snapshot totals
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
  // Bucket state, exposed so the metrics time series can diff consecutive
  // captures (LogHistogram::Subtract) for windowed percentiles.
  const LogHistogram& histogram() const { return hist_; }

  void Reset();

 private:
  int64_t count_ = 0;
  SimDuration total_ = 0;
  LogHistogram hist_;
};

// One metric at one snapshot instant.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kLatency };

  std::string name;
  Kind kind = Kind::kCounter;
  int64_t value = 0;  // counter / gauge
  // Latency-only fields.
  int64_t count = 0;
  SimDuration total = 0;
  SimDuration p50 = 0;
  SimDuration p90 = 0;
  SimDuration p99 = 0;

  bool operator==(const MetricSample&) const = default;
};

struct MetricsSnapshot {
  SimTime time = 0;
  std::vector<MetricSample> samples;

  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or returns the existing) counter named `name`. The returned
  // pointer stays valid for the registry's lifetime.
  Counter* AddCounter(const std::string& name);
  // Registers a gauge: `read` is invoked at snapshot time. Re-registering a
  // name replaces the reader (the previous component was rewired).
  void AddGauge(const std::string& name, std::function<int64_t()> read);
  // Registers (or returns the existing) latency recorder named `name`.
  LatencyRecorder* AddLatency(const std::string& name, double min_us = 10.0,
                              double max_us = 60.0e6, double base = 1.25);

  // Lookup by name; null when absent.
  const Counter* FindCounter(const std::string& name) const;
  const LatencyRecorder* FindLatency(const std::string& name) const;

  // Visits every latency recorder in registration order. The metrics time
  // series uses this to capture per-window histogram baselines.
  void ForEachLatency(
      const std::function<void(const std::string&, const LatencyRecorder&)>& fn) const;

  // Reads every instrument now. Samples are ordered: counters, gauges,
  // latencies, each in registration order.
  MetricsSnapshot Snapshot(SimTime now) const;
  // Appends a snapshot to the retained history (the periodic collector
  // daemon calls this); the SimTime form takes it now. When a history limit
  // is set, the oldest snapshot is evicted once the limit is exceeded.
  void RecordSnapshot(MetricsSnapshot snapshot);
  void RecordSnapshot(SimTime now) { RecordSnapshot(Snapshot(now)); }
  const std::vector<MetricsSnapshot>& history() const { return history_; }

  // Bounds the retained snapshot history (0 = unbounded, the default).
  void SetHistoryLimit(size_t limit) { history_limit_ = limit; }
  size_t history_limit() const { return history_limit_; }

  // Zeroes counters and latency recorders and drops the snapshot history;
  // gauges read live state and need no reset. Used to discard a warmup
  // window (Cluster::ResetMeasurements).
  void Reset();

  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + latencies_.size();
  }

 private:
  template <typename T>
  struct Named {
    std::string name;
    T instrument;
  };

  // unique_ptr entries keep instrument addresses stable across registration.
  std::vector<std::unique_ptr<Named<Counter>>> counters_;
  std::vector<Named<std::function<int64_t()>>> gauges_;
  std::vector<std::unique_ptr<Named<LatencyRecorder>>> latencies_;
  std::vector<MetricsSnapshot> history_;
  size_t history_limit_ = 0;
};

// Renders one snapshot in the machine-readable format above (including the
// leading "# sprite-metrics v1" header line).
std::string FormatMetricsSnapshot(const MetricsSnapshot& snapshot);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_METRICS_H_
