// Observability facade: one MetricsRegistry (with its window series) plus
// one SpanTracer and one CriticalPathCollector, owned by the Cluster and
// shared by every instrumented component.
//
// Components hold a raw `Observability*` that is null when observability is
// disabled, so the per-operation cost of the instrumentation is a single
// pointer test (the "zero-cost-when-disabled" guard):
//
//   if (obs_ != nullptr && obs_->tracing_enabled()) {
//     obs_->tracer().Emit(...);
//   }
//
// Instrumentation must never perturb the simulation: emitters only READ
// simulation state and append to the registry/tracer. A same-seed run with
// observability on and off produces byte-identical tables, ledgers, and
// traces (enforced by tests/fs/obs_test.cc).

#ifndef SPRITE_DFS_SRC_OBS_OBSERVABILITY_H_
#define SPRITE_DFS_SRC_OBS_OBSERVABILITY_H_

#include "src/obs/criticalpath.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/tracer.h"
#include "src/util/units.h"

namespace sprite {

// Deterministic rules for the windowed hot-spot detector (src/obs/hotspot.h).
// A server is hot in a window when its windowed queue-wait p99 clears an
// absolute floor AND a multiple of the mean of the other servers AND the
// bytes homed on it are skewed the same way (the placement gate: a transient
// burst on a balanced placement is load, not a hot spot a rebalancer could
// fix). An episode is flagged once `sustain_windows` hot windows accumulate
// without `cool_windows` consecutive quiet ones in between.
struct HotspotConfig {
  SimDuration min_queue_p99 = 2 * kMillisecond;  // absolute floor
  double queue_ratio = 4.0;   // windowed p99 vs mean of the other servers
  double homed_ratio = 2.0;   // bytes_homed vs mean of the other servers
  int sustain_windows = 3;    // hot windows before an episode is flagged
  // Bursty workloads (periodic large reads) interleave hot windows with
  // quiet ones; a streak tolerates up to cool_windows - 1 consecutive quiet
  // windows, and ends after cool_windows of them.
  int cool_windows = 3;
};

struct ObservabilityConfig {
  // Enables the metrics registry (counters/gauges/latency recorders).
  bool metrics = false;
  // Enables span emission (Chrome trace-event export).
  bool tracing = false;
  // When > 0 and metrics are enabled, the cluster captures a registry window
  // on this sim-time period (the paper's user-level counter poller).
  SimDuration snapshot_interval = 0;
  // Enables per-op critical-path attribution (src/obs/criticalpath.h).
  bool critical_path = false;
  // Enables the windowed hot-spot detector (requires metrics + a snapshot
  // interval to produce windows).
  bool hotspot = false;
  HotspotConfig hotspot_rules;

  bool enabled() const { return metrics || tracing || critical_path; }
};

class Observability {
 public:
  explicit Observability(const ObservabilityConfig& config) : config_(config) {
    if (config_.critical_path && config_.tracing) {
      critical_path_.SetTracer(&tracer_);
    }
  }
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  const ObservabilityConfig& config() const { return config_; }
  bool metrics_enabled() const { return config_.metrics; }
  bool tracing_enabled() const { return config_.tracing; }
  bool critical_path_enabled() const { return config_.critical_path; }
  bool hotspot_enabled() const { return config_.hotspot; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  SpanTracer& tracer() { return tracer_; }
  const SpanTracer& tracer() const { return tracer_; }
  // The registry's captured windows.
  const MetricsTimeSeries& series() const { return metrics_.series(); }
  CriticalPathCollector& critical_path() { return critical_path_; }
  const CriticalPathCollector& critical_path() const { return critical_path_; }

  // Discards recorded spans, counter values, windows, and critical-path
  // totals (e.g. at the end of a warmup window); the next window starts at
  // `now`. Registered instruments and track names are wiring and survive.
  void Reset(SimTime now = 0) {
    metrics_.Reset(now);
    tracer_.Reset();
    critical_path_.Reset();
  }

 private:
  ObservabilityConfig config_;
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  CriticalPathCollector critical_path_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_OBSERVABILITY_H_
