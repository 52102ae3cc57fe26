#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/metrics.h"
#include "src/util/units.h"

namespace sprite {
namespace {

TEST(MetricsTimeSeriesTest, CounterDeltaAndRatePerWindow) {
  MetricsRegistry m;
  Counter* c = m.AddCounter("rpc.calls");
  const MetricsTimeSeries& series = m.series();

  c->Add(10);
  m.Capture(2 * kSecond);
  c->Add(30);
  m.Capture(4 * kSecond);

  ASSERT_EQ(series.size(), 2u);
  const WindowSample* w0 = series.window(0).Find("rpc.calls");
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->value, 10);
  EXPECT_EQ(w0->delta, 10);  // first window baselines at zero
  EXPECT_DOUBLE_EQ(w0->rate_per_sec, 5.0);
  const WindowSample* w1 = series.window(1).Find("rpc.calls");
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->value, 40);
  EXPECT_EQ(w1->delta, 30);
  EXPECT_DOUBLE_EQ(w1->rate_per_sec, 15.0);
  EXPECT_EQ(series.window(0).start, 0);
  EXPECT_EQ(series.window(0).end, 2 * kSecond);
  EXPECT_EQ(series.window(1).start, 2 * kSecond);
  EXPECT_EQ(series.window(1).end, 4 * kSecond);
}

TEST(MetricsTimeSeriesTest, GaugeDeltaIsSigned) {
  MetricsRegistry m;
  int64_t value = 100;
  m.AddGauge("cache.bytes", [&value] { return value; });
  const MetricsTimeSeries& series = m.series();

  m.Capture(kSecond);
  value = 40;
  m.Capture(2 * kSecond);

  EXPECT_EQ(series.window(0).Find("cache.bytes")->delta, 100);
  EXPECT_EQ(series.window(1).Find("cache.bytes")->delta, -60);
}

TEST(MetricsTimeSeriesTest, WindowedPercentilesDivergeFromCumulative) {
  MetricsRegistry m;
  LatencyRecorder* rec = m.AddLatency("server.0.queue_us");
  const MetricsTimeSeries& series = m.series();

  // Window 0: a thousand fast waits. Window 1: a thousand slow ones. The
  // cumulative p50 stays in between, but each window's p50 must reflect only
  // its own samples.
  for (int i = 0; i < 1000; ++i) {
    rec->Record(100);
  }
  m.Capture(kMinute);
  for (int i = 0; i < 1000; ++i) {
    rec->Record(100 * kMillisecond);
  }
  m.Capture(2 * kMinute);

  const WindowSample* w0 = series.window(0).Find("server.0.queue_us");
  const WindowSample* w1 = series.window(1).Find("server.0.queue_us");
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w0->win_count, 1000);
  EXPECT_EQ(w1->win_count, 1000);
  EXPECT_EQ(w1->count, 2000);  // cumulative keeps growing
  // Window 0 saw only ~100 us waits; window 1 only ~100 ms waits (log
  // buckets at base 1.25 give ~±25% resolution).
  EXPECT_LT(w0->win_p50, 200);
  EXPECT_GT(w1->win_p50, 50 * kMillisecond);
  // The cumulative p50 of window 1 mixes both populations, so it must sit
  // far below the windowed p50 of the slow window.
  EXPECT_LT(w1->p50, w1->win_p50);
  EXPECT_EQ(w1->win_total, 1000 * 100 * kMillisecond);
}

TEST(MetricsTimeSeriesTest, EmptyLatencyWindowHasZeroPercentiles) {
  MetricsRegistry m;
  LatencyRecorder* rec = m.AddLatency("lat");
  rec->Record(5000);
  const MetricsTimeSeries& series = m.series();
  m.Capture(kMinute);
  m.Capture(2 * kMinute);  // no new samples
  const WindowSample* w1 = series.window(1).Find("lat");
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->win_count, 0);
  EXPECT_EQ(w1->win_p50, 0);
  EXPECT_EQ(w1->win_p99, 0);
  EXPECT_EQ(w1->count, 1);  // cumulative side still reports the run totals
}

TEST(MetricsTimeSeriesTest, RingBufferEvictsOldestAndCounts) {
  MetricsRegistry m;
  Counter* c = m.AddCounter("c");
  const MetricsTimeSeries& series = m.series();
  const int64_t captures = static_cast<int64_t>(MetricsTimeSeries::kCapacity) + 2;
  for (int64_t i = 1; i <= captures; ++i) {
    c->Add(1);
    m.Capture(i * kSecond);
  }
  EXPECT_EQ(series.size(), MetricsTimeSeries::kCapacity);
  EXPECT_EQ(series.windows_captured(), captures);
  EXPECT_EQ(series.windows_evicted(), 2);
  // Oldest-first: the surviving windows are seq 2 through captures - 1.
  EXPECT_EQ(series.window(0).seq, 2);
  EXPECT_EQ(series.window(0).start, 2 * kSecond);
  EXPECT_EQ(series.window(series.size() - 1).seq, captures - 1);
  ASSERT_NE(series.latest(), nullptr);
  EXPECT_EQ(series.latest()->seq, captures - 1);
  // Deltas survive eviction: baselines are per-instrument, not per-window.
  EXPECT_EQ(series.latest()->Find("c")->value, captures);
  EXPECT_EQ(series.latest()->Find("c")->delta, 1);
}

TEST(MetricsTimeSeriesTest, ResetRebaselinesAtGivenTime) {
  MetricsRegistry m;
  Counter* c = m.AddCounter("c");
  int64_t gauge = 50;
  m.AddGauge("g", [&gauge] { return gauge; });
  LatencyRecorder* rec = m.AddLatency("lat");
  const MetricsTimeSeries& series = m.series();
  c->Add(100);
  rec->Record(100);
  m.Capture(kMinute);
  m.Reset(5 * kMinute);  // warmup discard
  EXPECT_EQ(series.size(), 0u);
  EXPECT_EQ(series.windows_captured(), 0);
  EXPECT_EQ(series.last_capture_time(), 5 * kMinute);
  EXPECT_EQ(c->value(), 0);  // the registry reset zeroes the counter too
  EXPECT_EQ(rec->count(), 0);
  c->Add(7);
  rec->Record(100 * kMillisecond);
  m.Capture(6 * kMinute);
  const MetricsWindow& w = series.window(0);
  EXPECT_EQ(w.seq, 0);
  EXPECT_EQ(w.start, 5 * kMinute);
  EXPECT_EQ(w.Find("c")->value, 7);
  EXPECT_EQ(w.Find("c")->delta, 7);
  // Every baseline restarts at zero, gauges included: the first window
  // after a reset reports the gauge's whole reading as its delta.
  EXPECT_EQ(w.Find("g")->delta, 50);
  // The windowed percentiles see only the post-reset sample.
  EXPECT_EQ(w.Find("lat")->win_count, 1);
  EXPECT_GT(w.Find("lat")->win_p50, 50 * kMillisecond);
}

TEST(MetricsTimeSeriesTest, FinalPartialWindowIsMarked) {
  MetricsRegistry m;
  m.AddCounter("c");
  const MetricsTimeSeries& series = m.series();
  m.Capture(kMinute);
  m.Capture(kMinute + 17 * kSecond, /*final_partial=*/true);
  EXPECT_FALSE(series.window(0).final_partial);
  EXPECT_TRUE(series.window(1).final_partial);
  EXPECT_EQ(series.window(1).end - series.window(1).start, 17 * kSecond);
}

TEST(FormatMetricsWindowTest, RendersDocumentedV2Format) {
  MetricsRegistry m;
  m.AddCounter("rpc.calls")->Add(9);
  m.AddGauge("sim.queue.pending", [] { return int64_t{4}; });
  LatencyRecorder* rec = m.AddLatency("rpc.open.latency_us");
  rec->Record(1000);
  rec->Record(3000);
  const MetricsTimeSeries& series = m.series();
  m.Capture(3 * kSecond);
  const std::string text = FormatMetricsWindow(series.window(0));
  EXPECT_NE(text.find("# sprite-metrics v2\n"), std::string::npos);
  EXPECT_NE(text.find("window seq=0 t_start_us=0 t_end_us=3000000 final_partial=0\n"),
            std::string::npos);
  EXPECT_NE(text.find("counter rpc.calls 9 delta=9 rate_hz=3.000\n"), std::string::npos);
  EXPECT_NE(text.find("gauge sim.queue.pending 4 delta=4\n"), std::string::npos);
  EXPECT_NE(text.find("latency rpc.open.latency_us count=2 total_us=4000"),
            std::string::npos);
  EXPECT_NE(text.find("win_count=2 win_total_us=4000"), std::string::npos);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

}  // namespace
}  // namespace sprite
