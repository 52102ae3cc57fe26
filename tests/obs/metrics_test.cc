#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "src/util/units.h"

namespace sprite {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(LatencyRecorderTest, CountAndTotalAreExact) {
  LatencyRecorder rec;
  rec.Record(100);
  rec.Record(2500);
  rec.Record(7 * kSecond);
  EXPECT_EQ(rec.count(), 3);
  EXPECT_EQ(rec.total(), 100 + 2500 + 7 * kSecond);
}

TEST(LatencyRecorderTest, QuantilesBracketRecordedRange) {
  LatencyRecorder rec;
  for (int i = 0; i < 1000; ++i) {
    rec.Record(1000);  // 1 ms
  }
  const SimDuration p50 = rec.Quantile(0.5);
  const SimDuration p99 = rec.Quantile(0.99);
  // Log buckets at base 1.25 give ~±25% resolution around the true value.
  EXPECT_GT(p50, 700);
  EXPECT_LT(p50, 1400);
  EXPECT_GE(p99, p50);
}

TEST(LatencyRecorderTest, EmptyAndAllZeroQuantilesAreZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Quantile(0.5), 0);
  rec.Record(0);  // ledger-only RPCs cost no time
  rec.Record(0);
  EXPECT_EQ(rec.count(), 2);
  EXPECT_EQ(rec.total(), 0);
  EXPECT_EQ(rec.Quantile(0.5), 0);
}

TEST(LatencyRecorderTest, ResetClearsEverything) {
  LatencyRecorder rec;
  rec.Record(5000);
  rec.Reset();
  EXPECT_EQ(rec.count(), 0);
  EXPECT_EQ(rec.total(), 0);
  EXPECT_EQ(rec.Quantile(0.9), 0);
}

TEST(MetricsRegistryTest, CounterAndLatencyRegistrationIsIdempotent) {
  MetricsRegistry m;
  Counter* a = m.AddCounter("cache.miss_fills");
  Counter* b = m.AddCounter("cache.miss_fills");
  EXPECT_EQ(a, b);  // N clients share one cluster-wide counter
  LatencyRecorder* r1 = m.AddLatency("rpc.open.latency_us");
  LatencyRecorder* r2 = m.AddLatency("rpc.open.latency_us");
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(m.instrument_count(), 2u);
}

TEST(MetricsRegistryTest, FindLooksUpByName) {
  MetricsRegistry m;
  m.AddCounter("a")->Add(7);
  m.AddLatency("b")->Record(10);
  ASSERT_NE(m.FindCounter("a"), nullptr);
  EXPECT_EQ(m.FindCounter("a")->value(), 7);
  ASSERT_NE(m.FindLatency("b"), nullptr);
  EXPECT_EQ(m.FindLatency("b")->count(), 1);
  EXPECT_EQ(m.FindCounter("missing"), nullptr);
  EXPECT_EQ(m.FindLatency("missing"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotOrdersCountersGaugesLatencies) {
  MetricsRegistry m;
  m.AddLatency("z.lat")->Record(500);
  m.AddGauge("gauge", [] { return int64_t{11}; });
  m.AddCounter("count")->Add(3);
  m.AddLatency("a.lat")->Record(20);  // registered after z.lat, named before it
  const MetricsWindow& w = m.Capture(1234);
  ASSERT_EQ(w.samples.size(), 4u);
  EXPECT_EQ(w.end, 1234);
  EXPECT_EQ(w.samples[0].name, "count");
  EXPECT_EQ(w.samples[0].kind, WindowSample::Kind::kCounter);
  EXPECT_EQ(w.samples[0].value, 3);
  EXPECT_EQ(w.samples[1].name, "gauge");
  EXPECT_EQ(w.samples[1].kind, WindowSample::Kind::kGauge);
  EXPECT_EQ(w.samples[1].value, 11);
  // Latencies in registration order, not name order.
  EXPECT_EQ(w.samples[2].name, "z.lat");
  EXPECT_EQ(w.samples[2].kind, WindowSample::Kind::kLatency);
  EXPECT_EQ(w.samples[2].count, 1);
  EXPECT_EQ(w.samples[2].total, 500);
  EXPECT_EQ(w.samples[2].win_count, 1);
  EXPECT_EQ(w.samples[3].name, "a.lat");
  EXPECT_EQ(w.samples[3].count, 1);
  EXPECT_EQ(w.samples[3].win_total, 20);
}

TEST(MetricsRegistryTest, GaugeReRegistrationReplacesReader) {
  MetricsRegistry m;
  m.AddGauge("g", [] { return int64_t{1}; });
  m.AddGauge("g", [] { return int64_t{2}; });
  const MetricsWindow& w = m.Capture(0);
  ASSERT_EQ(w.samples.size(), 1u);
  EXPECT_EQ(w.samples[0].value, 2);
}

TEST(MetricsRegistryTest, HistoryAndReset) {
  MetricsRegistry m;
  Counter* c = m.AddCounter("c");
  c->Add(5);
  m.Capture(10);
  m.Capture(20);
  ASSERT_EQ(m.series().size(), 2u);
  EXPECT_EQ(m.series().window(1).end, 20);
  m.Reset(30);
  EXPECT_EQ(m.series().size(), 0u);
  EXPECT_EQ(m.series().last_capture_time(), 30);
  EXPECT_EQ(c->value(), 0);               // zeroed, not unregistered
  EXPECT_EQ(m.instrument_count(), 1u);
}

}  // namespace
}  // namespace sprite
