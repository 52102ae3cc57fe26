#include "src/obs/tracer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace sprite {
namespace {

// A local decoded copy of the tracer's span log, for indexed assertions.
std::vector<Span> Decoded(const SpanTracer& tracer) {
  return {tracer.spans().begin(), tracer.spans().end()};
}

TEST(SpanTracerTest, TrackHelpersFollowPidConvention) {
  EXPECT_EQ(ClientTrack(3).pid, kClientPidBase + 3);
  EXPECT_EQ(ServerTrack(1).pid, kServerPidBase + 1);
  EXPECT_EQ(ClientTrack(0).tid, 1);
}

TEST(SpanTracerTest, EmitRecordsSpansInOrder) {
  SpanTracer tracer;
  tracer.Emit("open", "rpc", ClientTrack(0), 100, 50, {{"server", 2}, {"bytes", 128}});
  tracer.Emit("read-block", "rpc", ClientTrack(1), 200, 7000);
  ASSERT_EQ(tracer.spans().size(), 2u);
  const std::vector<Span> spans = Decoded(tracer);
  ASSERT_EQ(spans.size(), 2u);
  const Span& s = spans[0];
  EXPECT_STREQ(s.name, "open");
  EXPECT_STREQ(s.category, "rpc");
  EXPECT_EQ(s.start, 100);
  EXPECT_EQ(s.duration, 50);
  ASSERT_EQ(s.num_args, 2);
  EXPECT_STREQ(s.args[0].key, "server");
  EXPECT_EQ(s.args[0].value, 2);
  EXPECT_EQ(spans[1].num_args, 0);
}

TEST(SpanTracerTest, ExtraArgsBeyondMaxAreDropped) {
  SpanTracer tracer;
  tracer.Emit("x", "c", ClientTrack(0), 0, 0,
              {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}, {"g", 7}});
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans().begin()->num_args, Span::kMaxArgs);
}

TEST(SpanTracerTest, ResetDropsSpansButKeepsTrackNames) {
  SpanTracer tracer;
  tracer.SetProcessName(ClientTrack(0).pid, "client 0");
  tracer.Emit("open", "rpc", ClientTrack(0), 0, 1);
  tracer.Reset();
  EXPECT_TRUE(tracer.spans().empty());
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  EXPECT_NE(out.str().find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.str().find("client 0"), std::string::npos);
}

TEST(SpanTracerTest, WritesChromeTraceEventJson) {
  SpanTracer tracer;
  tracer.SetProcessName(ClientTrack(0).pid, "client 0");
  tracer.Emit("read-block", "rpc", ClientTrack(0), 1500, 6500, {{"bytes", 4096}});
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);  // starts the array
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"X\",\"name\":\"read-block\",\"cat\":\"rpc\",\"pid\":100,"
                      "\"tid\":1,\"ts\":1500,\"dur\":6500,\"args\":{\"bytes\":4096}}"),
            std::string::npos);
}

TEST(SpanTracerTest, EscapesControlAndQuoteCharactersInNames) {
  SpanTracer tracer;
  tracer.SetProcessName(7, "we\"ird\\name\n");
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

TEST(SpanTracerTest, ExportsMetricsHistoryAsCounterEvents) {
  MetricsRegistry metrics;
  metrics.AddCounter("rpc.calls")->Add(12);
  metrics.AddGauge("sim.queue.pending", [] { return int64_t{3}; });
  metrics.AddLatency("rpc.open.latency_us")->Record(100);
  metrics.Capture(60000000);

  SpanTracer tracer;
  std::ostringstream out;
  tracer.WriteChromeTrace(out, &metrics);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"ph\":\"C\",\"name\":\"rpc.calls\",\"pid\":9999,\"tid\":0,"
                      "\"ts\":60000000,\"args\":{\"value\":12}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"sim.queue.pending\""), std::string::npos);
  // Latency samples are distributions, not counter tracks.
  EXPECT_EQ(json.find("\"rpc.open.latency_us\""), std::string::npos);
  // The synthetic metrics process is named.
  EXPECT_NE(json.find("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":9999"),
            std::string::npos);
}

TEST(CounterTrackPidTest, RoutesPrefixedNamesToComponentTracks) {
  EXPECT_EQ(CounterTrackPid("server.0.queue_depth"), kServerPidBase + 0);
  EXPECT_EQ(CounterTrackPid("server.12.bytes_homed"), kServerPidBase + 12);
  EXPECT_EQ(CounterTrackPid("client.3.cache_bytes"), kClientPidBase + 3);
  // Unprefixed and cluster-wide names stay on the synthetic metrics track.
  EXPECT_EQ(CounterTrackPid("rpc.calls"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("sim.queue.pending"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("hotspot.episodes"), kMetricsPid);
  // Malformed near-misses must not route: no id, no dot after the id, or a
  // non-numeric id.
  EXPECT_EQ(CounterTrackPid("server."), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("server.7"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("server.x.queue"), kMetricsPid);
  EXPECT_EQ(CounterTrackPid("servers.0.queue"), kMetricsPid);
}

TEST(CounterTrackPidTest, GaugesExportOnPerServerTracks) {
  MetricsRegistry metrics;
  metrics.AddGauge("server.1.queue_depth", [] { return int64_t{4}; });
  metrics.Capture(1000);
  SpanTracer tracer;
  std::ostringstream out;
  tracer.WriteChromeTrace(out, &metrics);
  const std::string json = out.str();
  EXPECT_NE(json.find("{\"ph\":\"C\",\"name\":\"server.1.queue_depth\",\"pid\":1001,"),
            std::string::npos);
}

TEST(SpanTracerTest, SpanEqualityComparesContentNotPointers) {
  const std::string name1 = "open";
  const std::string name2 = "open";  // distinct storage, equal content
  SpanTracer a;
  SpanTracer b;
  a.Emit(name1.c_str(), "rpc", ClientTrack(0), 10, 20);
  b.Emit(name2.c_str(), "rpc", ClientTrack(0), 10, 20);
  EXPECT_TRUE(*a.spans().begin() == *b.spans().begin());
}

}  // namespace
}  // namespace sprite
