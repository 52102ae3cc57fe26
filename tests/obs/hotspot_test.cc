#include "src/obs/hotspot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/observability.h"
#include "src/util/units.h"

namespace sprite {
namespace {

// Two-server signal row: server 0 carries `hot_p99` queue wait and ten times
// the homed bytes; server 1 idles. This satisfies both the ratio and the
// placement gate whenever hot_p99 clears the absolute floor.
std::vector<HotspotSignal> SkewedPair(SimDuration hot_p99) {
  std::vector<HotspotSignal> signals(2);
  signals[0].queue_p99 = hot_p99;
  signals[0].bytes_homed = 10 * kMegabyte;
  signals[0].queue_depth = 7;
  signals[1].queue_p99 = 10;
  signals[1].bytes_homed = 1 * kMegabyte;
  return signals;
}

std::vector<HotspotSignal> QuietPair() {
  std::vector<HotspotSignal> signals(2);
  signals[0].queue_p99 = 10;
  signals[0].bytes_homed = 10 * kMegabyte;
  signals[1].queue_p99 = 10;
  signals[1].bytes_homed = 1 * kMegabyte;
  return signals;
}

void ObserveAt(HotspotDetector& det, int window, const std::vector<HotspotSignal>& signals) {
  det.Observe(window * kMinute, (window + 1) * kMinute, signals);
}

TEST(HotspotDetectorTest, SustainedOutlierFlaggedWithCorrectExtent) {
  HotspotDetector det(HotspotConfig{}, 2);
  ObserveAt(det, 0, SkewedPair(10 * kMillisecond));
  ObserveAt(det, 1, SkewedPair(20 * kMillisecond));
  EXPECT_FALSE(det.active(0));  // two hot windows < sustain_windows
  ObserveAt(det, 2, SkewedPair(5 * kMillisecond));
  EXPECT_TRUE(det.active(0));
  EXPECT_FALSE(det.active(1));
  det.Finalize();
  EXPECT_FALSE(det.active(0));
  ASSERT_EQ(det.episodes().size(), 1u);
  const HotspotEpisode& e = det.episodes()[0];
  EXPECT_EQ(e.server, 0);
  EXPECT_EQ(e.start, 0);
  EXPECT_EQ(e.end, 3 * kMinute);
  EXPECT_EQ(e.windows, 3);
  EXPECT_EQ(e.peak_queue_p99, 20 * kMillisecond);
  EXPECT_EQ(e.peak_queue_depth, 7);
  EXPECT_GE(e.peak_homed_ratio, 9.9);
  EXPECT_EQ(det.hot_server_windows(), 3);
  EXPECT_EQ(det.windows_observed(), 3);
}

TEST(HotspotDetectorTest, BriefSpikeIsNotFlagged) {
  HotspotDetector det(HotspotConfig{}, 2);
  ObserveAt(det, 0, SkewedPair(50 * kMillisecond));
  ObserveAt(det, 1, SkewedPair(50 * kMillisecond));
  for (int w = 2; w < 8; ++w) {
    ObserveAt(det, w, QuietPair());
  }
  det.Finalize();
  EXPECT_TRUE(det.episodes().empty());
  EXPECT_EQ(det.hot_server_windows(), 0);
}

TEST(HotspotDetectorTest, AbsoluteFloorSuppressesTinySkew) {
  // 400 us vs 10 us is a 40x ratio, but nobody is actually waiting.
  HotspotDetector det(HotspotConfig{}, 2);
  for (int w = 0; w < 6; ++w) {
    ObserveAt(det, w, SkewedPair(400));
  }
  det.Finalize();
  EXPECT_TRUE(det.episodes().empty());
}

TEST(HotspotDetectorTest, BalancedPlacementGateSuppressesLoadBursts) {
  // Real queue pain, but the bytes are homed evenly: a load burst on a
  // balanced placement, not a placement hot spot.
  HotspotDetector det(HotspotConfig{}, 2);
  std::vector<HotspotSignal> signals(2);
  signals[0].queue_p99 = 100 * kMillisecond;
  signals[0].bytes_homed = 5 * kMegabyte;
  signals[1].queue_p99 = 10;
  signals[1].bytes_homed = 5 * kMegabyte;
  for (int w = 0; w < 6; ++w) {
    ObserveAt(det, w, signals);
  }
  det.Finalize();
  EXPECT_TRUE(det.episodes().empty());
}

TEST(HotspotDetectorTest, StreakToleratesLullsShorterThanCoolWindows) {
  // Bursty pattern hot/quiet/hot/quiet/quiet/hot: the default cool_windows=3
  // bridges one- and two-window lulls, so three hot windows accumulate.
  HotspotDetector det(HotspotConfig{}, 2);
  ObserveAt(det, 0, SkewedPair(10 * kMillisecond));
  ObserveAt(det, 1, QuietPair());
  ObserveAt(det, 2, SkewedPair(10 * kMillisecond));
  ObserveAt(det, 3, QuietPair());
  ObserveAt(det, 4, QuietPair());
  EXPECT_FALSE(det.active(0));
  ObserveAt(det, 5, SkewedPair(10 * kMillisecond));
  EXPECT_TRUE(det.active(0));
  det.Finalize();
  ASSERT_EQ(det.episodes().size(), 1u);
  const HotspotEpisode& e = det.episodes()[0];
  EXPECT_EQ(e.windows, 3);           // hot windows only; lulls are covered
  EXPECT_EQ(e.start, 0);
  EXPECT_EQ(e.end, 6 * kMinute);     // last *hot* window's end
}

TEST(HotspotDetectorTest, LongLullClosesAndReheatingOpensSecondEpisode) {
  HotspotConfig config;
  config.sustain_windows = 2;
  config.cool_windows = 2;
  HotspotDetector det(config, 2);
  int w = 0;
  for (int i = 0; i < 2; ++i) {
    ObserveAt(det, w++, SkewedPair(10 * kMillisecond));
  }
  EXPECT_TRUE(det.active(0));
  for (int i = 0; i < 2; ++i) {
    ObserveAt(det, w++, QuietPair());  // cool_windows quiet windows close it
  }
  EXPECT_FALSE(det.active(0));
  ASSERT_EQ(det.episodes().size(), 1u);
  for (int i = 0; i < 2; ++i) {
    ObserveAt(det, w++, SkewedPair(30 * kMillisecond));
  }
  det.Finalize();
  ASSERT_EQ(det.episodes().size(), 2u);
  EXPECT_EQ(det.episodes()[1].start, 4 * kMinute);
  EXPECT_EQ(det.episodes()[1].peak_queue_p99, 30 * kMillisecond);
}

TEST(HotspotDetectorTest, SingleServerUsesFloorOnly) {
  HotspotDetector det(HotspotConfig{}, 1);
  std::vector<HotspotSignal> signals(1);
  signals[0].queue_p99 = 10 * kMillisecond;
  signals[0].bytes_homed = kMegabyte;
  for (int w = 0; w < 3; ++w) {
    det.Observe(w * kMinute, (w + 1) * kMinute, signals);
  }
  det.Finalize();
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].server, 0);
}

TEST(HotspotDetectorTest, SameInputsGiveSameEpisodesAfterReset) {
  HotspotDetector det(HotspotConfig{}, 2);
  auto drive = [&det] {
    ObserveAt(det, 0, SkewedPair(10 * kMillisecond));
    ObserveAt(det, 1, QuietPair());
    ObserveAt(det, 2, SkewedPair(20 * kMillisecond));
    ObserveAt(det, 3, SkewedPair(5 * kMillisecond));
    det.Finalize();
  };
  drive();
  ASSERT_EQ(det.episodes().size(), 1u);
  const HotspotEpisode first = det.episodes()[0];
  det.Reset();
  EXPECT_TRUE(det.episodes().empty());
  EXPECT_EQ(det.windows_observed(), 0);
  drive();
  ASSERT_EQ(det.episodes().size(), 1u);
  EXPECT_EQ(det.episodes()[0].start, first.start);
  EXPECT_EQ(det.episodes()[0].end, first.end);
  EXPECT_EQ(det.episodes()[0].windows, first.windows);
  EXPECT_EQ(det.episodes()[0].peak_queue_p99, first.peak_queue_p99);
}

TEST(HotspotDetectorTest, EmitsCountersAndSpanThroughObservability) {
  ObservabilityConfig config;
  config.metrics = true;
  config.tracing = true;
  Observability obs(config);
  HotspotDetector det(HotspotConfig{}, 2);
  det.AttachObservability(&obs);
  for (int w = 0; w < 4; ++w) {
    ObserveAt(det, w, SkewedPair(10 * kMillisecond));
  }
  // Episode still open: Finalize must close it and emit the span.
  EXPECT_TRUE(obs.tracer().spans().empty());
  det.Finalize();
  ASSERT_EQ(obs.tracer().spans().size(), 1u);
  const Span span = *obs.tracer().spans().begin();
  EXPECT_STREQ(span.name, "hotspot");
  EXPECT_EQ(span.track.pid, ServerTrack(0).pid);
  ASSERT_NE(obs.metrics().FindCounter("hotspot.windows_flagged"), nullptr);
  EXPECT_EQ(obs.metrics().FindCounter("hotspot.windows_flagged")->value(), 4);
  EXPECT_EQ(obs.metrics().FindCounter("hotspot.episodes")->value(), 1);
}

TEST(HotspotDetectorTest, TakeEpisodesDeliversOpenAndCloseEdges) {
  HotspotConfig config;
  config.sustain_windows = 2;
  config.cool_windows = 2;
  HotspotDetector det(config, 2);
  // Ramp toward the streak: nothing pending until sustain is reached.
  ObserveAt(det, 0, SkewedPair(10 * kMillisecond));
  EXPECT_TRUE(det.TakeEpisodes().empty());
  ObserveAt(det, 1, SkewedPair(20 * kMillisecond));
  std::vector<HotspotEvent> events = det.TakeEpisodes();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HotspotEvent::Kind::kOpened);
  EXPECT_EQ(events[0].episode.server, 0);
  EXPECT_EQ(events[0].episode.windows, 2);  // the streak so far, at open time
  EXPECT_EQ(events[0].episode.peak_queue_p99, 20 * kMillisecond);
  // The drain is consuming: a second Take returns nothing new.
  EXPECT_TRUE(det.TakeEpisodes().empty());
  // A one-window lull inside the streak (cool_windows = 2 tolerates it)
  // produces NO close event — the episode is still open.
  ObserveAt(det, 2, QuietPair());
  EXPECT_TRUE(det.TakeEpisodes().empty());
  ObserveAt(det, 3, SkewedPair(5 * kMillisecond));
  EXPECT_TRUE(det.TakeEpisodes().empty());  // still the same open episode
  // cool_windows consecutive quiet windows close it.
  ObserveAt(det, 4, QuietPair());
  ObserveAt(det, 5, QuietPair());
  events = det.TakeEpisodes();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HotspotEvent::Kind::kClosed);
  EXPECT_EQ(events[0].episode.server, 0);
  EXPECT_EQ(events[0].episode.windows, 3);        // lull windows don't count
  EXPECT_EQ(events[0].episode.end, 4 * kMinute);  // last *hot* window's end
  EXPECT_TRUE(det.TakeEpisodes().empty());
}

TEST(HotspotDetectorTest, TakeEpisodesFinalizeClosesOpenEpisode) {
  HotspotDetector det(HotspotConfig{}, 2);
  for (int w = 0; w < 3; ++w) {
    ObserveAt(det, w, SkewedPair(10 * kMillisecond));
  }
  std::vector<HotspotEvent> events = det.TakeEpisodes();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HotspotEvent::Kind::kOpened);
  det.Finalize();
  events = det.TakeEpisodes();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, HotspotEvent::Kind::kClosed);
}

TEST(HotspotDetectorTest, TakeEpisodesResetDropsPendingEvents) {
  HotspotDetector det(HotspotConfig{}, 2);
  for (int w = 0; w < 3; ++w) {
    ObserveAt(det, w, SkewedPair(10 * kMillisecond));
  }
  det.Reset();  // warmup discard: the un-drained open event dies with it
  EXPECT_TRUE(det.TakeEpisodes().empty());
}

TEST(HotspotDetectorTest, GrowToTracksAddedServers) {
  HotspotDetector det(HotspotConfig{}, 2);
  det.GrowTo(3);
  // Three-server signals: the new server 2 runs hot, the others idle.
  std::vector<HotspotSignal> signals(3);
  signals[2].queue_p99 = 10 * kMillisecond;
  signals[2].bytes_homed = 10 * kMegabyte;
  signals[0].queue_p99 = 10;
  signals[0].bytes_homed = kMegabyte;
  signals[1].queue_p99 = 10;
  signals[1].bytes_homed = kMegabyte;
  for (int w = 0; w < 3; ++w) {
    det.Observe(w * kMinute, (w + 1) * kMinute, signals);
  }
  EXPECT_TRUE(det.active(2));
  const std::vector<HotspotEvent> events = det.TakeEpisodes();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].episode.server, 2);
  det.GrowTo(2);  // shrink requests are ignored
  EXPECT_TRUE(det.active(2));
}

TEST(HotspotDetectorTest, ReportNamesFlaggedServerAndRules) {
  HotspotDetector det(HotspotConfig{}, 2);
  for (int w = 0; w < 3; ++w) {
    ObserveAt(det, w, SkewedPair(10 * kMillisecond));
  }
  det.Finalize();
  const std::string report = det.Report();
  EXPECT_NE(report.find("== Hot-spot report =="), std::string::npos);
  EXPECT_NE(report.find("rules:"), std::string::npos);
  EXPECT_NE(report.find("server 0: HOT"), std::string::npos);
  EXPECT_EQ(report.find("no hot spots detected"), std::string::npos);

  HotspotDetector quiet(HotspotConfig{}, 2);
  ObserveAt(quiet, 0, QuietPair());
  quiet.Finalize();
  EXPECT_NE(quiet.Report().find("no hot spots detected"), std::string::npos);
}

}  // namespace
}  // namespace sprite
