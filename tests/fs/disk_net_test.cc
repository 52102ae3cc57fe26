#include <gtest/gtest.h>

#include "src/fs/disk.h"
#include "src/fs/net.h"

namespace sprite {
namespace {

TEST(DiskTest, AccessTimeIncludesPositioningAndTransfer) {
  DiskConfig config;
  config.access_time = 25 * kMillisecond;
  config.bandwidth_bytes_per_sec = 1.0e6;
  Disk disk(config);
  // 4 KB at 1 MB/s = ~4.1 ms transfer on top of 25 ms positioning.
  const SimDuration t = disk.AccessTime(4096);
  EXPECT_GT(t, 25 * kMillisecond);
  EXPECT_LT(t, 35 * kMillisecond);
}

TEST(DiskTest, CountsTraffic) {
  Disk disk(DiskConfig{});
  disk.Read(4096);
  disk.Read(4096);
  disk.Write(1000);
  EXPECT_EQ(disk.reads(), 2);
  EXPECT_EQ(disk.writes(), 1);
  EXPECT_EQ(disk.bytes_read(), 8192);
  EXPECT_EQ(disk.bytes_written(), 1000);
  EXPECT_GT(disk.busy_time(), 0);
}

TEST(NetworkTest, BlockFetchMatchesPaperLatency) {
  // The paper: fetching a 4-Kbyte page from a server's cache over the
  // Ethernet takes about 6 to 7 ms.
  Network net(NetworkConfig{});
  const SimDuration t = net.RpcTime(4096);
  EXPECT_GE(t, 6 * kMillisecond);
  EXPECT_LE(t, 7 * kMillisecond);
}

TEST(NetworkTest, CountsRpcsAndBytes) {
  Network net(NetworkConfig{});
  net.Transfer(0, 0, 4096, 0);
  net.Transfer(0, 0, 128, 0);
  EXPECT_EQ(net.rpc_count(), 2);
  EXPECT_EQ(net.bytes_carried(), 4096 + 128);
}

TEST(NetworkTest, UtilizationFortyClientsPagingIsSmall) {
  // The paper: 40 workstations generate ~42 KB/s of paging traffic, a few
  // percent of Ethernet bandwidth. Utilization counts both the payload
  // transfer time and the fixed per-RPC protocol overhead (the medium is
  // occupied for both), so 10 page-sized RPCs over one second come to
  // ~6.4%, still "small".
  Network net(NetworkConfig{});
  const SimDuration elapsed = kSecond;
  // 42 KB over one second.
  for (int i = 0; i < 10; ++i) {
    net.Transfer(0, 0, 4300, 0);
  }
  const double util = net.Utilization(elapsed);
  EXPECT_NEAR(util, 0.0644, 0.001);
}

TEST(NetworkTest, BusyTimeSplitsOverheadAndTransfer) {
  // Regression for the busy-time accounting bug: the fixed rpc_latency
  // overhead used to be dropped from busy_time(), under-reporting
  // utilization on control-RPC-heavy workloads. Pin hand-computed values
  // with the defaults (3 ms overhead, 1.25 MB/s bandwidth).
  Network net(NetworkConfig{});
  for (int i = 0; i < 10; ++i) {
    net.Transfer(0, 0, 4300, 0);
  }
  // Overhead: 10 RPCs x 3 ms = 30 ms.
  EXPECT_EQ(net.overhead_busy_time(), 30 * kMillisecond);
  // Transfer: 10 x 4300 bytes / 1.25e6 B/s = 34400 us.
  EXPECT_EQ(net.transfer_busy_time(), 34400);
  EXPECT_EQ(net.busy_time(), 30 * kMillisecond + 34400);

  // A zero-payload control RPC still occupies the medium for the overhead.
  Network control(NetworkConfig{});
  control.Transfer(0, 0, 0, 0);
  EXPECT_EQ(control.overhead_busy_time(), 3 * kMillisecond);
  EXPECT_EQ(control.transfer_busy_time(), 0);
  EXPECT_GT(control.Utilization(kSecond), 0.0);
}

TEST(NetworkTest, ZeroElapsedUtilization) {
  Network net(NetworkConfig{});
  EXPECT_DOUBLE_EQ(net.Utilization(0), 0.0);
}

TEST(NetworkTest, BusyTimeEqualsSumOfReturnedLatencies) {
  // Regression: the analytic path used to compute the transfer term twice
  // (once via RpcTime for the returned latency, once inline for busy-time),
  // so a rounding or bandwidth change could make them drift. They are now
  // the same computation, so the sum of returned latencies is exactly the
  // busy time (payload mix chosen to exercise truncating divisions).
  Network net(NetworkConfig{});
  SimDuration returned = 0;
  for (const int64_t payload : {int64_t{0}, int64_t{7}, int64_t{100}, int64_t{4096},
                                int64_t{4300}, int64_t{100000}, int64_t{12345}}) {
    returned += net.Transfer(0, 0, payload, 0).latency;
  }
  EXPECT_EQ(net.busy_time(), returned);
}

TEST(NetworkTest, UtilizationClampsAndFlagsSaturation) {
  // Regression: Utilization() silently returned >1.0 once overlapping
  // transfers accumulated more busy time than wall time. It now clamps,
  // with the overshoot visible via RawUtilization()/Saturated().
  Network net(NetworkConfig{});
  for (int i = 0; i < 10; ++i) {
    net.Transfer(0, 0, 4300, 0);  // ~64.4 ms busy
  }
  const SimDuration short_window = 10 * kMillisecond;
  EXPECT_DOUBLE_EQ(net.Utilization(short_window), 1.0);
  EXPECT_GT(net.RawUtilization(short_window), 1.0);
  EXPECT_TRUE(net.Saturated(short_window));
  // The healthy case is untouched by the clamp.
  EXPECT_NEAR(net.Utilization(kSecond), 0.0644, 0.001);
  EXPECT_FALSE(net.Saturated(kSecond));
}

TEST(NetworkTest, AnalyticTransferMatchesRpc) {
  // With contention off, Transfer() is the analytic RpcTime() cost whatever
  // the link or the time: no queueing, and the busy time is the latency.
  Network a(NetworkConfig{});
  Network b(NetworkConfig{});
  const Network::WireOutcome out = a.Transfer(0, 0, 4096, 123456);
  EXPECT_EQ(out.latency, a.RpcTime(4096));
  EXPECT_EQ(b.Transfer(5, 3, 4096, 0).latency, out.latency);
  EXPECT_EQ(out.queued, 0);
  EXPECT_EQ(out.pacing, 0);
  EXPECT_EQ(out.retransmits, 0);
  EXPECT_EQ(a.busy_time(), out.latency);
  EXPECT_EQ(a.busy_time(), b.busy_time());
  EXPECT_EQ(a.rpc_count(), 1);
}

TEST(NetworkTest, ContendedTransfersQueueOnLinkAndMedium) {
  NetworkConfig config;
  config.contention = true;
  Network net(config);
  // First transfer at t=0 finds everything idle.
  const Network::WireOutcome first = net.Transfer(0, 0, 4096, 0);
  EXPECT_EQ(first.queued, 0);
  // A different client at the same instant shares the medium and must wait
  // for the first transmission to clear it.
  const Network::WireOutcome second = net.Transfer(1, 0, 4096, 0);
  EXPECT_GT(second.queued, 0);
  EXPECT_EQ(net.contended_transfers(), 1);
  EXPECT_EQ(net.queued_time(), second.queued);
  // Same client again: now queued behind its own link too.
  const Network::WireOutcome third = net.Transfer(0, 0, 4096, 0);
  EXPECT_GT(third.queued, second.queued);
}

TEST(NetworkTest, WiderMediumReducesCrossLinkQueueing) {
  NetworkConfig wide;
  wide.contention = true;
  wide.medium_capacity = 4.0;
  Network net(wide);
  net.Transfer(0, 0, 4096, 0);
  // Distinct links on a 4x medium: the second transfer waits only a quarter
  // of the first one's wire occupancy.
  const Network::WireOutcome second = net.Transfer(1, 0, 4096, 0);
  NetworkConfig narrow;
  narrow.contention = true;
  Network ref(narrow);
  ref.Transfer(0, 0, 4096, 0);
  const Network::WireOutcome narrow_second = ref.Transfer(1, 0, 4096, 0);
  EXPECT_LT(second.queued, narrow_second.queued);
}

TEST(NetworkTest, LossIsDeterministicAndPaysRetransmits) {
  NetworkConfig config;
  config.contention = true;
  config.loss_rate = 0.9;
  Network a(config);
  Network b(config);
  int total_retransmits = 0;
  for (int i = 0; i < 20; ++i) {
    const Network::WireOutcome oa = a.Transfer(0, 0, 4096, i * kSecond);
    const Network::WireOutcome ob = b.Transfer(0, 0, 4096, i * kSecond);
    // Same seed-free deterministic hash stream: identical outcomes.
    EXPECT_EQ(oa.latency, ob.latency);
    EXPECT_EQ(oa.retransmits, ob.retransmits);
    total_retransmits += oa.retransmits;
  }
  EXPECT_GT(total_retransmits, 0);
  EXPECT_EQ(a.retransmits(), total_retransmits);
  // A transfer that lost packets costs strictly more than the clean wire
  // time (timeout stall plus the resend).
  const Network::WireOutcome lossy = a.Transfer(0, 0, 4096, 1000 * kSecond);
  if (lossy.retransmits > 0) {
    EXPECT_GT(lossy.latency, a.RpcTime(4096));
  }
}

TEST(NetworkTest, PacerChargesExtraWindowsAndOpensCwnd) {
  NetworkConfig config;
  config.contention = true;
  config.mss_bytes = 1500;
  config.cwnd_initial = 2;
  config.cwnd_max = 64;
  Network net(config);
  // 12000 bytes = 8 segments; cwnd 2 -> ceil... (8-1)/2 = 3 extra windows,
  // each one rpc_latency.
  const Network::WireOutcome first = net.Transfer(0, 0, 12000, 0);
  EXPECT_EQ(first.pacing, 3 * config.rpc_latency);
  // Loss-free transfers open the window, shrinking the pacing stall.
  const Network::WireOutcome second = net.Transfer(0, 0, 12000, 10 * kSecond);
  EXPECT_LT(second.pacing, first.pacing);
  // A small transfer never paces.
  EXPECT_EQ(net.Transfer(0, 0, 128, 20 * kSecond).pacing, 0);
}

}  // namespace
}  // namespace sprite
