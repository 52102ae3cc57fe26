#include "src/fs/cluster.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace sprite {
namespace {

ClusterConfig SmallCluster(int clients = 3, int servers = 2) {
  ClusterConfig config;
  config.num_clients = clients;
  config.num_servers = servers;
  config.client.memory_bytes = 4 * kMegabyte;
  return config;
}

TEST(ClusterTest, ConstructionAndRouting) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  EXPECT_EQ(cluster.num_clients(), 3);
  EXPECT_EQ(cluster.num_servers(), 2);
  // Files partition across servers deterministically.
  EXPECT_EQ(cluster.ServerForFile(4).id(), 0u);
  EXPECT_EQ(cluster.ServerForFile(5).id(), 1u);
}

TEST(ClusterTest, RejectsEmptyConfig) {
  EventQueue queue;
  ClusterConfig config;
  config.num_clients = 0;
  EXPECT_THROW(Cluster cluster(config, queue), std::invalid_argument);
}

TEST(ClusterTest, TraceCollectsAcrossClients) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  for (int c = 0; c < 3; ++c) {
    auto open = cluster.client(c).Open(10 + c, 100 + c, OpenMode::kWrite, OpenDisposition::kNormal, false, c);
    cluster.client(c).Write(open.handle, 100, c);
    cluster.client(c).Close(open.handle, c);
  }
  const TraceLog& trace = cluster.trace();
  EXPECT_GE(trace.size(), 9u);  // create+open+close per client
  EXPECT_TRUE(IsTimeOrdered(trace));
}

TEST(ClusterTest, CleanerDaemonWritesBackAfterDelay) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  cluster.StartDaemons();
  auto open = cluster.client(0).Open(1, 2, OpenMode::kWrite, OpenDisposition::kNormal, false, queue.now());
  cluster.client(0).Write(open.handle, 1000, queue.now());
  cluster.client(0).Close(open.handle, queue.now());
  queue.RunUntil(20 * kSecond);
  EXPECT_EQ(cluster.ServerForFile(2).counters().file_write_bytes, 0);
  queue.RunUntil(40 * kSecond);
  EXPECT_EQ(cluster.ServerForFile(2).counters().file_write_bytes, 1000);
}

TEST(ClusterTest, CacheSizeSamplerRecords) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  cluster.StartDaemons(/*sample_period=*/kMinute);
  queue.RunUntil(3 * kMinute + kSecond);
  // 3 samples x 3 clients.
  EXPECT_EQ(cluster.cache_size_samples().size(), 9u);
}

TEST(ClusterTest, AggregateCountersSumClients) {
  EventQueue queue;
  Cluster cluster(SmallCluster(), queue);
  for (int c = 0; c < 3; ++c) {
    auto open = cluster.client(c).Open(1, 100 + c, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
    cluster.client(c).Write(open.handle, kBlockSize, 0);
    cluster.client(c).Close(open.handle, 0);
  }
  const CacheCounters agg = cluster.AggregateCacheCounters();
  EXPECT_EQ(agg.write_ops, 3);
  EXPECT_EQ(agg.bytes_written_by_apps, 3 * kBlockSize);
  const TrafficCounters traffic = cluster.AggregateTrafficCounters();
  EXPECT_EQ(traffic.file_write_cacheable, 3 * kBlockSize);
}

// --- The consistency guarantee, exercised as a property test ---------------
//
// "The result of these three techniques is that every read operation is
// guaranteed to return the most up-to-date data for the file." We model data
// as versions: after client A writes and closes, any other client that opens
// and reads must see A's bytes — meaning the server recalled A's dirty data
// or passed reads through. We verify the observable consequence: the
// sequence of sizes/versions seen at opens never goes backwards, and a
// reader's open after a writer's close always observes the writer's size.
TEST(ClusterTest, SequentialWriteSharingSeesLatestData) {
  EventQueue queue;
  Cluster cluster(SmallCluster(4, 1), queue);
  Rng rng(99);
  const FileId file = 42;
  int64_t last_written_size = 0;
  SimTime now = 0;
  for (int round = 0; round < 200; ++round) {
    now += kSecond / 10;
    const int writer = static_cast<int>(rng.NextBelow(4));
    const int64_t bytes = 100 + static_cast<int64_t>(rng.NextBelow(20000));
    auto wopen = cluster.client(writer).Open(1, file, OpenMode::kWrite,
                                             OpenDisposition::kTruncate, false, now);
    cluster.client(writer).Write(wopen.handle, bytes, now);
    cluster.client(writer).Close(wopen.handle, now);
    last_written_size = bytes;

    now += kSecond / 10;
    const int reader = static_cast<int>(rng.NextBelow(4));
    auto ropen = cluster.client(reader).Open(1, file, OpenMode::kRead, OpenDisposition::kNormal, false, now);
    // The open record captures the size the reader observed.
    const Record& open_record = cluster.trace().back();
    ASSERT_EQ(open_record.kind, RecordKind::kOpen);
    EXPECT_EQ(open_record.file_size, last_written_size)
        << "round " << round << ": reader must observe the most recent write";
    cluster.client(reader).Read(ropen.handle, last_written_size, now);
    cluster.client(reader).Close(ropen.handle, now);
  }
}

// Under concurrent write-sharing, caching is disabled so every read/write
// passes through to the server.
TEST(ClusterTest, ConcurrentWriteSharingPassesThrough) {
  EventQueue queue;
  Cluster cluster(SmallCluster(2, 1), queue);
  const FileId file = 5;
  auto a = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  cluster.client(0).Write(a.handle, 1000, 0);
  auto b = cluster.client(1).Open(2, file, OpenMode::kReadWrite, OpenDisposition::kNormal, false, 1);
  // Sharing began: client 1's subsequent I/O is uncacheable.
  cluster.client(1).Write(b.handle, 100, 2);
  cluster.client(0).Write(a.handle, 100, 3);
  const ServerCounters& sc = cluster.server(file % 1).counters();
  EXPECT_EQ(sc.write_sharing_opens, 1);
  EXPECT_EQ(sc.shared_write_bytes, 200);
  cluster.client(0).Close(a.handle, 4);
  cluster.client(1).Close(b.handle, 5);
  // After all closes, caching resumes for the next open.
  auto c = cluster.client(0).Open(1, file, OpenMode::kRead, OpenDisposition::kNormal, false, 6);
  cluster.client(0).Read(c.handle, 100, 6);
  cluster.client(0).Close(c.handle, 7);
  EXPECT_EQ(sc.shared_read_bytes, 0) << "post-sharing reads are cacheable again";
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  auto run = [] {
    EventQueue queue;
    Cluster cluster(SmallCluster(), queue);
    cluster.StartDaemons();
    Rng rng(7);
    SimTime now = 0;
    for (int i = 0; i < 100; ++i) {
      now += static_cast<SimTime>(rng.NextBelow(kSecond));
      queue.RunUntil(now);
      Client& client = cluster.client(static_cast<ClientId>(rng.NextBelow(3)));
      auto open = client.Open(1, rng.NextBelow(10), OpenMode::kReadWrite,
                              OpenDisposition::kNormal, false, now);
      client.Write(open.handle, 1 + static_cast<int64_t>(rng.NextBelow(30000)), now);
      client.Close(open.handle, now);
    }
    queue.RunUntil(now + kMinute);
    return cluster.TakeTrace();
  };
  const TraceLog t1 = run();
  const TraceLog t2 = run();
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace sprite
