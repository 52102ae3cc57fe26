// Replication property: a fail-over preserves exactly the dirty bytes the
// primary's server cache held when it crashed. Seeded single-owner write
// traffic runs with the cleaners on and a server cache small enough to
// replace dirty blocks, so every path that puts a dirty block on the
// primary's disk (cleaner, replacement) must drop the standby's extent for
// it. Only a file's owner opens it, so no write is a pass-through (those
// are not shadowed), and nothing is deleted or truncated, so no shadow
// extent is thrown away.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/fs/cluster.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

class ShadowConservationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShadowConservationProperty, FailoverPreservesExactlyThePrimarysDirtyBytes) {
  ClusterConfig config;
  config.num_clients = 3;
  config.num_servers = 2;
  config.client.memory_bytes = 4 * kMegabyte;
  config.server.memory_bytes = 64 * kBlockSize;
  config.replication.enabled = true;
  EventQueue queue;
  Cluster cluster(config, queue);
  cluster.StartDaemons();
  Rng rng(GetParam());
  const int64_t steps = rng.NextInRange(200, 600);
  SimTime now = 0;
  for (int64_t step = 0; step < steps; ++step) {
    now += rng.NextInRange(0, 2 * kSecond);
    queue.RunUntil(now);
    const auto owner = static_cast<ClientId>(rng.NextBelow(3));
    // Client c owns files c*1000 + 2k: even ids, homed on server 0.
    const FileId file = owner * 1000 + 2 * rng.NextBelow(20);
    Client& client = cluster.client(owner);
    const auto open =
        client.Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, now);
    client.Write(open.handle, rng.NextInRange(1, 160 * kKilobyte), now);
    if (rng.NextBool(0.25)) {
      client.Fsync(open.handle, now);
    }
    client.Close(open.handle, now);
  }
  const int64_t dirty = cluster.CrashServer(0, 10 * kSecond);
  EXPECT_GT(dirty, 0) << "the crash must catch dirty bytes for the property to bite";
  EXPECT_GT(cluster.server(0).disk().writes(), 0) << "the primary flushed some blocks first";
  EXPECT_EQ(cluster.failovers(), 1);
  EXPECT_EQ(cluster.degraded_crashes(), 0);
  EXPECT_EQ(cluster.failover_preserved_bytes(), dirty)
      << "the standby must hold exactly the primary's at-risk bytes";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowConservationProperty, ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace sprite
