// Moving a file's home — a replication fail-over or a live migration —
// with the file write-shared just before the move. The two moves install
// the open state on the new home through one path but with different
// cacheable rules: a migration carries the old home's verdict, while a
// fail-over recomputes it from the installed opens (so a file that stopped
// being write-shared becomes cacheable again before every client has
// closed it). The callback and data-path RPC counts pin both rules.

#include <gtest/gtest.h>

#include <string>

#include "src/fs/cluster.h"

namespace sprite {
namespace {

enum class Move { kFailover, kMigration };

class HomeMoveTest : public ::testing::TestWithParam<Move> {};

TEST_P(HomeMoveTest, WriteSharedFileMovesWithItsConsistencyState) {
  const Move move = GetParam();
  ClusterConfig config;
  config.num_clients = 3;
  config.num_servers = 2;
  config.client.memory_bytes = 4 * kMegabyte;
  config.replication.enabled = move == Move::kFailover;
  config.rebalance.enabled = move == Move::kMigration;
  EventQueue queue;
  Cluster cluster(config, queue);
  const FileId file = 4;  // modulo, 2 servers: home 0
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  Client& c2 = cluster.client(2);

  auto first = c0.Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  c0.Write(first.handle, 3 * kBlockSize, 0);
  c0.Close(first.handle, kSecond);

  auto writer = c0.Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, 2 * kSecond);
  auto reader = c1.Open(2, file, OpenMode::kRead, OpenDisposition::kNormal, false, 3 * kSecond);
  c0.Close(writer.handle, 4 * kSecond);
  if (move == Move::kFailover) {
    cluster.CrashServer(0, 10 * kSecond);
    ASSERT_EQ(cluster.failovers(), 1);
  } else {
    ASSERT_EQ(cluster.MigrateOffServer(0, 5 * kSecond), 1);
  }

  auto late = c2.Open(3, file, OpenMode::kRead, OpenDisposition::kNormal, false, 20 * kSecond);
  c2.Read(late.handle, 3 * kBlockSize, 20 * kSecond);
  c1.Read(reader.handle, 3 * kBlockSize, 21 * kSecond);
  c2.Close(late.handle, 22 * kSecond);
  c1.Close(reader.handle, 23 * kSecond);

  const RpcLedger& ledger = cluster.rpc_ledger();
  EXPECT_EQ(ledger.stat(RpcKind::kCacheDisable).calls, 2);
  if (move == Move::kFailover) {
    // The new home finds one reader, so client 2 caches while client 1's
    // handle still passes through.
    EXPECT_EQ(ledger.stat(RpcKind::kUncachedRead).calls, 1);
    EXPECT_EQ(ledger.stat(RpcKind::kReadBlock).calls, 3);
  } else {
    // The file stays uncacheable until every client closes, so both reads
    // pass through.
    EXPECT_EQ(ledger.stat(RpcKind::kUncachedRead).calls, 2);
    EXPECT_EQ(ledger.stat(RpcKind::kReadBlock).calls, 0);
  }
  EXPECT_EQ(ledger.stat(RpcKind::kReopen).calls, 0) << "neither move starts a reopen storm";
  EXPECT_EQ(cluster.server(0).open_state_count(), 0);
  EXPECT_EQ(cluster.server(1).open_state_count(), 0);
}

// Case names end in the consistency rule the cluster runs.
std::string MoveName(const ::testing::TestParamInfo<Move>& info) {
  return info.param == Move::kFailover ? "FailoverSprite" : "MigrationSprite";
}

INSTANTIATE_TEST_SUITE_P(MovesAndPolicies, HomeMoveTest,
                         ::testing::Values(Move::kFailover, Move::kMigration), MoveName);

}  // namespace
}  // namespace sprite
