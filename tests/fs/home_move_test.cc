// Moving a file's home — a replication fail-over or a live migration —
// under every consistency policy, with the file write-shared just before
// the move. The two moves install the open state on the new home through
// one path but with different cacheable rules: a migration carries the old
// home's verdict, while a fail-over recomputes it from the installed opens
// (so under kSprite a file that stopped being write-shared becomes
// cacheable again before every client has closed it). The callback and
// data-path RPC counts pin both rules.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/fs/cluster.h"

namespace sprite {
namespace {

enum class Move { kFailover, kMigration };

struct Expected {
  int64_t cache_disable = 0;
  int64_t cache_enable = 0;
  int64_t token_recall = 0;
  int64_t uncached_read = 0;
  int64_t read_block = 0;
};

using MoveCase = std::tuple<Move, ConsistencyPolicy>;

class HomeMoveTest : public ::testing::TestWithParam<MoveCase> {};

Expected ExpectedFor(Move move, ConsistencyPolicy policy) {
  switch (policy) {
    case ConsistencyPolicy::kSprite:
      // Fail-over: the new home finds one reader, so client 2 caches while
      // client 1's handle still passes through. Migration: the file stays
      // uncacheable until every client closes, so both reads pass through.
      return move == Move::kFailover ? Expected{2, 0, 0, 1, 3} : Expected{2, 0, 0, 2, 0};
    case ConsistencyPolicy::kSpriteModified:
      return Expected{2, 1, 0, 0, 6};
    case ConsistencyPolicy::kToken:
      return Expected{0, 0, 1, 0, 6};
  }
  return {};
}

TEST_P(HomeMoveTest, WriteSharedFileMovesWithItsConsistencyState) {
  const auto [move, policy] = GetParam();
  ClusterConfig config;
  config.num_clients = 3;
  config.num_servers = 2;
  config.client.memory_bytes = 4 * kMegabyte;
  config.consistency = policy;
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
  const Expected want = ExpectedFor(move, policy);
  EXPECT_EQ(ledger.stat(RpcKind::kCacheDisable).calls, want.cache_disable);
  EXPECT_EQ(ledger.stat(RpcKind::kCacheEnable).calls, want.cache_enable);
  EXPECT_EQ(ledger.stat(RpcKind::kTokenRecall).calls, want.token_recall);
  EXPECT_EQ(ledger.stat(RpcKind::kUncachedRead).calls, want.uncached_read);
  EXPECT_EQ(ledger.stat(RpcKind::kReadBlock).calls, want.read_block);
  EXPECT_EQ(ledger.stat(RpcKind::kReopen).calls, 0) << "neither move starts a reopen storm";
  EXPECT_EQ(cluster.server(0).open_state_count(), 0);
  EXPECT_EQ(cluster.server(1).open_state_count(), 0);
}

std::string MoveCaseName(const ::testing::TestParamInfo<MoveCase>& info) {
  const auto [move, policy] = info.param;
  const char* policy_name = policy == ConsistencyPolicy::kSprite           ? "Sprite"
                            : policy == ConsistencyPolicy::kSpriteModified ? "SpriteModified"
                                                                           : "Token";
  return std::string(move == Move::kFailover ? "Failover" : "Migration") + policy_name;
}

INSTANTIATE_TEST_SUITE_P(
    MovesAndPolicies, HomeMoveTest,
    ::testing::Combine(::testing::Values(Move::kFailover, Move::kMigration),
                       ::testing::Values(ConsistencyPolicy::kSprite,
                                         ConsistencyPolicy::kSpriteModified,
                                         ConsistencyPolicy::kToken)),
    MoveCaseName);

}  // namespace
}  // namespace sprite
