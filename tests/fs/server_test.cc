#include "src/fs/server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sprite {
namespace {

// Records the consistency commands a server issues to a client.
class FakeControl final : public CacheControl {
 public:
  void RecallDirtyData(FileId file, SimTime) override {
    log.push_back("recall:" + std::to_string(file));
  }
  void DisableCaching(FileId file, SimTime) override {
    log.push_back("disable:" + std::to_string(file));
  }
  void DiscardFile(FileId file, SimTime) override {
    log.push_back("discard:" + std::to_string(file));
  }

  std::vector<std::string> log;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : server_(0, ServerConfig{}, DiskConfig{}) {
    server_.RegisterClient(0, &c0_);
    server_.RegisterClient(1, &c1_);
    server_.RegisterClient(2, &c2_);
  }

  Server server_;
  FakeControl c0_, c1_, c2_;
};

TEST_F(ServerTest, CreateDeleteTruncateMetadata) {
  server_.CreateFile(7, false, 0);
  EXPECT_TRUE(server_.FileExists(7));
  server_.SetFileSize(7, 10000);
  EXPECT_EQ(server_.FileSize(7), 10000);
  EXPECT_EQ(server_.TruncateFile(7, 0, 1), 10000);
  EXPECT_EQ(server_.FileSize(7), 0);
  server_.SetFileSize(7, 5000);
  EXPECT_EQ(server_.DeleteFile(7, 0, 2), 5000);
  EXPECT_FALSE(server_.FileExists(7));
  EXPECT_EQ(server_.DeleteFile(7, 0, 3), 0) << "double delete returns nothing";
}

TEST_F(ServerTest, SingleClientOpenIsCacheable) {
  const auto reply = server_.Open(0, 7, OpenMode::kRead, false, 0);
  EXPECT_TRUE(reply.cacheable);
  EXPECT_FALSE(reply.caused_write_sharing);
  EXPECT_FALSE(reply.caused_recall);
  EXPECT_EQ(server_.counters().file_opens, 1);
}

TEST_F(ServerTest, DirectoryOpensNotCacheableNotCounted) {
  const auto reply = server_.Open(0, 9, OpenMode::kRead, /*is_directory=*/true, 0);
  EXPECT_FALSE(reply.cacheable);
  EXPECT_EQ(server_.counters().file_opens, 0);
}

TEST_F(ServerTest, VersionBumpsOnWriterClose) {
  const auto r1 = server_.Open(0, 7, OpenMode::kWrite, false, 0);
  server_.Close(0, 7, OpenMode::kWrite, /*wrote=*/true, 1234, 1);
  const auto r2 = server_.Open(0, 7, OpenMode::kRead, false, 2);
  EXPECT_GT(r2.version, r1.version);
  EXPECT_EQ(server_.FileSize(7), 1234);
}

TEST_F(ServerTest, RecallOnOpenAfterRemoteWrite) {
  server_.Open(1, 7, OpenMode::kWrite, false, 0);
  server_.Close(1, 7, OpenMode::kWrite, true, 100, 1);
  // Client 0 opens: server must recall client 1's (possibly) dirty data.
  const auto reply = server_.Open(0, 7, OpenMode::kRead, false, 2);
  EXPECT_TRUE(reply.caused_recall);
  ASSERT_EQ(c1_.log.size(), 1u);
  EXPECT_EQ(c1_.log[0], "recall:7");
  EXPECT_EQ(server_.counters().recall_opens, 1);
}

TEST_F(ServerTest, NoRecallForSameClient) {
  server_.Open(0, 7, OpenMode::kWrite, false, 0);
  server_.Close(0, 7, OpenMode::kWrite, true, 100, 1);
  const auto reply = server_.Open(0, 7, OpenMode::kRead, false, 2);
  EXPECT_FALSE(reply.caused_recall);
  EXPECT_TRUE(c0_.log.empty());
}

TEST_F(ServerTest, RecallHappensOnlyOnce) {
  server_.Open(1, 7, OpenMode::kWrite, false, 0);
  server_.Close(1, 7, OpenMode::kWrite, true, 100, 1);
  server_.Open(0, 7, OpenMode::kRead, false, 2);
  server_.Close(0, 7, OpenMode::kRead, false, 100, 3);
  server_.Open(2, 7, OpenMode::kRead, false, 4);
  EXPECT_EQ(server_.counters().recall_opens, 1) << "last-writer cleared after first recall";
}

TEST_F(ServerTest, ConcurrentWriteSharingDisablesCaching) {
  server_.Open(0, 7, OpenMode::kRead, false, 0);
  const auto reply = server_.Open(1, 7, OpenMode::kWrite, false, 1);
  EXPECT_TRUE(reply.caused_write_sharing);
  EXPECT_FALSE(reply.cacheable);
  // Both open clients were told to stop caching.
  ASSERT_EQ(c0_.log.size(), 1u);
  EXPECT_EQ(c0_.log[0], "disable:7");
  ASSERT_EQ(c1_.log.size(), 1u);
  EXPECT_EQ(c1_.log[0], "disable:7");
  EXPECT_EQ(server_.counters().write_sharing_opens, 1);
}

TEST_F(ServerTest, TwoReadersNotWriteSharing) {
  server_.Open(0, 7, OpenMode::kRead, false, 0);
  const auto reply = server_.Open(1, 7, OpenMode::kRead, false, 1);
  EXPECT_FALSE(reply.caused_write_sharing);
  EXPECT_TRUE(reply.cacheable);
}

TEST_F(ServerTest, SameClientReadAndWriteNotSharing) {
  server_.Open(0, 7, OpenMode::kRead, false, 0);
  const auto reply = server_.Open(0, 7, OpenMode::kWrite, false, 1);
  EXPECT_FALSE(reply.caused_write_sharing);
  EXPECT_TRUE(reply.cacheable);
}

TEST_F(ServerTest, SpriteKeepsUncacheableUntilAllClose) {
  server_.Open(0, 7, OpenMode::kRead, false, 0);
  server_.Open(1, 7, OpenMode::kWrite, false, 1);
  // Writer closes; under plain Sprite the file stays uncacheable while any
  // client still has it open.
  server_.Close(1, 7, OpenMode::kWrite, true, 100, 2);
  const auto reply = server_.Open(2, 7, OpenMode::kRead, false, 3);
  EXPECT_FALSE(reply.cacheable);
  // All close -> next open is cacheable again.
  server_.Close(0, 7, OpenMode::kRead, false, 100, 4);
  server_.Close(2, 7, OpenMode::kRead, false, 100, 5);
  const auto fresh = server_.Open(0, 7, OpenMode::kRead, false, 6);
  EXPECT_TRUE(fresh.cacheable);
}

TEST_F(ServerTest, FetchBlockCountsTraffic) {
  server_.CreateFile(7, false, 0);
  const SimDuration t = server_.FetchBlock(7, 0, /*paging=*/false, 0);
  EXPECT_GT(t, 0);  // first fetch hits the disk
  EXPECT_EQ(server_.counters().file_read_bytes, kBlockSize);
  // Second fetch of the same block is a server-cache hit (no disk).
  const SimDuration t2 = server_.FetchBlock(7, 0, false, 1);
  EXPECT_EQ(t2, 0) << "server cache hit costs no disk time (network is the transport's job)";
  EXPECT_EQ(server_.disk().reads(), 1);
}

TEST_F(ServerTest, PagingTrafficSeparated) {
  server_.FetchBlock(7, 0, /*paging=*/true, 0);
  server_.Writeback(7, 0, 4096, /*paging=*/true, 1);
  EXPECT_EQ(server_.counters().paging_read_bytes, kBlockSize);
  EXPECT_EQ(server_.counters().paging_write_bytes, 4096);
  EXPECT_EQ(server_.counters().file_read_bytes, 0);
}

TEST_F(ServerTest, WritebackExtendsFileSize) {
  server_.CreateFile(7, false, 0);
  server_.Writeback(7, 2, 1000, false, 1);
  EXPECT_EQ(server_.FileSize(7), 2 * kBlockSize + 1000);
}

TEST_F(ServerTest, PassThroughCountsSharedTraffic) {
  server_.PassThroughRead(7, 64, 0);
  server_.PassThroughWrite(7, 32, 1);
  EXPECT_EQ(server_.counters().shared_read_bytes, 64);
  EXPECT_EQ(server_.counters().shared_write_bytes, 32);
}

TEST_F(ServerTest, DirectoryReadCounted) {
  server_.ReadDirectory(9, 2048, 0);
  EXPECT_EQ(server_.counters().dir_read_bytes, 2048);
}

// A full server cache writes each dirty replacement victim to disk and fires
// the shadow flush hook, so the standby drops the now-durable extent; only
// the blocks still resident are at risk in a crash.
TEST(ServerCacheTest, DirtyReplacementReachesDiskAndTheShadowHook) {
  ServerConfig config;
  config.memory_bytes = 16 * kBlockSize;
  Server server(0, config, DiskConfig{});
  std::vector<int64_t> flushed;
  server.SetShadowFlushHook([&flushed](FileId file, int64_t block) {
    EXPECT_EQ(file, 7u);
    flushed.push_back(block);
  });
  for (int64_t block = 0; block < 64; ++block) {
    server.Writeback(7, block, kBlockSize, /*paging=*/false, block);
  }
  EXPECT_EQ(server.disk().writes(), 48);
  ASSERT_EQ(flushed.size(), 48u);
  EXPECT_EQ(flushed.front(), 0) << "the least recently written block goes first";
  EXPECT_EQ(flushed.back(), 47);
  EXPECT_EQ(server.Crash(64), 16 * kBlockSize) << "only the 16 resident dirty blocks are lost";
}

}  // namespace
}  // namespace sprite
