// Tests for the paper-motivated extensions Sprite itself did not ship:
// sequential readahead, the large-file cache bypass, and crash injection
// with and without non-volatile cache memory.

#include <gtest/gtest.h>

#include <memory>

#include "src/fs/client.h"
#include "src/fs/cluster.h"

namespace sprite {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  void Build(ClientConfig config) {
    config.memory_bytes = 4 * kMegabyte;
    config.cache.min_blocks = 4;
    config.vm_floor_fraction = 0.0;
    server_ = std::make_unique<Server>(0, ServerConfig{}, DiskConfig{});
    client_ = std::make_unique<Client>(
        0, config, [this](FileId) { return ServerStub(0, *server_, transport_); }, nullptr,
        &handles_);
    server_->RegisterClient(0, client_.get());
  }

  void MakeServerFile(FileId file, int64_t bytes) {
    server_->CreateFile(file, false, 0);
    server_->SetFileSize(file, bytes);
  }

  RpcTransport transport_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
  uint64_t handles_ = 0;
};

// ---------------- Readahead -------------------------------------------------

TEST_F(ExtensionsTest, ReadaheadOffByDefault) {
  Build(ClientConfig{});
  MakeServerFile(7, 16 * kBlockSize);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, kBlockSize, 0);
  client_->Close(open.handle, 0);
  EXPECT_EQ(client_->cache_counters().prefetch_fetches, 0);
}

TEST_F(ExtensionsTest, ReadaheadFetchesBeyondDemand) {
  ClientConfig config;
  config.readahead_blocks = 2;
  Build(config);
  MakeServerFile(7, 16 * kBlockSize);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, kBlockSize, 0);  // demand miss on block 0
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.read_misses, 1);
  EXPECT_EQ(c.prefetch_fetches, 2);  // blocks 1 and 2 readahead
  // The next sequential read hits the prefetched blocks.
  client_->Read(open.handle, 2 * kBlockSize, 1);
  EXPECT_EQ(c.read_misses, 1) << "sequential continuation must hit";
  EXPECT_EQ(c.prefetch_useful, 2);
  client_->Close(open.handle, 1);
}

TEST_F(ExtensionsTest, ReadaheadStopsAtEof) {
  ClientConfig config;
  config.readahead_blocks = 8;
  Build(config);
  MakeServerFile(7, 2 * kBlockSize);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, kBlockSize, 0);
  EXPECT_EQ(client_->cache_counters().prefetch_fetches, 1) << "only block 1 exists";
  client_->Close(open.handle, 0);
}

TEST_F(ExtensionsTest, ReadaheadDoesNotReduceServerTraffic) {
  // The paper's point: prefetching cuts latency, not server bytes. Reading
  // the whole file moves the same bytes either way.
  auto run = [&](int readahead) {
    ClientConfig config;
    config.readahead_blocks = readahead;
    Build(config);
    MakeServerFile(7, 32 * kBlockSize);
    auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
    for (int i = 0; i < 32; ++i) {
      client_->Read(open.handle, kBlockSize, i);
    }
    client_->Close(open.handle, 32);
    return server_->counters().file_read_bytes;
  };
  const int64_t without = run(0);
  const int64_t with = run(4);
  EXPECT_EQ(without, with);
}

// ---------------- Large-file bypass ------------------------------------------

TEST_F(ExtensionsTest, BypassKeepsLargeFileOutOfCache) {
  ClientConfig config;
  config.large_file_bypass_bytes = kMegabyte;
  Build(config);
  MakeServerFile(7, 2 * kMegabyte);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, 2 * kMegabyte, 0);
  client_->Close(open.handle, 0);
  EXPECT_EQ(client_->cache_size_bytes(), 0) << "bypassed blocks must not be cached";
  EXPECT_EQ(client_->cache_counters().bypass_read_bytes, 2 * kMegabyte);
}

TEST_F(ExtensionsTest, BypassProtectsSmallFileWorkingSet) {
  ClientConfig config;
  config.large_file_bypass_bytes = kMegabyte;
  config.cache.max_blocks = 256;  // 1 MB cache
  Build(config);
  // Small working set fills the cache...
  MakeServerFile(1, 64 * kBlockSize);
  auto s = client_->Open(1, 1, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(s.handle, 64 * kBlockSize, 0);
  client_->Close(s.handle, 0);
  // ...then a 2-MB streaming read goes through.
  MakeServerFile(7, 2 * kMegabyte);
  auto big = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 1);
  client_->Read(big.handle, 2 * kMegabyte, 1);
  client_->Close(big.handle, 1);
  // The small file is still resident: re-reading it is all hits.
  const int64_t misses_before = client_->cache_counters().read_misses;
  auto again = client_->Open(1, 1, OpenMode::kRead, OpenDisposition::kNormal, false, 2);
  client_->Read(again.handle, 64 * kBlockSize, 2);
  client_->Close(again.handle, 2);
  EXPECT_EQ(client_->cache_counters().read_misses, misses_before)
      << "the streaming read must not have evicted the small-file set";
}

TEST_F(ExtensionsTest, SmallFilesStillCachedWithBypassEnabled) {
  ClientConfig config;
  config.large_file_bypass_bytes = kMegabyte;
  Build(config);
  MakeServerFile(1, 8 * kBlockSize);
  auto open = client_->Open(1, 1, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, 8 * kBlockSize, 0);
  client_->Close(open.handle, 0);
  EXPECT_EQ(client_->cache_size_bytes(), 8 * kBlockSize);
  EXPECT_EQ(client_->cache_counters().bypass_read_bytes, 0);
}

// ---------------- Crash injection & NVRAM --------------------------------------

TEST_F(ExtensionsTest, CrashLosesDirtyData) {
  Build(ClientConfig{});
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kTruncate, false, 0);
  client_->Write(open.handle, 10000, 0);
  const int64_t lost = client_->Crash(kSecond);
  EXPECT_EQ(lost, 10000);
  EXPECT_EQ(client_->cache_counters().bytes_lost_in_crashes, 10000);
  EXPECT_EQ(client_->cache_counters().crashes, 1);
  EXPECT_EQ(client_->cache_size_bytes(), 0);
  EXPECT_EQ(client_->open_handle_count(), 0);
  EXPECT_EQ(server_->counters().file_write_bytes, 0) << "the data never reached the server";
}

TEST_F(ExtensionsTest, NvramRecoversDirtyData) {
  ClientConfig config;
  config.nvram = true;
  Build(config);
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kTruncate, false, 0);
  client_->Write(open.handle, 10000, 0);
  const int64_t lost = client_->Crash(kSecond);
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(client_->cache_counters().bytes_recovered_from_nvram, 10000);
  EXPECT_EQ(server_->counters().file_write_bytes, 10000) << "recovery flushed to the server";
}

TEST_F(ExtensionsTest, CleanDataCostsNothingInCrash) {
  Build(ClientConfig{});
  MakeServerFile(7, 8 * kBlockSize);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, 8 * kBlockSize, 0);
  client_->Close(open.handle, 0);
  EXPECT_EQ(client_->Crash(kSecond), 0);
}

TEST_F(ExtensionsTest, ClusterCrashClearsServerOpenState) {
  EventQueue queue;
  ClusterConfig config;
  config.num_clients = 2;
  config.num_servers = 1;
  Cluster cluster(config, queue);
  const FileId file = 5;
  // Client 0 and 1 write-share the file: caching disabled.
  auto a = cluster.client(0).Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  auto b = cluster.client(1).Open(2, file, OpenMode::kReadWrite, OpenDisposition::kNormal, false,
                                  1);
  cluster.client(1).Write(b.handle, 100, 2);
  EXPECT_EQ(cluster.server(0).counters().shared_write_bytes, 100);
  // Client 0 crashes: sharing ends; after client 1 reopens, caching works.
  cluster.CrashClient(0, 3);
  (void)a;
  cluster.client(1).Close(b.handle, 4);
  auto c = cluster.client(1).Open(2, file, OpenMode::kRead, OpenDisposition::kNormal, false, 5);
  cluster.client(1).Read(c.handle, 100, 5);
  cluster.client(1).Close(c.handle, 6);
  EXPECT_EQ(cluster.server(0).counters().shared_read_bytes, 0)
      << "post-crash reads are cacheable again";
}

TEST_F(ExtensionsTest, CrashedLastWriterForgotten) {
  EventQueue queue;
  ClusterConfig config;
  config.num_clients = 2;
  config.num_servers = 1;
  Cluster cluster(config, queue);
  auto w = cluster.client(0).Open(1, 9, OpenMode::kWrite, OpenDisposition::kTruncate, false, 0);
  cluster.client(0).Write(w.handle, 5000, 0);
  cluster.client(0).Close(w.handle, 1);
  cluster.CrashClient(0, 2);
  // Client 1 opens: no recall should be attempted against the dead client.
  auto r = cluster.client(1).Open(2, 9, OpenMode::kRead, OpenDisposition::kNormal, false, 3);
  cluster.client(1).Close(r.handle, 4);
  EXPECT_EQ(cluster.server(0).counters().recall_opens, 0);
}

}  // namespace
}  // namespace sprite
