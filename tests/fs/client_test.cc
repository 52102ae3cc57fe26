#include "src/fs/client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "src/sim/event_queue.h"

namespace sprite {
namespace {

// Single client + single server harness with an in-memory trace, wired over
// an in-process (zero-latency) RPC transport.
class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    server_ = std::make_unique<Server>(0, ServerConfig{}, DiskConfig{});
    ClientConfig config;
    config.memory_bytes = 2 * kMegabyte;  // small, to exercise eviction
    config.cache.min_blocks = 4;
    config.vm_floor_fraction = 0.0;  // tests reason about exact page counts
    client_ = std::make_unique<Client>(
        0, config, [this](FileId) { return ServerStub(0, *server_, transport_); },
        [this](const Record& r) { trace_.push_back(r); }, &handles_);
    server_->RegisterClient(0, client_.get());
  }

  // Writes a file of `bytes` via the client and closes it.
  void MakeFile(FileId file, int64_t bytes, SimTime now) {
    auto open = client_->Open(1, file, OpenMode::kWrite, OpenDisposition::kNormal, false, now);
    client_->Write(open.handle, bytes, now);
    client_->Close(open.handle, now);
  }

  int64_t CountRecords(RecordKind kind) const {
    int64_t n = 0;
    for (const Record& r : trace_) {
      if (r.kind == kind) {
        ++n;
      }
    }
    return n;
  }

  RpcTransport transport_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
  TraceLog trace_;
  uint64_t handles_ = 0;
};

TEST_F(ClientTest, OpenCreatesFileAndEmitsRecords) {
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal, false, 10);
  EXPECT_GT(open.handle, 0u);
  EXPECT_EQ(CountRecords(RecordKind::kCreate), 1);
  EXPECT_EQ(CountRecords(RecordKind::kOpen), 1);
  EXPECT_EQ(trace_.back().kind, RecordKind::kOpen);
  EXPECT_EQ(trace_.back().file, 7u);
  EXPECT_EQ(trace_.back().user, 1u);
  client_->Close(open.handle, 20);
  EXPECT_EQ(CountRecords(RecordKind::kClose), 1);
}

TEST_F(ClientTest, WriteThenReadHitsCache) {
  MakeFile(7, 8192, 0);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, kSecond);
  client_->Read(open.handle, 8192, kSecond);
  client_->Close(open.handle, kSecond);
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.read_ops, 2);
  EXPECT_EQ(c.read_misses, 0) << "freshly written blocks must be cache hits";
  EXPECT_EQ(c.bytes_read_from_server, 0);
}

TEST_F(ClientTest, ColdReadMisses) {
  // Create the file on the server without going through this client's cache:
  server_->CreateFile(7, false, 0);
  server_->SetFileSize(7, 3 * kBlockSize);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 0);
  client_->Read(open.handle, 3 * kBlockSize, 0);
  client_->Close(open.handle, 0);
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.read_ops, 3);
  EXPECT_EQ(c.read_misses, 3);
  EXPECT_EQ(c.bytes_read_from_server, 3 * kBlockSize);
}

TEST_F(ClientTest, ReadsCappedAtEof) {
  MakeFile(7, 100, 0);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 1);
  client_->Read(open.handle, 10000, 1);
  client_->Close(open.handle, 1);
  // Close record's run must reflect only the 100 real bytes.
  EXPECT_EQ(trace_.back().run_read_bytes, 100);
}

TEST_F(ClientTest, RunAccountingAcrossSeek) {
  MakeFile(7, 4 * kBlockSize, 0);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, false, 1);
  client_->Read(open.handle, 1000, 1);
  client_->Seek(open.handle, 8192, 2);
  client_->Read(open.handle, 500, 2);
  client_->Close(open.handle, 3);

  // The seek record carries the first run; the close record the second.
  const Record* seek = nullptr;
  const Record* close = nullptr;
  for (const Record& r : trace_) {
    if (r.kind == RecordKind::kSeek) {
      seek = &r;
    }
    if (r.kind == RecordKind::kClose && !r.is_directory) {
      close = &r;
    }
  }
  ASSERT_NE(seek, nullptr);
  ASSERT_NE(close, nullptr);
  EXPECT_EQ(seek->run_read_bytes, 1000);
  EXPECT_EQ(seek->offset_before, 1000);
  EXPECT_EQ(seek->offset_after, 8192);
  EXPECT_EQ(close->run_read_bytes, 500);
  EXPECT_EQ(close->offset_before, 8692);
}

TEST_F(ClientTest, AppendOpensAtEnd) {
  MakeFile(7, 1000, 0);
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kAppend, false, 1);
  const Record& r = trace_.back();
  EXPECT_EQ(r.offset_after, 1000);
  client_->Write(open.handle, 50, 1);
  client_->Close(open.handle, 1);
  EXPECT_EQ(server_->FileSize(7), 1050);
}

TEST_F(ClientTest, WriteFetchOnPartialColdBlock) {
  MakeFile(7, 2 * kBlockSize, 0);
  // Cold cache: with no handle open, disabling caching writes the dirty
  // blocks back and drops them.
  client_->DisableCaching(7, 1);
  auto open = client_->Open(1, 7, OpenMode::kReadWrite, OpenDisposition::kNormal, false, 2);
  client_->Seek(open.handle, 100, 2);
  client_->Write(open.handle, 50, 2);  // partial write inside existing block
  client_->Close(open.handle, 2);
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.write_fetches, 1);
  EXPECT_EQ(c.write_fetch_bytes, kBlockSize);
}

TEST_F(ClientTest, NoWriteFetchForWholeBlockOrAppend) {
  MakeFile(7, kBlockSize, 0);
  client_->DisableCaching(7, 1);
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kAppend, false, 2);
  client_->Write(open.handle, 100, 2);  // append: block beyond old size
  client_->Close(open.handle, 2);
  EXPECT_EQ(client_->cache_counters().write_fetches, 0);
}

TEST_F(ClientTest, FsyncWritesBackImmediately) {
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  client_->Write(open.handle, 1000, 0);
  EXPECT_EQ(server_->counters().file_write_bytes, 0);
  client_->Fsync(open.handle, 1);
  EXPECT_EQ(server_->counters().file_write_bytes, 1000);
  EXPECT_EQ(client_->cache_counters().cleaned[static_cast<int>(CleanReason::kFsync)], 1);
  client_->Close(open.handle, 2);
}

// Under async RPCs one writeback pass threads the latency it has spent into
// each next issue time, through the offset its call-site lambda carries.
// The client never holds more blocks than its cache limit, so an insert
// evicts at most one block; fsync of a file with two dirty blocks is the
// pass that writes back several. The second writeback is issued when the
// first one completes, so it never queues behind it at the server.
TEST(ClientAsyncTest, OneWritebackPassIssuesEachBlockAfterThePreviousOne) {
  RpcConfig rpc;
  rpc.async = true;
  ObservabilityConfig tracing;
  tracing.tracing = true;
  Observability obs(tracing);
  EventQueue queue;
  RpcTransport transport(NetworkConfig{}, rpc);
  transport.AttachObservability(&obs);
  Server server(0, ServerConfig{}, DiskConfig{});
  server.EnableServiceQueue(rpc, queue);
  transport.RegisterServer(0, &server);
  uint64_t handles = 0;
  Client client(
      0, ClientConfig{}, [&](FileId) { return ServerStub(0, server, transport); }, nullptr,
      &handles);
  client.SetAsyncRpc(true);
  server.RegisterClient(0, &client);

  auto open = client.Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  client.Write(open.handle, 2 * kBlockSize, 0);
  client.Fsync(open.handle, kSecond);

  std::vector<Span> writebacks;
  for (const Span& span : obs.tracer().spans()) {
    if (std::string_view(span.name) == RpcKindName(RpcKind::kWriteBlock)) {
      writebacks.push_back(span);
    }
  }
  ASSERT_EQ(writebacks.size(), 2u);
  EXPECT_EQ(writebacks[0].start, kSecond);
  EXPECT_GT(writebacks[0].duration, 0);
  EXPECT_EQ(writebacks[1].start, writebacks[0].start + writebacks[0].duration);
  const RpcStat& stat = transport.ledger().stat(RpcKind::kWriteBlock);
  EXPECT_EQ(stat.queue_time, 0) << "the second writeback queued behind the first";
  EXPECT_EQ(stat.service_time, 2 * rpc.data_service_time);
}

TEST_F(ClientTest, CleanerTickHonorsDelay) {
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  client_->Write(open.handle, 1000, 0);
  client_->Close(open.handle, 0);
  client_->CleanerTick(29 * kSecond);
  EXPECT_EQ(server_->counters().file_write_bytes, 0);
  client_->CleanerTick(30 * kSecond);
  EXPECT_EQ(server_->counters().file_write_bytes, 1000);
}

TEST_F(ClientTest, DeleteBeforeWritebackCancelsTraffic) {
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  client_->Write(open.handle, 1000, 0);
  client_->Close(open.handle, 0);
  client_->Delete(1, 7, kSecond);
  client_->CleanerTick(35 * kSecond);
  EXPECT_EQ(server_->counters().file_write_bytes, 0)
      << "deleted data must never be written back";
  EXPECT_EQ(client_->cache_counters().bytes_cancelled_before_writeback, 1000);
  EXPECT_FALSE(server_->FileExists(7));
  EXPECT_EQ(CountRecords(RecordKind::kDelete), 1);
}

TEST_F(ClientTest, DeleteRecordCarriesSize) {
  MakeFile(7, 12345, 0);
  client_->Delete(1, 7, 1);
  EXPECT_EQ(trace_.back().kind, RecordKind::kDelete);
  EXPECT_EQ(trace_.back().file_size, 12345);
}

TEST_F(ClientTest, TruncateEmitsRecord) {
  MakeFile(7, 5000, 0);
  client_->Truncate(1, 7, 1);
  EXPECT_EQ(CountRecords(RecordKind::kTruncate), 1);
  EXPECT_EQ(server_->FileSize(7), 0);
}

TEST_F(ClientTest, ReadDirectoryPassesThrough) {
  client_->ReadDirectory(1, 99, 2048, 0);
  EXPECT_EQ(server_->counters().dir_read_bytes, 2048);
  EXPECT_EQ(client_->traffic_counters().dir_read, 2048);
  EXPECT_EQ(CountRecords(RecordKind::kDirRead), 1);
  // Directory open+close also appear, flagged as directories.
  EXPECT_EQ(CountRecords(RecordKind::kOpen), 1);
  EXPECT_TRUE(trace_[0].is_directory);
}

TEST_F(ClientTest, DisableCachingForcesPassThrough) {
  MakeFile(7, 8192, 0);
  auto open = client_->Open(1, 7, OpenMode::kReadWrite, OpenDisposition::kNormal, false, 1);
  client_->DisableCaching(7, 1);
  client_->Read(open.handle, 100, 2);
  client_->Write(open.handle, 100, 3);
  client_->Close(open.handle, 4);
  EXPECT_EQ(server_->counters().shared_read_bytes, 100);
  EXPECT_EQ(server_->counters().shared_write_bytes, 100);
  EXPECT_EQ(CountRecords(RecordKind::kSharedRead), 1);
  EXPECT_EQ(CountRecords(RecordKind::kSharedWrite), 1);
  EXPECT_EQ(client_->traffic_counters().file_read_shared, 100);
}

TEST_F(ClientTest, RecallDirtyDataFlushes) {
  auto open = client_->Open(1, 7, OpenMode::kWrite, OpenDisposition::kNormal, false, 0);
  client_->Write(open.handle, 500, 0);
  client_->RecallDirtyData(7, 1);
  EXPECT_EQ(server_->counters().file_write_bytes, 500);
  EXPECT_EQ(client_->cache_counters().cleaned[static_cast<int>(CleanReason::kRecall)], 1);
  client_->Close(open.handle, 2);
}

TEST_F(ClientTest, MigratedIoCountedSeparately) {
  server_->CreateFile(7, false, 0);
  server_->SetFileSize(7, 2 * kBlockSize);
  auto open = client_->Open(1, 7, OpenMode::kRead, OpenDisposition::kNormal, /*migrated=*/true, 0);
  client_->Read(open.handle, 2 * kBlockSize, 0);
  client_->Close(open.handle, 0);
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.migrated_read_ops, 2);
  EXPECT_EQ(c.migrated_read_misses, 2);
  EXPECT_EQ(c.migrated_bytes_read_by_apps, 2 * kBlockSize);
  // Trace records carry the migrated flag.
  bool found = false;
  for (const Record& r : trace_) {
    if (r.kind == RecordKind::kOpen && !r.is_directory) {
      EXPECT_TRUE(r.migrated);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ClientTest, PageFaultCodeConsultsCache) {
  MakeFile(7, 2 * kBlockSize, 0);  // the "executable" is in the cache now
  const SimDuration t = client_->PageFault(PageKind::kCode, 7, 0, 1);
  EXPECT_EQ(t, 0) << "code page found in file cache costs no server traffic";
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.paging_read_ops, 1);
  EXPECT_EQ(c.paging_read_misses, 0);
  EXPECT_EQ(client_->traffic_counters().paging_read_cacheable, kBlockSize);
  EXPECT_EQ(client_->vm().resident_pages(), 1);
}

TEST_F(ClientTest, PageFaultCodeMissFetchesFromServer) {
  server_->CreateFile(7, false, 0);
  client_->PageFault(PageKind::kCode, 7, 0, 1);
  const CacheCounters& c = client_->cache_counters();
  EXPECT_EQ(c.paging_read_misses, 1);
  EXPECT_EQ(server_->counters().paging_read_bytes, kBlockSize);
}

TEST_F(ClientTest, BackingPageFaultNeverChecksCache) {
  MakeFile(7, kBlockSize, 0);
  client_->PageFault(PageKind::kStack, 7, 0, 1);
  EXPECT_EQ(client_->cache_counters().paging_read_ops, 0);
  EXPECT_EQ(client_->traffic_counters().paging_read_backing, kBlockSize);
  EXPECT_EQ(server_->counters().paging_read_bytes, kBlockSize);
}

TEST_F(ClientTest, EvictVmPagesWritesDirtyToBacking) {
  server_->CreateFile(7, false, 0);
  client_->PageFault(PageKind::kModifiedData, 7, 0, 0);
  client_->PageFault(PageKind::kCode, 7, 1, 0);
  const int64_t before = client_->traffic_counters().paging_write_backing;
  client_->EvictVmPages(2, 7, 1);
  EXPECT_EQ(client_->traffic_counters().paging_write_backing - before, kBlockSize);
  EXPECT_EQ(client_->vm().resident_pages(), 0);
}

TEST_F(ClientTest, UnknownHandleThrows) {
  EXPECT_THROW(client_->Read(999, 10, 0), std::logic_error);
  EXPECT_THROW(client_->Close(999, 0), std::logic_error);
}

TEST_F(ClientTest, VmPressureShrinksCache) {
  // Fill the cache, then fault in enough VM pages to exhaust physical
  // memory; the VM system must take pages from the file cache.
  MakeFile(7, kMegabyte, 0);
  const int64_t cache_before = client_->cache_size_bytes();
  ASSERT_GT(cache_before, 0);
  server_->CreateFile(8, false, 0);
  const int64_t total_pages = 2 * kMegabyte / kBlockSize;
  for (int64_t i = 0; i < total_pages; ++i) {
    client_->PageFault(PageKind::kCode, 8, i, kSecond + i);
  }
  EXPECT_LT(client_->cache_size_bytes(), cache_before);
}

}  // namespace
}  // namespace sprite
