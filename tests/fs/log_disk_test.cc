#include "src/fs/log_disk.h"

#include "src/fs/disk.h"
#include "src/fs/server.h"

#include <gtest/gtest.h>

namespace sprite {
namespace {

SegmentLogConfig SmallLog(int64_t segments = 8, int64_t segment_bytes = 4 * kBlockSize) {
  SegmentLogConfig config;
  config.segment_bytes = segment_bytes;
  config.total_segments = segments;
  config.clean_low_water = 2;
  config.clean_high_water = 3;
  return config;
}

TEST(SegmentLogTest, RejectsBadConfig) {
  SegmentLogConfig config = SmallLog();
  config.total_segments = 2;
  EXPECT_THROW(SegmentLog log(config), std::invalid_argument);
  config = SmallLog();
  config.clean_high_water = 0;
  EXPECT_THROW(SegmentLog log(config), std::invalid_argument);
}

TEST(SegmentLogTest, SequentialWritesNeedNoPositioning) {
  // Writes within one segment cost only bandwidth; the in-place disk pays a
  // positioning delay per write. This is the whole point of LFS.
  SegmentLog log(SmallLog());
  Disk in_place(DiskConfig{});
  const SimDuration log_time = log.Write({1, 0}, kBlockSize);
  const SimDuration disk_time = in_place.Write(kBlockSize);
  EXPECT_LT(log_time, disk_time / 5);
}

TEST(SegmentLogTest, SegmentSwitchCostsOneSeek) {
  SegmentLog log(SmallLog(/*segments=*/8, /*segment_bytes=*/2 * kBlockSize));
  log.Write({1, 0}, kBlockSize);
  log.Write({1, 1}, kBlockSize);  // fills segment 0
  const SimDuration t = log.Write({1, 2}, kBlockSize);  // switches segment
  EXPECT_GE(t, DiskConfig{}.access_time);
}

TEST(SegmentLogTest, OverwriteKillsOldCopy) {
  SegmentLog log(SmallLog());
  log.Write({1, 0}, kBlockSize);
  log.Write({1, 0}, kBlockSize);
  // Both copies consumed log space, but only one is live.
  EXPECT_LT(log.Utilization(), 1.0);
  EXPECT_EQ(log.user_bytes_written(), 2 * kBlockSize);
}

TEST(SegmentLogTest, CleanerReclaimsDeadSegments) {
  SegmentLog log(SmallLog(/*segments=*/6, /*segment_bytes=*/2 * kBlockSize));
  // Repeatedly overwrite one block: all old segments become fully dead, so
  // cleaning copies nothing and the log never fills.
  for (int i = 0; i < 100; ++i) {
    log.Write({1, 0}, kBlockSize);
  }
  EXPECT_GT(log.segments_cleaned(), 0);
  EXPECT_EQ(log.cleaning_bytes_copied(), 0) << "fully dead segments are free to clean";
  EXPECT_DOUBLE_EQ(log.WriteCost(), 1.0);
}

TEST(SegmentLogTest, CleanerCopiesLiveData) {
  SegmentLog log(SmallLog(/*segments=*/6, /*segment_bytes=*/2 * kBlockSize));
  // Write distinct live blocks until cleaning must move live data.
  // 6 segments x 2 blocks = 12 block slots; keep 4 blocks live and churn
  // the rest.
  for (int i = 0; i < 4; ++i) {
    log.Write({2, i}, kBlockSize);
  }
  for (int i = 0; i < 60; ++i) {
    log.Write({3, i % 3}, kBlockSize);
  }
  EXPECT_GT(log.segments_cleaned(), 0);
  EXPECT_GT(log.cleaning_bytes_copied(), 0);
  EXPECT_GT(log.WriteCost(), 1.0);
}

TEST(SegmentLogTest, DeleteFreesSpaceForCleaner) {
  SegmentLog log(SmallLog(/*segments=*/6, /*segment_bytes=*/2 * kBlockSize));
  for (int i = 0; i < 8; ++i) {
    log.Write({7, i}, kBlockSize);
  }
  log.DeleteFile(7);
  // All space is dead: heavy churn must not throw (cleaner reclaims).
  for (int i = 0; i < 50; ++i) {
    log.Write({8, i % 2}, kBlockSize);
  }
  EXPECT_GT(log.segments_cleaned(), 0);
}

TEST(SegmentLogTest, DeviceFullOfLiveDataThrows) {
  SegmentLog log(SmallLog(/*segments=*/4, /*segment_bytes=*/2 * kBlockSize));
  EXPECT_THROW(
      {
        for (int i = 0; i < 9; ++i) {
          log.Write({9, i}, kBlockSize);  // all live, nothing cleanable
        }
      },
      std::runtime_error);
}

TEST(SegmentLogTest, ReadCostsSeekPlusTransfer) {
  SegmentLog log(SmallLog());
  log.Write({1, 0}, kBlockSize);
  const SimDuration t = log.Read({1, 0}, kBlockSize);
  EXPECT_GE(t, DiskConfig{}.access_time);
}

TEST(SegmentLogTest, ServerIntegration) {
  ServerConfig config;
  config.disk_layout = DiskLayout::kLogStructured;
  Server server(0, config, DiskConfig{});
  ASSERT_NE(server.segment_log(), nullptr);
  // Writebacks land in the log.
  server.Writeback(5, 0, kBlockSize, false, 0);
  server.CleanerTick(31 * kSecond);
  EXPECT_EQ(server.segment_log()->user_bytes_written(), kBlockSize);
  // Default layout has no log.
  Server plain(1, ServerConfig{}, DiskConfig{});
  EXPECT_EQ(plain.segment_log(), nullptr);
}

}  // namespace
}  // namespace sprite
