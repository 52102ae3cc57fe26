// Log-structured disk layout for the file server.
//
// The paper's closing projection: "If read hit ratios continue to improve,
// then writes will eventually dominate file system performance and new
// approaches, such as ... log-structured file systems, will become
// attractive", citing Rosenblum & Ousterhout's LFS (SOSP 1991). This module
// implements that alternative server disk backend:
//
//   * All writes append to the current log segment — sequential bandwidth,
//     no per-write positioning; one seek per segment switch.
//   * Overwriting or deleting a block leaves a dead copy in its old
//     segment.
//   * When free segments run low, a greedy cleaner picks the segments with
//     the least live data, copies the live blocks to the log head, and
//     frees them. Cleaning cost (read + rewrite of live bytes) is charged
//     to the write path, giving the classic LFS write-cost amplification.
//   * Reads are ordinary random access (seek + transfer).
//
// The in-place `Disk` and this class share the timing model of DiskConfig;
// `Server` selects between them via ServerConfig::disk_layout.

#ifndef SPRITE_DFS_SRC_FS_LOG_DISK_H_
#define SPRITE_DFS_SRC_FS_LOG_DISK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/fs/block_cache.h"  // BlockKey
#include "src/fs/config.h"
#include "src/util/units.h"

namespace sprite {

struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    return std::hash<uint64_t>()(k.file * 0x9e3779b97f4a7c15ULL ^
                                 static_cast<uint64_t>(k.index));
  }
};

struct SegmentLogConfig {
  // Size of one log segment (LFS used 512 KB - 1 MB).
  int64_t segment_bytes = 512 * kKilobyte;
  // Total number of segments on the device.
  int64_t total_segments = 512;
  // Cleaning starts when fewer than this many segments are free.
  int64_t clean_low_water = 8;
  // Cleaning stops when this many segments are free again.
  int64_t clean_high_water = 16;
  // Timing of the underlying device.
  DiskConfig device;
};

class SegmentLog {
 public:
  explicit SegmentLog(const SegmentLogConfig& config);

  // Writes the current image of `key` (`bytes` of it) to the log. Any
  // previous copy becomes dead. Returns the device time consumed, including
  // any cleaning work this write triggered.
  SimDuration Write(BlockKey key, int64_t bytes);

  // Reads `key` from wherever it lives (seek + transfer). Blocks never
  // written read as a full seek (cold metadata fetch).
  SimDuration Read(BlockKey key, int64_t bytes);

  // Drops every block of `file` (no device time: metadata only).
  void DeleteFile(uint64_t file);

  // --- Statistics -------------------------------------------------------------
  int64_t user_bytes_written() const { return user_bytes_written_; }
  int64_t cleaning_bytes_copied() const { return cleaning_bytes_copied_; }
  int64_t segments_cleaned() const { return segments_cleaned_; }
  int64_t free_segments() const;
  SimDuration busy_time() const { return busy_time_; }
  // LFS write cost: (user bytes + cleaning traffic) / user bytes. 1.0 when
  // the cleaner never runs.
  double WriteCost() const;
  // Fraction of non-free segment space holding live data.
  double Utilization() const;

 private:
  struct Location {
    int64_t segment = -1;
    int64_t bytes = 0;
  };
  // Appends raw bytes at the log head, advancing segments as needed;
  // returns device time (bandwidth + one positioning per new segment).
  SimDuration AppendRaw(int64_t bytes);
  // Runs the greedy cleaner until the high-water mark is restored. Returns
  // device time spent.
  SimDuration CleanIfNeeded();
  int64_t SegmentsInUse() const;
  void KillOldCopy(BlockKey key);

  SegmentLogConfig config_;
  std::unordered_map<BlockKey, Location, BlockKeyHash> locations_;
  // segment -> keys currently living there (for cleaning copies).
  std::unordered_map<int64_t, std::vector<BlockKey>> segment_blocks_;
  std::unordered_map<int64_t, int64_t> segment_live_bytes_;
  std::unordered_map<int64_t, int64_t> segment_used_bytes_;
  int64_t head_segment_ = 0;
  int64_t head_offset_ = 0;
  int64_t next_new_segment_ = 1;
  std::vector<int64_t> free_list_;

  int64_t user_bytes_written_ = 0;
  int64_t cleaning_bytes_copied_ = 0;
  int64_t segments_cleaned_ = 0;
  SimDuration busy_time_ = 0;
  bool cleaning_ = false;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_LOG_DISK_H_
