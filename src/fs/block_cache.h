// Block-granularity file cache with LRU replacement, delayed writes, and
// dynamic sizing — the mechanism at the center of Section 5 of the paper.
//
// One BlockCache instance lives in each simulated client kernel (and a
// larger one in each server). Key behaviours reproduced from the paper:
//   * 4-Kbyte blocks, least-recently-used replacement.
//   * Writes are delayed: dirty data is written back only when it has been
//     dirty for `writeback_delay` (30 s), when an application fsyncs, when
//     the server recalls it, or when the page is given to virtual memory.
//   * When any block of a file exceeds the delay, ALL dirty blocks of that
//     file are written back together.
//   * The cache grows and shrinks: insertions may be denied pages (the VM
//     system has preference), and the VM system can take the LRU page.
//   * Per-file version numbers let a client flush stale blocks when the
//     server reports a newer version at open time.
//
// Hot-path layout: entries live in a pool whose addresses never move, and
// each file's FileState indexes its resident entries by block number in a
// dense table (slot i holds block base + i, or null). Whole-file sequential
// runs dominate the traffic, so a lookup is one probe of the per-file map,
// which a run keeps hot, plus an array index that consecutive blocks share.
// The table covers only the span of the file's resident blocks: growing the
// front extends it by at least its current size, the last slot always holds
// a block, once the table is at most half full its leading null slots are
// trimmed, and an allocation over twice the table's size is shrunk. So a
// table holds at most four slots per block of its span, and it is freed
// with the file's last block. Each entry points at its FileState
// (std::unordered_map nodes never move), so dirtying, cleaning and erasing
// a block do no hash lookup. The LRU chain is intrusive
// (prev/next pointers embedded in the entries). Each file's dirty blocks
// also sit in an unordered vector whose slot every dirty entry stores, so
// dirtying and cleaning are O(1) swap-removes; a flush sorts that list, so
// writebacks still go out in ascending block order. Files with dirty blocks
// are tracked in a small ordered set, so the 5-second cleaner looks only at
// dirty blocks of dirty files instead of the whole cache.
//
// Every callback parameter is a FunctionRef: the caller's lambda, invoked in
// place and never stored, so inserting, writing and cleaning a block
// allocate nothing. Writeback callbacks may re-enter the cache: crash
// recovery runs nested inside whichever RPC sees a server reboot, including
// a writeback, and can drop the very file being flushed. Every erasure
// bumps a counter, so a flush compares one integer after each writeback
// call and re-validates its position only when blocks actually vanished.

#ifndef SPRITE_DFS_SRC_FS_BLOCK_CACHE_H_
#define SPRITE_DFS_SRC_FS_BLOCK_CACHE_H_

#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/counters.h"
#include "src/util/function_ref.h"
#include "src/util/units.h"

namespace sprite {

struct BlockKey {
  uint64_t file = 0;
  int64_t index = 0;  // block number within the file

  bool operator==(const BlockKey&) const = default;
};

class BlockCache {
 public:
  // `counters` may be null (e.g. in unit tests that only check structure).
  BlockCache(const CacheConfig& config, CacheCounters* counters);

  // Called when the cache must push a dirty block to the server:
  // (key, bytes) where bytes is the dirty extent of the block. Empty means
  // the block leaves without a writeback.
  using WritebackFn = FunctionRef<void(BlockKey key, int64_t bytes)>;

  // --- Size management -----------------------------------------------------
  int64_t block_count() const { return static_cast<int64_t>(pool_.size() - free_.size()); }
  int64_t size_bytes() const { return block_count() * kBlockSize; }
  int64_t limit_blocks() const { return limit_blocks_; }
  // Raises or lowers the limit; lowering does not evict immediately (the
  // next insertions will shrink the population).
  void set_limit_blocks(int64_t blocks) { limit_blocks_ = blocks; }

  // --- Read path -----------------------------------------------------------
  // True if the block is resident (does not touch LRU state).
  bool Contains(BlockKey key) const { return Locate(key) != nullptr; }
  // Read hit check: if resident, refreshes LRU position and returns true.
  bool Lookup(BlockKey key, SimTime now);

  // Inserts a block just fetched from the server (clean). Evicts the LRU
  // block(s) if at the size limit; a dirty victim is written back first via
  // `writeback` with CleanReason::kReplacement.
  void InsertClean(BlockKey key, SimTime now, WritebackFn writeback);

  // Inserts a block fetched by sequential readahead. Counted as a prefetch;
  // the first later demand Lookup that hits it counts as prefetch_useful.
  void InsertPrefetched(BlockKey key, SimTime now, WritebackFn writeback);

  // --- Write path ----------------------------------------------------------
  // Writes `bytes` into the block ending at in-block offset `end_in_block`
  // (the dirty extent grows to `end_in_block`). Inserts the block if absent.
  // Returns true if the block was already resident.
  bool Write(BlockKey key, SimTime now, int64_t end_in_block, WritebackFn writeback);

  bool IsDirty(BlockKey key) const;

  // --- Cleaning ------------------------------------------------------------
  // The 5-second daemon scan: writes back every dirty block belonging to any
  // file that has at least one block dirty for >= writeback_delay, file by
  // file in ascending id order, each file's blocks in ascending block order.
  // Each block turns clean right after its own writeback call, so inside
  // the callback HasDirtyBlocks/DirtyBytes/DirtyFiles still count the block
  // being written and every block after it. Returns the blocks cleaned.
  int64_t CleanAged(SimTime now, WritebackFn writeback);

  // Cleans all dirty blocks of `file` for the given reason (fsync, server
  // recall), in ascending block order with the same per-block visibility as
  // CleanAged. Returns bytes written back.
  int64_t CleanFile(uint64_t file, SimTime now, CleanReason reason, WritebackFn writeback);

  // True if `file` has any dirty block.
  bool HasDirtyBlocks(uint64_t file) const;

  // Total dirty bytes resident for `file`.
  int64_t DirtyBytes(uint64_t file) const;

  // Files with at least one dirty block, in ascending id order (stable for
  // deterministic reopen storms during crash recovery).
  std::vector<uint64_t> DirtyFiles() const;

  // Visits every dirty block of `file` in ascending block order with its
  // dirty extent, without touching LRU or dirty state. Replication uses this
  // to rebuild a standby's shadow from the live primary's cache.
  void ForEachDirtyBlock(uint64_t file, FunctionRef<void(int64_t block, int64_t extent)> fn) const;

  // The version last reported/adopted for `file`, or 0 if unknown.
  uint64_t CachedVersion(uint64_t file) const;

  // --- Invalidation --------------------------------------------------------
  // Drops all blocks of `file` (stale version, delete, or caching disabled).
  // Dirty data is discarded and counted as cancelled (never reached the
  // server) — used when the file was deleted; for recalls use CleanFile
  // first.
  void InvalidateFile(uint64_t file, SimTime now);

  // Drops all blocks of `file` without the cancelled-bytes accounting:
  // the dirty data was destroyed by a failure (stale handle after a server
  // crash), not saved by the delayed-write policy. Returns the dirty bytes
  // dropped.
  int64_t DropFile(uint64_t file, SimTime now);

  // --- Page trading with virtual memory -------------------------------------
  // Age (now - last reference) of the least-recently-used block, or -1 if
  // the cache is empty. Used for the global-LRU page trade with VM.
  SimDuration LruAge(SimTime now) const;

  // Releases the LRU block so its page can be given to the VM system.
  // A dirty victim is written back first (CleanReason::kVm). Also lowers the
  // limit by one block. Returns false if the cache is empty or at its
  // minimum size.
  bool ReleaseLruToVm(SimTime now, WritebackFn writeback);

  // Grows the limit by one block (a page acquired from the VM system).
  void GrantPageFromVm() { ++limit_blocks_; }

  // Moves a resident block to the LRU tail so it is replaced first. Sprite
  // does this to code-page blocks after copying their contents to the VM
  // system ("the file cache block is marked for replacement").
  void DemoteToLruTail(BlockKey key);

  // --- Consistency support --------------------------------------------------
  // Compares the server-reported version at open; if it differs from the
  // cached version, flushes the file's blocks and records the new version.
  // Returns true if stale data was flushed.
  bool SyncVersion(uint64_t file, uint64_t server_version, SimTime now);

  // Records `version` as the cached version WITHOUT flushing — used when
  // this client itself produced the new version (its cached blocks are the
  // newest data in the system).
  void AdoptVersion(uint64_t file, uint64_t version) { files_[file].version = version; }

  // Simulates a machine crash + reboot. Every block is dropped and the
  // limit returns to the minimum (rebooted caches start small). Dirty data
  // is LOST unless `nvram_recovery` is provided, in which case it is pushed
  // through it (non-volatile cache memory surviving the crash) in ascending
  // (file, block) order. Returns {lost_bytes, recovered_bytes}.
  std::pair<int64_t, int64_t> CrashReset(WritebackFn nvram_recovery);

  const CacheConfig& config() const { return config_; }

  // Slots allocated for `file`'s block table; 0 once its last block is gone.
  // No production caller: BlockCacheTest and BlockIndexProperty check the
  // table's memory bound through it.
  int64_t TableSlots(uint64_t file) const;

 private:
  struct FileState;

  struct Entry {
    BlockKey key;  // embedded: the intrusive LRU chain needs no key list
    SimTime last_ref = 0;
    SimTime dirty_since = 0;   // first write after last clean
    int64_t dirty_extent = 0;  // bytes from block start covered by writeback
    // Intrusive LRU links (head = most recent, tail = least recent). Pool
    // entries never move, so these survive unrelated inserts and erases.
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
    FileState* file = nullptr;  // the state of key.file, which holds this entry
    // This entry's index in its FileState's `dirty` while dirty:
    // swap-removal needs no search.
    uint32_t dirty_slot = 0;
    bool prefetched = false;  // inserted by readahead, not yet demanded
    bool dirty = false;
  };

  // All per-file state in one node: the resident blocks by block number,
  // the dirty subset (unordered; a flush sorts it), and the cached version
  // (0 = unknown; real server versions start at 1).
  struct FileState {
    // table[i] is block base + i, or null. Empty while no block is resident;
    // otherwise its last slot is never null.
    std::vector<Entry*> table;
    int64_t base = 0;
    int64_t resident = 0;  // non-null slots in `table`
    std::vector<Entry*> dirty;
    uint64_t version = 0;
  };

  // Orders a dirty list for a flush: descending block index, so the flush
  // takes the lowest block off the back and each MarkClean is a pop_back.
  static void SortForFlush(std::vector<Entry*>& dirty);

  // `key`'s entry, or nullptr if it is not resident.
  const Entry* Locate(BlockKey key) const;
  Entry* Find(BlockKey key) { return const_cast<Entry*>(Locate(key)); }
  // Takes a pool entry for `key`, which must not be resident, and enters it
  // in its file's table.
  Entry* Allocate(BlockKey key);
  // Returns `entry` to the free list. Under ASan the freed entry is
  // poisoned until reused, so a stale Entry* still faults.
  void Release(Entry* entry);
  // `fs`'s table slot for `block`, growing the table to cover it.
  static Entry*& TableSlot(FileState& fs, int64_t block);

  void LruUnlink(Entry* entry);
  void LruPushFront(Entry* entry);
  void LruPushBack(Entry* entry);
  void TouchLru(Entry* entry, SimTime now);
  // Inserts absent `key` as the most recent clean block, first evicting LRU
  // blocks down to the limit.
  Entry* InsertNew(BlockKey key, SimTime now, WritebackFn writeback);
  // Dirty-flag transitions route through these so the per-file dirty lists
  // and the dirty-file set stay exact.
  void MarkDirty(Entry* entry, SimTime now);
  void MarkClean(Entry* entry);
  // Writes the block back (if dirty) and erases it, unless the writeback
  // call itself erased it. `reason` applies when dirty.
  void EvictBlock(Entry* entry, SimTime now, CleanReason reason,
                  ReplaceReason replace_reason, WritebackFn writeback);
  // Writes a dirty block back, then marks it clean. Returns the entry, or
  // nullptr if the writeback call re-entered the cache and erased it.
  Entry* CleanBlock(Entry* entry, SimTime now, CleanReason reason, WritebackFn writeback);
  // Writes back every dirty block of `file` in ascending block order.
  // Returns {blocks, bytes} written.
  std::pair<int64_t, int64_t> FlushFile(uint64_t file, SimTime now, CleanReason reason,
                                        WritebackFn writeback);
  void EraseEntry(Entry* entry);
  // Erases every block of `file` and its FileState. Returns the dirty bytes
  // that were resident.
  int64_t EraseFile(uint64_t file);

  CacheConfig config_;
  CacheCounters* counters_;
  int64_t limit_blocks_;

  // Resident blocks. A deque never moves its elements, and an erased
  // entry goes to `free_` for reuse.
  std::deque<Entry> pool_;
  std::vector<Entry*> free_;
  Entry* lru_head_ = nullptr;  // most recent
  Entry* lru_tail_ = nullptr;  // least recent
  // file -> blocks/dirty blocks/version. A node-based map: entries point at
  // their FileState, which must not move when the map rehashes. An entry
  // outlives its blocks only while it still carries a known version.
  std::unordered_map<uint64_t, FileState> files_;
  // Files with a non-empty dirty list, ascending. Small (bounded by the
  // 30-second write-back horizon), and gives cleaners their deterministic
  // file order.
  std::set<uint64_t> dirty_files_;
  // Bumped by every erasure of blocks or FileStates. A flush compares it
  // across each writeback call to detect re-entrant erasure.
  uint64_t erase_count_ = 0;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_BLOCK_CACHE_H_
