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
// Hot-path layout: entries live in a pool whose addresses never move, and a
// private open-addressed index maps each (file, block) key to its pool
// entry. The LRU chain is intrusive (prev/next pointers embedded in the
// entries — no separate std::list of keys). Each file's blocks
// live in two unordered vectors inside one FileState: every resident block,
// and the dirty ones only. Each entry stores its slot in both, so inserting,
// evicting, dirtying and cleaning a block are O(1) swap-removes no matter
// how many blocks the file holds (files reach 3072 blocks). Block order is
// established only when it matters: a flush sorts the file's dirty list,
// so writebacks still go out in ascending block order. Files with dirty
// blocks are tracked in a small ordered set, so the 5-second cleaner looks
// only at dirty blocks of dirty files instead of the whole cache.
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
#include <functional>
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

struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    return std::hash<uint64_t>()(k.file * 0x9e3779b97f4a7c15ULL ^
                                 static_cast<uint64_t>(k.index));
  }
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

 private:
  struct Entry {
    BlockKey key;  // embedded: the intrusive LRU chain needs no key list
    SimTime last_ref = 0;
    SimTime dirty_since = 0;   // first write after last clean
    int64_t dirty_extent = 0;  // bytes from block start covered by writeback
    // Intrusive LRU links (head = most recent, tail = least recent). Pool
    // entries never move, so these survive unrelated inserts and erases.
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
    // This entry's index in its FileState's `blocks`, and in `dirty` while
    // dirty: swap-removal needs no search.
    uint32_t block_slot = 0;
    uint32_t dirty_slot = 0;
    uint32_t pool_index = 0;  // this entry's own position in `pool_`
    bool prefetched = false;  // inserted by readahead, not yet demanded
    bool dirty = false;
  };

  // One slot of the block index: the key's 32-bit hash, which is both its
  // home slot and its compare tag, and its entry's pool index (kNoEntry
  // while the slot is empty).
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  struct Slot {
    uint32_t hash = 0;
    uint32_t entry = kNoEntry;
  };

  // All per-file state in one node: the resident blocks, the dirty subset
  // (both unordered; a flush sorts `dirty`), and the cached version (0 =
  // unknown; real server versions start at 1).
  struct FileState {
    std::vector<Entry*> blocks;
    std::vector<Entry*> dirty;
    uint64_t version = 0;
  };

  // Appends `entry` to `list` / swap-removes it, keeping `entry->*slot`
  // (and the moved entry's) equal to the entry's index in `list`.
  static void PushSlot(std::vector<Entry*>& list, uint32_t Entry::*slot, Entry* entry);
  static void SwapRemove(std::vector<Entry*>& list, uint32_t Entry::*slot, Entry* entry);
  // Orders a dirty list for a flush: descending block index, so the flush
  // takes the lowest block off the back and each MarkClean is a pop_back.
  static void SortForFlush(std::vector<Entry*>& dirty);

  // The block index: linear probing over `slots_`, kept at most half full,
  // with backward-shift erase and no tombstones. Growing and erasing read
  // only slots; a probe reads an entry only when the hash tag matches.
  static uint32_t HashKey(BlockKey key);
  // `key`'s entry, or nullptr if it is not resident.
  const Entry* Locate(BlockKey key) const;
  Entry* Find(BlockKey key) { return const_cast<Entry*>(Locate(key)); }
  // Takes a pool entry for `key`, which must not be resident, and indexes it.
  Entry* Allocate(BlockKey key);
  // Unindexes `entry` and returns it to the free list. Under ASan the freed
  // entry is poisoned until reused, so a stale Entry* still faults.
  void Release(Entry* entry);
  // Puts `slot` at the first free position of its probe run.
  void Place(Slot slot);

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
  // entry's position goes to `free_` for reuse.
  std::deque<Entry> pool_;
  std::vector<uint32_t> free_;
  std::vector<Slot> slots_;  // the block index; size is a power of two
  Entry* lru_head_ = nullptr;  // most recent
  Entry* lru_tail_ = nullptr;  // least recent
  // file -> blocks/dirty blocks/version. An entry outlives its blocks only
  // while it still carries a known version.
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
