#include "src/fs/block_cache.h"

#include <algorithm>
#include <cassert>

#include <sanitizer/asan_interface.h>

namespace sprite {

BlockCache::BlockCache(const CacheConfig& config, CacheCounters* counters)
    : config_(config), counters_(counters), limit_blocks_(config.min_blocks) {}

const BlockCache::Entry* BlockCache::Locate(BlockKey key) const {
  auto fit = files_.find(key.file);
  if (fit == files_.end()) {
    return nullptr;
  }
  const FileState& fs = fit->second;
  // Unsigned, so any block number is safe: one below the base wraps past
  // the table's end.
  const uint64_t i = static_cast<uint64_t>(key.index) - static_cast<uint64_t>(fs.base);
  return i < fs.table.size() ? fs.table[i] : nullptr;
}

BlockCache::Entry*& BlockCache::TableSlot(FileState& fs, int64_t block) {
  if (fs.table.empty()) {
    fs.base = block;
    fs.table.resize(1);
  } else if (block < fs.base) {
    // Extending the front by at least the table's size keeps a run that
    // walks down at amortized O(1) per block.
    const int64_t grow = std::max(fs.base - block, static_cast<int64_t>(fs.table.size()));
    fs.table.insert(fs.table.begin(), static_cast<size_t>(grow), nullptr);
    fs.base -= grow;
  } else if (block - fs.base >= static_cast<int64_t>(fs.table.size())) {
    fs.table.resize(static_cast<size_t>(block - fs.base + 1));
  }
  return fs.table[static_cast<size_t>(block - fs.base)];
}

BlockCache::Entry* BlockCache::Allocate(BlockKey key) {
  assert(Locate(key) == nullptr);
  Entry* entry = nullptr;
  if (free_.empty()) {
    entry = &pool_.emplace_back();
  } else {
    entry = free_.back();
    free_.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(entry, sizeof(Entry));
    *entry = Entry{};
  }
  FileState& fs = files_[key.file];
  TableSlot(fs, key.index) = entry;
  ++fs.resident;
  entry->key = key;
  entry->file = &fs;
  return entry;
}

void BlockCache::Release(Entry* entry) {
  free_.push_back(entry);
  ASAN_POISON_MEMORY_REGION(entry, sizeof(Entry));
}

void BlockCache::LruUnlink(Entry* entry) {
  if (entry->lru_prev != nullptr) {
    entry->lru_prev->lru_next = entry->lru_next;
  } else {
    lru_head_ = entry->lru_next;
  }
  if (entry->lru_next != nullptr) {
    entry->lru_next->lru_prev = entry->lru_prev;
  } else {
    lru_tail_ = entry->lru_prev;
  }
  entry->lru_prev = nullptr;
  entry->lru_next = nullptr;
}

void BlockCache::LruPushFront(Entry* entry) {
  entry->lru_prev = nullptr;
  entry->lru_next = lru_head_;
  if (lru_head_ != nullptr) {
    lru_head_->lru_prev = entry;
  }
  lru_head_ = entry;
  if (lru_tail_ == nullptr) {
    lru_tail_ = entry;
  }
}

void BlockCache::LruPushBack(Entry* entry) {
  entry->lru_next = nullptr;
  entry->lru_prev = lru_tail_;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = entry;
  }
  lru_tail_ = entry;
  if (lru_head_ == nullptr) {
    lru_head_ = entry;
  }
}

void BlockCache::TouchLru(Entry* entry, SimTime now) {
  entry->last_ref = now;
  LruUnlink(entry);
  LruPushFront(entry);
}

void BlockCache::SortForFlush(std::vector<Entry*>& dirty) {
  std::sort(dirty.begin(), dirty.end(),
            [](const Entry* a, const Entry* b) { return a->key.index > b->key.index; });
  for (size_t i = 0; i < dirty.size(); ++i) {
    dirty[i]->dirty_slot = static_cast<uint32_t>(i);
  }
}

void BlockCache::MarkDirty(Entry* entry, SimTime now) {
  entry->dirty = true;
  entry->dirty_since = now;
  entry->dirty_extent = 0;
  std::vector<Entry*>& dirty = entry->file->dirty;
  entry->dirty_slot = static_cast<uint32_t>(dirty.size());
  dirty.push_back(entry);
  if (dirty.size() == 1) {
    dirty_files_.insert(entry->key.file);
  }
}

void BlockCache::MarkClean(Entry* entry) {
  entry->dirty = false;
  entry->dirty_extent = 0;
  std::vector<Entry*>& dirty = entry->file->dirty;
  Entry* last = dirty.back();
  dirty[entry->dirty_slot] = last;
  last->dirty_slot = entry->dirty_slot;
  dirty.pop_back();
  if (dirty.empty()) {
    dirty_files_.erase(entry->key.file);
  }
}

bool BlockCache::Lookup(BlockKey key, SimTime now) {
  Entry* entry = Find(key);
  if (entry == nullptr) {
    return false;
  }
  if (entry->prefetched) {
    entry->prefetched = false;
    if (counters_ != nullptr) {
      ++counters_->prefetch_useful;
    }
  }
  TouchLru(entry, now);
  return true;
}

BlockCache::Entry* BlockCache::InsertNew(BlockKey key, SimTime now, WritebackFn writeback) {
  while (block_count() >= limit_blocks_ && lru_tail_ != nullptr) {
    EvictBlock(lru_tail_, now, CleanReason::kReplacement, ReplaceReason::kForFileBlock,
               writeback);
  }
  Entry* entry = Allocate(key);
  entry->last_ref = now;
  LruPushFront(entry);
  return entry;
}

void BlockCache::InsertClean(BlockKey key, SimTime now, WritebackFn writeback) {
  if (Entry* entry = Find(key)) {
    TouchLru(entry, now);
    return;
  }
  InsertNew(key, now, writeback);
}

void BlockCache::InsertPrefetched(BlockKey key, SimTime now, WritebackFn writeback) {
  if (Entry* entry = Find(key)) {
    TouchLru(entry, now);
    return;
  }
  InsertNew(key, now, writeback)->prefetched = true;
  if (counters_ != nullptr) {
    ++counters_->prefetch_fetches;
  }
}

bool BlockCache::Write(BlockKey key, SimTime now, int64_t end_in_block, WritebackFn writeback) {
  Entry* entry = Find(key);
  const bool was_resident = entry != nullptr;
  if (was_resident) {
    TouchLru(entry, now);
  } else {
    entry = InsertNew(key, now, writeback);
  }
  if (!entry->dirty) {
    MarkDirty(entry, now);
  }
  entry->dirty_extent = std::clamp<int64_t>(end_in_block, entry->dirty_extent, kBlockSize);
  return was_resident;
}

bool BlockCache::IsDirty(BlockKey key) const {
  const Entry* entry = Locate(key);
  return entry != nullptr && entry->dirty;
}

BlockCache::Entry* BlockCache::CleanBlock(Entry* entry, SimTime now, CleanReason reason,
                                          WritebackFn writeback) {
  if (counters_ != nullptr) {
    const int r = static_cast<int>(reason);
    ++counters_->cleaned[r];
    counters_->cleaned_age_us[r] += now - entry->dirty_since;
    counters_->bytes_written_to_server += entry->dirty_extent;
  }
  if (writeback) {
    const BlockKey key = entry->key;
    const uint64_t erases = erase_count_;
    writeback(key, entry->dirty_extent);
    if (erase_count_ != erases) {
      // The callback re-entered and erased blocks; `entry` may be freed.
      entry = Find(key);
      if (entry == nullptr) {
        return nullptr;
      }
    }
  }
  if (entry->dirty) {  // a nested flush of the same file may have cleaned it
    MarkClean(entry);
  }
  return entry;
}

void BlockCache::EraseEntry(Entry* entry) {
  assert(!entry->dirty);  // EvictBlock cleans first; whole files go via EraseFile
  LruUnlink(entry);
  FileState& fs = *entry->file;
  std::vector<Entry*>& table = fs.table;
  table[static_cast<size_t>(entry->key.index - fs.base)] = nullptr;
  if (--fs.resident == 0) {
    if (fs.version == 0) {
      files_.erase(entry->key.file);
    } else {
      std::vector<Entry*>().swap(table);
    }
  } else {
    // The back is trimmed at once, the front only once the table is at most
    // half full: a run that walks up empties the front one slot per block.
    // Either may leave the allocation oversized, so it shrinks past twice
    // the table's size.
    while (table.back() == nullptr) {
      table.pop_back();
    }
    if (table.front() == nullptr && 2 * fs.resident <= static_cast<int64_t>(table.size())) {
      const auto first = std::find_if(table.begin(), table.end(),
                                      [](const Entry* e) { return e != nullptr; });
      fs.base += first - table.begin();
      table.erase(table.begin(), first);
    }
    if (table.capacity() > 2 * table.size()) {
      table.shrink_to_fit();
    }
  }
  Release(entry);
  ++erase_count_;
}

int64_t BlockCache::EraseFile(uint64_t file) {
  auto fit = files_.find(file);
  if (fit == files_.end()) {
    return 0;
  }
  int64_t dirty_bytes = 0;
  for (const Entry* entry : fit->second.dirty) {
    dirty_bytes += entry->dirty_extent;
  }
  for (Entry* entry : fit->second.table) {
    if (entry != nullptr) {
      LruUnlink(entry);
      Release(entry);
    }
  }
  if (!fit->second.dirty.empty()) {
    dirty_files_.erase(file);
  }
  files_.erase(fit);
  ++erase_count_;
  return dirty_bytes;
}

void BlockCache::EvictBlock(Entry* entry, SimTime now, CleanReason reason,
                            ReplaceReason replace_reason, WritebackFn writeback) {
  if (entry->dirty) {
    entry = CleanBlock(entry, now, reason, writeback);
    if (entry == nullptr) {
      return;  // dropped by a re-entrant callback: gone, not replaced
    }
  }
  if (counters_ != nullptr) {
    const SimDuration age = now - entry->last_ref;
    if (replace_reason == ReplaceReason::kForFileBlock) {
      ++counters_->replaced_for_file;
      counters_->replaced_for_file_age_us += age;
    } else {
      ++counters_->replaced_for_vm;
      counters_->replaced_for_vm_age_us += age;
    }
  }
  EraseEntry(entry);
}

std::pair<int64_t, int64_t> BlockCache::FlushFile(uint64_t file, SimTime now,
                                                  CleanReason reason, WritebackFn writeback) {
  int64_t blocks = 0;
  int64_t bytes = 0;
  auto fit = files_.find(file);
  if (fit == files_.end()) {
    return {blocks, bytes};
  }
  SortForFlush(fit->second.dirty);
  while (!fit->second.dirty.empty()) {
    Entry* entry = fit->second.dirty.back();
    ++blocks;
    bytes += entry->dirty_extent;
    const uint64_t erases = erase_count_;
    CleanBlock(entry, now, reason, writeback);
    if (erase_count_ != erases) {
      // The writeback re-entered and erased blocks: the file may be gone,
      // and swap-removes may have broken the flush order.
      fit = files_.find(file);
      if (fit == files_.end()) {
        break;
      }
      SortForFlush(fit->second.dirty);
    }
  }
  return {blocks, bytes};
}

int64_t BlockCache::CleanAged(SimTime now, WritebackFn writeback) {
  if (dirty_files_.empty()) {
    return 0;
  }
  // Pass 1: find files with at least one block dirty >= delay, looking only
  // at dirty blocks of dirty files — a clean cache costs nothing, no matter
  // how large it is. dirty_files_ is ordered, so files_due is ascending.
  std::vector<uint64_t> files_due;
  for (uint64_t file : dirty_files_) {
    for (const Entry* entry : files_.find(file)->second.dirty) {
      if (now - entry->dirty_since >= config_.writeback_delay) {
        files_due.push_back(file);
        break;
      }
    }
  }
  // Pass 2: write back every dirty block of those files ("All dirty blocks
  // for a file are written to the server if any block ... has been dirty for
  // 30 seconds").
  int64_t cleaned = 0;
  for (uint64_t file : files_due) {
    cleaned += FlushFile(file, now, CleanReason::kDelay, writeback).first;
  }
  return cleaned;
}

int64_t BlockCache::CleanFile(uint64_t file, SimTime now, CleanReason reason,
                              WritebackFn writeback) {
  return FlushFile(file, now, reason, writeback).second;
}

bool BlockCache::HasDirtyBlocks(uint64_t file) const {
  auto fit = files_.find(file);
  return fit != files_.end() && !fit->second.dirty.empty();
}

int64_t BlockCache::DirtyBytes(uint64_t file) const {
  auto fit = files_.find(file);
  if (fit == files_.end()) {
    return 0;
  }
  int64_t bytes = 0;
  for (const Entry* entry : fit->second.dirty) {
    bytes += entry->dirty_extent;
  }
  return bytes;
}

std::vector<uint64_t> BlockCache::DirtyFiles() const {
  return std::vector<uint64_t>(dirty_files_.begin(), dirty_files_.end());
}

void BlockCache::ForEachDirtyBlock(uint64_t file,
                                   FunctionRef<void(int64_t block, int64_t extent)> fn) const {
  auto fit = files_.find(file);
  if (fit == files_.end() || fit->second.dirty.empty()) {
    return;
  }
  // A sorted copy: the dirty list is unordered, and `fn` may re-enter.
  std::vector<std::pair<int64_t, int64_t>> blocks;
  blocks.reserve(fit->second.dirty.size());
  for (const Entry* entry : fit->second.dirty) {
    blocks.emplace_back(entry->key.index, entry->dirty_extent);
  }
  std::sort(blocks.begin(), blocks.end());
  for (const auto& [block, extent] : blocks) {
    fn(block, extent);
  }
}

uint64_t BlockCache::CachedVersion(uint64_t file) const {
  auto fit = files_.find(file);
  return fit == files_.end() ? 0 : fit->second.version;
}

int64_t BlockCache::TableSlots(uint64_t file) const {
  auto fit = files_.find(file);
  return fit == files_.end() ? 0 : static_cast<int64_t>(fit->second.table.capacity());
}

int64_t BlockCache::DropFile(uint64_t file, SimTime now) {
  (void)now;
  return EraseFile(file);
}

void BlockCache::InvalidateFile(uint64_t file, SimTime now) {
  (void)now;
  const int64_t cancelled = EraseFile(file);
  if (counters_ != nullptr) {
    counters_->bytes_cancelled_before_writeback += cancelled;
  }
}

SimDuration BlockCache::LruAge(SimTime now) const {
  return lru_tail_ == nullptr ? -1 : now - lru_tail_->last_ref;
}

bool BlockCache::ReleaseLruToVm(SimTime now, WritebackFn writeback) {
  if (lru_tail_ == nullptr || limit_blocks_ <= config_.min_blocks) {
    return false;
  }
  EvictBlock(lru_tail_, now, CleanReason::kVm, ReplaceReason::kForVmPage, writeback);
  --limit_blocks_;
  return true;
}

void BlockCache::DemoteToLruTail(BlockKey key) {
  Entry* entry = Find(key);
  if (entry == nullptr) {
    return;
  }
  LruUnlink(entry);
  LruPushBack(entry);
}

std::pair<int64_t, int64_t> BlockCache::CrashReset(WritebackFn nvram_recovery) {
  // Ascending (file, block) order, so NVRAM recovery RPCs go out in an order
  // that does not depend on hash-table internals. A copy: the recovery
  // writebacks may re-enter the cache.
  std::vector<std::pair<BlockKey, int64_t>> dirty;
  for (uint64_t file : dirty_files_) {
    ForEachDirtyBlock(file, [&dirty, file](int64_t block, int64_t extent) {
      dirty.emplace_back(BlockKey{file, block}, extent);
    });
  }
  int64_t lost = 0;
  int64_t recovered = 0;
  for (const auto& [key, extent] : dirty) {
    if (nvram_recovery) {
      nvram_recovery(key, extent);
      recovered += extent;
    } else {
      lost += extent;
    }
  }
  // A fresh pool, not clear(): clear() keeps a chunk whose freed entries
  // are poisoned under ASan.
  std::deque<Entry>().swap(pool_);
  free_.clear();
  lru_head_ = nullptr;
  lru_tail_ = nullptr;
  files_.clear();
  dirty_files_.clear();
  ++erase_count_;
  limit_blocks_ = config_.min_blocks;
  return {lost, recovered};
}

bool BlockCache::SyncVersion(uint64_t file, uint64_t server_version, SimTime now) {
  auto fit = files_.find(file);
  const bool had_version = fit != files_.end() && fit->second.version != 0;
  const bool stale = had_version && fit->second.version != server_version;
  const bool has_blocks = fit != files_.end() && fit->second.resident != 0;
  if (stale && has_blocks) {
    InvalidateFile(file, now);  // erases the FileState; recreated below
  }
  files_[file].version = server_version;
  return stale && has_blocks;
}

}  // namespace sprite
