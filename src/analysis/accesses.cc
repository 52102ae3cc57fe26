#include "src/analysis/accesses.h"

#include <algorithm>
#include <unordered_map>

namespace sprite {

int64_t Access::total_read() const {
  int64_t total = 0;
  for (const SequentialRun& run : runs) {
    total += run.read_bytes;
  }
  return total;
}

int64_t Access::total_write() const {
  int64_t total = 0;
  for (const SequentialRun& run : runs) {
    total += run.write_bytes;
  }
  return total;
}

Access::Type Access::type() const {
  const bool read = total_read() > 0;
  const bool write = total_write() > 0;
  if (read && write) {
    return Type::kReadWrite;
  }
  if (read) {
    return Type::kReadOnly;
  }
  if (write) {
    return Type::kWriteOnly;
  }
  return Type::kNone;
}

Access::Pattern Access::pattern() const {
  if (runs.size() > 1) {
    return Pattern::kRandom;
  }
  if (runs.empty()) {
    // Nothing transferred; treat as a (degenerate) sequential access.
    return Pattern::kOtherSequential;
  }
  const SequentialRun& run = runs.front();
  // Whole-file: the single run starts at offset 0 and covers the file. For
  // writes the relevant "file size" is the size at close (the file may have
  // been created by this very access).
  const int64_t reference_size =
      total_write() > 0 ? size_at_close : size_at_open;
  if (run.start_offset == 0 && reference_size > 0 && run.total_bytes() >= reference_size) {
    return Pattern::kWholeFile;
  }
  return Pattern::kOtherSequential;
}

std::vector<Access> ExtractAccesses(const TraceLog& log) {
  struct OpenAccess {
    Access access;
    int64_t anchor_offset = 0;
  };
  std::unordered_map<uint64_t, OpenAccess> open_handles;
  std::vector<Access> accesses;
  // One access per close that matches an open: at most one per close.
  accesses.reserve(static_cast<size_t>(std::count_if(
      log.begin(), log.end(), [](const Record& r) { return r.kind == RecordKind::kClose; })));

  auto append_run = [](OpenAccess& oa, const Record& r) {
    if (r.run_read_bytes > 0 || r.run_write_bytes > 0) {
      oa.access.runs.push_back(
          SequentialRun{oa.anchor_offset, r.run_read_bytes, r.run_write_bytes});
    }
  };

  for (const Record& r : log) {
    switch (r.kind) {
      case RecordKind::kOpen: {
        OpenAccess oa;
        oa.access.user = r.user;
        oa.access.client = r.client;
        oa.access.file = r.file;
        oa.access.migrated = r.migrated;
        oa.access.is_directory = r.is_directory;
        oa.access.mode = r.mode;
        oa.access.open_time = r.time;
        oa.access.size_at_open = r.file_size;
        oa.anchor_offset = r.offset_after;
        open_handles[r.handle] = oa;
        break;
      }
      case RecordKind::kSeek: {
        auto it = open_handles.find(r.handle);
        if (it == open_handles.end()) {
          break;
        }
        append_run(it->second, r);
        it->second.anchor_offset = r.offset_after;
        break;
      }
      case RecordKind::kClose: {
        auto it = open_handles.find(r.handle);
        if (it == open_handles.end()) {
          break;
        }
        append_run(it->second, r);
        it->second.access.close_time = r.time;
        it->second.access.size_at_close = r.file_size;
        accesses.push_back(std::move(it->second.access));
        open_handles.erase(it);
        break;
      }
      default:
        break;
    }
  }
  return accesses;
}

}  // namespace sprite
