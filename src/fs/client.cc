#include "src/fs/client.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace sprite {

Client::Client(ClientId id, const ClientConfig& config, ServerRouter router, TraceSink trace_sink,
               uint64_t* handle_counter)
    : id_(id),
      config_(config),
      router_(std::move(router)),
      trace_sink_(std::move(trace_sink)),
      handle_counter_(handle_counter),
      cache_([&] {
        CacheConfig c = config.cache;
        c.max_blocks = std::min(c.max_blocks, config.memory_bytes / kBlockSize);
        return c;
      }(), &cache_counters_),
      vm_(config.memory_bytes / kBlockSize, config.vm_preference_age,
          static_cast<int64_t>(config.vm_floor_fraction *
                               static_cast<double>(config.memory_bytes / kBlockSize))),
      total_pages_(config.memory_bytes / kBlockSize) {}

void Client::AttachObservability(Observability* obs) {
  obs_ = obs;
  cp_ = (obs != nullptr && obs->critical_path_enabled()) ? &obs->critical_path() : nullptr;
  miss_fill_counter_ = nullptr;
  write_fetch_counter_ = nullptr;
  cleaned_block_counter_ = nullptr;
  recall_counter_ = nullptr;
  stale_handle_counter_ = nullptr;
  dropped_dirty_counter_ = nullptr;
  reopen_storm_rec_ = nullptr;
  if (obs_ == nullptr) {
    return;
  }
  if (obs_->metrics_enabled()) {
    MetricsRegistry& m = obs_->metrics();
    miss_fill_counter_ = m.AddCounter("cache.miss_fills");
    write_fetch_counter_ = m.AddCounter("cache.write_fetches");
    cleaned_block_counter_ = m.AddCounter("cache.cleaned_blocks");
    recall_counter_ = m.AddCounter("consistency.recalls");
    stale_handle_counter_ = m.AddCounter("recovery.stale_handles");
    dropped_dirty_counter_ = m.AddCounter("recovery.dropped_dirty_bytes");
    reopen_storm_rec_ = m.AddLatency("recovery.reopen_storm_us");
    const std::string prefix = "client." + std::to_string(id_) + ".";
    m.AddGauge(prefix + "cache_bytes", [this] { return cache_size_bytes(); });
    m.AddGauge(prefix + "cache_limit_bytes", [this] { return cache_limit_bytes(); });
    m.AddGauge(prefix + "vm_resident_bytes", [this] { return vm_resident_bytes(); });
    m.AddGauge(prefix + "open_handles",
               [this] { return static_cast<int64_t>(handles_.size()); });
  }
  if (obs_->tracing_enabled()) {
    obs_->tracer().SetProcessName(ClientTrack(id_).pid, "client " + std::to_string(id_));
  }
}

Client::OpenFile& Client::HandleRef(HandleId handle) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    throw std::logic_error("Client: unknown file handle");
  }
  return it->second;
}

Client::OpenFile* Client::FindLiveHandle(HandleId handle) {
  if (stale_handles_.count(handle) != 0) {
    // Recovery invalidated the handle; dead to I/O until the workload layer
    // consumes the stale record and retries as a fresh open.
    return nullptr;
  }
  auto it = handles_.find(handle);
  if (it != handles_.end()) {
    return &it->second;
  }
  if (handle <= crash_watermark_) {
    return nullptr;  // the descriptor died with the machine
  }
  throw std::logic_error("Client: unknown file handle");
}

void Client::Emit(Record record) {
  if (trace_sink_) {
    record.client = id_;
    trace_sink_(record);
  }
}

auto Client::WritebackTo(SimTime now) {
  // Successive writebacks from one eviction/clean pass issue back-to-back
  // in event-driven mode (IssueAt threads the accumulated latency through);
  // in sync mode IssueAt ignores the offset and this is byte-identical to
  // issuing everything at `now`. Each call site hands the lambda straight
  // to the cache, so its offset spans exactly one pass.
  return [this, now, offset = SimDuration{0}](BlockKey key, int64_t bytes) mutable {
    offset += ServerFor(key.file).Writeback(key.file, key.index, bytes, /*paging=*/false,
                                            IssueAt(now, offset));
  };
}

void Client::EnsureCacheRoom(SimTime now) {
  if (cache_.block_count() < cache_.limit_blocks()) {
    return;
  }
  // The cache is at its current limit. It may grow only by taking a VM page
  // that has been unreferenced for the preference age, and only while the
  // combined population fits in physical memory.
  if (cache_.limit_blocks() + vm_.resident_pages() < total_pages_) {
    // Free physical pages exist (e.g. after VM evictions); grow freely.
    if (cache_.limit_blocks() < cache_.config().max_blocks) {
      cache_.GrantPageFromVm();
    }
    return;
  }
  if (cache_.limit_blocks() < cache_.config().max_blocks && vm_.TryYieldIdlePage(now)) {
    cache_.GrantPageFromVm();
  }
  // Otherwise InsertClean will evict the cache's own LRU block.
}

Client::OpenResult Client::Open(UserId user, FileId file, OpenMode mode,
                                OpenDisposition disposition, bool migrated, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kOpen, id_, now);
  ServerStub server = ServerFor(file);
  if (!server.FileExists(file, now)) {
    server.CreateFile(file, /*is_directory=*/false, now);
    Record create;
    create.kind = RecordKind::kCreate;
    create.time = now;
    create.user = user;
    create.server = server.id();
    create.file = file;
    create.migrated = migrated;
    Emit(create);
  } else if (disposition == OpenDisposition::kTruncate && server.FileSize(file, now) > 0) {
    // O_TRUNC of an existing non-empty file destroys its contents: counted
    // as a truncate event in the paper's traces. Remote dirty data for the
    // old contents is discarded by the server; local dirty data is
    // cancelled.
    Truncate(user, file, now);
  }

  const Server::OpenReply reply = server.Open(file, mode, /*is_directory=*/false, now);
  cache_.SyncVersion(file, reply.version, now);
  if (stale_tracker_ != nullptr) {
    stale_tracker_->ClearFile(id_, file);  // the open re-synced versions
  }

  OpenFile of;
  of.file = file;
  of.user = user;
  of.mode = mode;
  of.migrated = migrated;
  of.cacheable = reply.cacheable;
  of.size = server.FileSize(file, now);
  of.offset = disposition == OpenDisposition::kAppend ? of.size : 0;
  const HandleId handle = ++(*handle_counter_);
  handles_[handle] = of;

  Record r;
  r.kind = RecordKind::kOpen;
  r.time = now;
  r.user = user;
  r.server = server.id();
  r.file = file;
  r.handle = handle;
  r.mode = mode;
  r.migrated = migrated;
  r.offset_after = of.offset;
  r.file_size = of.size;
  Emit(r);

  return OpenResult{handle, op.Finish(reply.latency)};
}

SimDuration Client::UncacheableRead(OpenFile& of, int64_t bytes, SimTime now, HandleId handle) {
  traffic_counters_.file_read_shared += bytes;
  const SimDuration latency = ServerFor(of.file).PassThroughRead(of.file, bytes, now);
  Record r;
  r.kind = RecordKind::kSharedRead;
  r.time = now;
  r.user = of.user;
  r.server = ServerFor(of.file).id();
  r.file = of.file;
  r.handle = handle;
  r.migrated = of.migrated;
  r.offset_before = of.offset;
  r.io_bytes = bytes;
  Emit(r);
  return latency;
}

SimDuration Client::UncacheableWrite(OpenFile& of, int64_t bytes, SimTime now, HandleId handle) {
  traffic_counters_.file_write_shared += bytes;
  const SimDuration latency = ServerFor(of.file).PassThroughWrite(of.file, bytes, now);
  Record r;
  r.kind = RecordKind::kSharedWrite;
  r.time = now;
  r.user = of.user;
  r.server = ServerFor(of.file).id();
  r.file = of.file;
  r.handle = handle;
  r.migrated = of.migrated;
  r.offset_before = of.offset;
  r.io_bytes = bytes;
  Emit(r);
  return latency;
}

SimDuration Client::Read(HandleId handle, int64_t bytes, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kRead, id_, now);
  OpenFile* live = FindLiveHandle(handle);
  if (live == nullptr) {
    return 0;
  }
  OpenFile& of = *live;
  bytes = std::min(bytes, of.size - of.offset);
  if (bytes <= 0) {
    return 0;
  }
  SimDuration latency = 0;
  if (!of.cacheable) {
    latency = UncacheableRead(of, bytes, now, handle);
  } else {
    traffic_counters_.file_read_cacheable += bytes;
    cache_counters_.bytes_read_by_apps += bytes;
    if (of.migrated) {
      cache_counters_.migrated_bytes_read_by_apps += bytes;
    }
    // Large sequentially-read files may bypass the cache so they do not
    // evict the small-file working set (a paper-suggested extension; off by
    // default).
    const bool bypass = config_.large_file_bypass_bytes > 0 &&
                        of.size >= config_.large_file_bypass_bytes;
    if (bypass) {
      cache_counters_.bypass_read_bytes += bytes;
    }
    const int64_t first_block = of.offset / kBlockSize;
    const int64_t last_block = (of.offset + bytes - 1) / kBlockSize;
    bool missed = false;
    bool served_from_cache = false;
    for (int64_t b = first_block; b <= last_block; ++b) {
      ++cache_counters_.read_ops;
      if (of.migrated) {
        ++cache_counters_.migrated_read_ops;
      }
      const BlockKey key{of.file, b};
      if (cache_.Lookup(key, now)) {
        served_from_cache = true;
      } else {
        missed = true;
        ++cache_counters_.read_misses;
        cache_counters_.bytes_read_from_server += kBlockSize;
        if (of.migrated) {
          ++cache_counters_.migrated_read_misses;
          cache_counters_.migrated_bytes_read_from_server += kBlockSize;
        }
        const SimDuration fetch = ServerFor(of.file).FetchBlock(of.file, b, /*paging=*/false,
                                                                IssueAt(now, latency));
        latency += fetch;
        if (obs_ != nullptr) {
          if (miss_fill_counter_ != nullptr) {
            miss_fill_counter_->Add();
          }
          if (obs_->tracing_enabled()) {
            obs_->tracer().Emit("cache.miss-fill", "cache", ClientTrack(id_), now, fetch,
                                {{"file", static_cast<int64_t>(of.file)}, {"block", b}});
          }
        }
        if (!bypass) {
          EnsureCacheRoom(now);
          cache_.InsertClean(key, now, WritebackTo(now));
        }
      }
    }
    // A hit on a block the tracker flagged (a consistency callback was lost
    // to a partition) is a stale read: the paper's Table 11 risk, observed.
    if (served_from_cache && stale_tracker_ != nullptr) {
      stale_tracker_->NoteCachedRead(id_, of.file, now);
    }
    // Sequential readahead (paper-suggested extension; off by default):
    // after a miss, asynchronously fetch the next blocks. Latency is not
    // charged to this call (the fetches overlap with application compute),
    // but the server traffic is real.
    if (missed && !bypass && config_.readahead_blocks > 0) {
      const int64_t file_blocks = BlocksForBytes(of.size);
      for (int n = 1; n <= config_.readahead_blocks; ++n) {
        const int64_t b = last_block + n;
        if (b >= file_blocks) {
          break;
        }
        const BlockKey key{of.file, b};
        if (!cache_.Contains(key)) {
          ServerFor(of.file).FetchBlock(of.file, b, /*paging=*/false, IssueAt(now, latency));
          EnsureCacheRoom(now);
          cache_.InsertPrefetched(key, now, WritebackTo(now));
        }
      }
    }
  }
  of.offset += bytes;
  of.run_read += bytes;
  of.total_read += bytes;
  return op.Finish(latency);
}

SimDuration Client::Write(HandleId handle, int64_t bytes, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kWrite, id_, now);
  OpenFile* live = FindLiveHandle(handle);
  if (live == nullptr) {
    return 0;
  }
  OpenFile& of = *live;
  if (bytes <= 0) {
    return 0;
  }
  SimDuration latency = 0;
  if (!of.cacheable) {
    latency = UncacheableWrite(of, bytes, now, handle);
  } else {
    traffic_counters_.file_write_cacheable += bytes;
    cache_counters_.bytes_written_by_apps += bytes;
    const int64_t begin = of.offset;
    const int64_t end = of.offset + bytes;
    const int64_t first_block = begin / kBlockSize;
    const int64_t last_block = (end - 1) / kBlockSize;
    for (int64_t b = first_block; b <= last_block; ++b) {
      ++cache_counters_.write_ops;
      const BlockKey key{of.file, b};
      const int64_t block_start = b * kBlockSize;
      const int64_t write_begin = std::max(begin, block_start);
      const int64_t write_end = std::min(end, block_start + kBlockSize);
      const bool partial = (write_begin != block_start) || (write_end != block_start + kBlockSize);
      // A partial write of a non-resident block of existing file content
      // requires fetching the block first (a "write fetch").
      if (partial && !cache_.Contains(key) && block_start < of.size) {
        ++cache_counters_.write_fetches;
        cache_counters_.write_fetch_bytes += kBlockSize;
        const SimDuration fetch = ServerFor(of.file).FetchBlock(of.file, b, /*paging=*/false,
                                                                IssueAt(now, latency));
        latency += fetch;
        if (obs_ != nullptr) {
          if (write_fetch_counter_ != nullptr) {
            write_fetch_counter_->Add();
          }
          if (obs_->tracing_enabled()) {
            obs_->tracer().Emit("cache.write-fetch", "cache", ClientTrack(id_), now, fetch,
                                {{"file", static_cast<int64_t>(of.file)}, {"block", b}});
          }
        }
        EnsureCacheRoom(now);
        cache_.InsertClean(key, now, WritebackTo(now));
      }
      EnsureCacheRoom(now);
      cache_.Write(key, now, write_end - block_start, WritebackTo(now));
    }
  }
  of.offset += bytes;
  of.run_write += bytes;
  of.total_write += bytes;
  of.size = std::max(of.size, of.offset);
  return op.Finish(latency);
}

void Client::Seek(HandleId handle, int64_t new_offset, SimTime now) {
  OpenFile* live = FindLiveHandle(handle);
  if (live == nullptr) {
    return;
  }
  OpenFile& of = *live;
  Record r;
  r.kind = RecordKind::kSeek;
  r.time = now;
  r.user = of.user;
  r.server = ServerFor(of.file).id();
  r.file = of.file;
  r.handle = handle;
  r.mode = of.mode;
  r.migrated = of.migrated;
  r.offset_before = of.offset;
  r.offset_after = new_offset;
  r.file_size = of.size;
  r.run_read_bytes = of.run_read;
  r.run_write_bytes = of.run_write;
  Emit(r);
  of.offset = new_offset;
  of.run_read = 0;
  of.run_write = 0;
}

SimDuration Client::Fsync(HandleId handle, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kFsync, id_, now);
  OpenFile* live = FindLiveHandle(handle);
  if (live == nullptr) {
    return 0;
  }
  OpenFile& of = *live;
  cache_.CleanFile(of.file, now, CleanReason::kFsync, WritebackTo(now));
  Record r;
  r.kind = RecordKind::kFsync;
  r.time = now;
  r.user = of.user;
  r.server = ServerFor(of.file).id();
  r.file = of.file;
  r.handle = handle;
  r.migrated = of.migrated;
  Emit(r);
  return 0;
}

SimDuration Client::Close(HandleId handle, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kClose, id_, now);
  OpenFile* live = FindLiveHandle(handle);
  if (live == nullptr) {
    return 0;
  }
  OpenFile& of = *live;
  Record r;
  r.kind = RecordKind::kClose;
  r.time = now;
  r.user = of.user;
  r.server = ServerFor(of.file).id();
  r.file = of.file;
  r.handle = handle;
  r.mode = of.mode;
  r.migrated = of.migrated;
  r.offset_before = of.offset;
  r.file_size = of.size;
  r.run_read_bytes = of.run_read;
  r.run_write_bytes = of.run_write;
  Emit(r);

  const Server::CloseReply close_reply = ServerFor(of.file).Close(
      of.file, of.mode, /*wrote=*/of.total_write > 0, of.size, now);
  if (of.total_write > 0) {
    // This client produced the new version; its cached blocks ARE that
    // version, so adopt it instead of invalidating at the next open.
    cache_.AdoptVersion(of.file, close_reply.version);
  }
  handles_.erase(handle);
  return op.Finish(close_reply.latency);
}

void Client::Create(UserId user, FileId file, bool is_directory, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kNameOp, id_, now);
  ServerStub server = ServerFor(file);
  server.CreateFile(file, is_directory, now);
  Record r;
  r.kind = RecordKind::kCreate;
  r.time = now;
  r.user = user;
  r.server = server.id();
  r.file = file;
  r.is_directory = is_directory;
  Emit(r);
}

SimDuration Client::Delete(UserId user, FileId file, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kNameOp, id_, now);
  ServerStub server = ServerFor(file);
  // Locally cached dirty data for a deleted file never needs to reach the
  // server — the saving the 30-second delay is designed to capture.
  cache_.InvalidateFile(file, now);
  if (stale_tracker_ != nullptr) {
    stale_tracker_->ClearFile(id_, file);
  }
  const ServerStub::NameReply reply = server.DeleteFile(file, now);
  Record r;
  r.kind = RecordKind::kDelete;
  r.time = now;
  r.user = user;
  r.server = server.id();
  r.file = file;
  r.file_size = reply.size;
  Emit(r);
  return op.Finish(reply.latency);
}

SimDuration Client::Truncate(UserId user, FileId file, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kNameOp, id_, now);
  ServerStub server = ServerFor(file);
  cache_.InvalidateFile(file, now);
  if (stale_tracker_ != nullptr) {
    stale_tracker_->ClearFile(id_, file);
  }
  const ServerStub::NameReply reply = server.TruncateFile(file, now);
  Record r;
  r.kind = RecordKind::kTruncate;
  r.time = now;
  r.user = user;
  r.server = server.id();
  r.file = file;
  r.file_size = reply.size;
  Emit(r);
  return op.Finish(reply.latency);
}

SimDuration Client::ReadDirectory(UserId user, FileId dir, int64_t bytes, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kDirRead, id_, now);
  ServerStub server = ServerFor(dir);
  if (!server.FileExists(dir, now)) {
    server.CreateFile(dir, /*is_directory=*/true, now);
  }
  const Server::OpenReply reply = server.Open(dir, OpenMode::kRead, /*is_directory=*/true, now);
  const HandleId handle = ++(*handle_counter_);

  Record open_record;
  open_record.kind = RecordKind::kOpen;
  open_record.time = now;
  open_record.user = user;
  open_record.server = server.id();
  open_record.file = dir;
  open_record.handle = handle;
  open_record.is_directory = true;
  Emit(open_record);

  traffic_counters_.dir_read += bytes;
  SimDuration latency = reply.latency;
  latency += server.ReadDirectory(dir, bytes, IssueAt(now, latency));

  Record read_record;
  read_record.kind = RecordKind::kDirRead;
  read_record.time = now;
  read_record.user = user;
  read_record.server = server.id();
  read_record.file = dir;
  read_record.handle = handle;
  read_record.is_directory = true;
  read_record.io_bytes = bytes;
  Emit(read_record);

  latency += server.Close(dir, OpenMode::kRead, /*wrote=*/false, bytes, IssueAt(now, latency))
                 .latency;
  Record close_record;
  close_record.kind = RecordKind::kClose;
  close_record.time = now;
  close_record.user = user;
  close_record.server = server.id();
  close_record.file = dir;
  close_record.handle = handle;
  close_record.is_directory = true;
  Emit(close_record);
  return op.Finish(latency);
}

void Client::NoteMigrationArrival(UserId user, ClientId from, SimTime now) {
  Record r;
  r.kind = RecordKind::kMigrate;
  r.time = now;
  r.user = user;
  r.migrated = true;
  r.peer_client = id_;
  // `client` is stamped with this (destination) client by Emit; record the
  // origin in peer_client's counterpart field.
  r.client = from;
  if (trace_sink_) {
    trace_sink_(r);  // bypass Emit's client overwrite to keep `from`
  }
}

SimDuration Client::PageFault(PageKind kind, FileId backing_file, int64_t page_index,
                              SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kPaging, id_, now);
  SimDuration latency = 0;
  const bool consults_cache = kind == PageKind::kCode || kind == PageKind::kInitData;
  if (consults_cache) {
    traffic_counters_.paging_read_cacheable += kBlockSize;
  } else {
    traffic_counters_.paging_read_backing += kBlockSize;
  }

  // Acquire a physical page. The machine-wide policy is approximately
  // global LRU: the least recently used page anywhere is recycled —
  // usually one of VM's own cold pages, but the file cache's LRU block when
  // that is older (this is how VM exercises its preference over the cache).
  if (vm_.resident_pages() + cache_.block_count() >= total_pages_) {
    const SimDuration vm_age = vm_.EvictableLruAge(now);
    const SimDuration cache_age = cache_.LruAge(now);
    const bool take_from_cache = cache_age >= 0 && cache_age > vm_age;
    bool got_page = false;
    if (take_from_cache) {
      got_page = cache_.ReleaseLruToVm(now, WritebackTo(now));
    }
    if (!got_page) {
      const Vm::Evicted evicted = vm_.EvictLru();
      if (evicted.valid) {
        if (evicted.kind == PageKind::kModifiedData || evicted.kind == PageKind::kStack) {
          traffic_counters_.paging_write_backing += kBlockSize;
          latency += ServerFor(backing_file)
                         .Writeback(backing_file, page_index, kBlockSize, /*paging=*/true, now);
        }
      } else {
        // VM is at its floor: the cache must give up the page after all.
        cache_.ReleaseLruToVm(now, WritebackTo(now));
      }
    }
  }

  if (consults_cache) {
    ++cache_counters_.paging_read_ops;
    const BlockKey key{backing_file, page_index};
    if (cache_.Lookup(key, now)) {
      if (kind == PageKind::kCode) {
        // Contents copied to VM; the cache block is marked for replacement.
        cache_.DemoteToLruTail(key);
      }
    } else {
      ++cache_counters_.paging_read_misses;
      latency += ServerFor(backing_file)
                     .FetchBlock(backing_file, page_index, /*paging=*/true, IssueAt(now, latency));
      if (kind == PageKind::kInitData) {
        // Initialized data pages ARE cached in the file system: the fetch
        // goes through the file cache and the VM copy is made from there,
        // so re-running the program later hits in the cache.
        EnsureCacheRoom(now);
        cache_.InsertClean(key, now, WritebackTo(now));
      }
      // Code pages are not intentionally cached (the VM system keeps them).
    }
  } else {
    // Backing files are never present in client file caches.
    latency += ServerFor(backing_file)
                   .FetchBlock(backing_file, page_index, /*paging=*/true, IssueAt(now, latency));
  }

  vm_.AddPage(kind, now);
  return op.Finish(latency);
}

SimDuration Client::EvictVmPages(int64_t pages, FileId backing_file, SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kPaging, id_, now);
  const int64_t dirty = vm_.EvictColdPages(pages);
  SimDuration latency = 0;
  for (int64_t i = 0; i < dirty; ++i) {
    traffic_counters_.paging_write_backing += kBlockSize;
    latency += ServerFor(backing_file).Writeback(backing_file, i, kBlockSize, /*paging=*/true,
                                                 IssueAt(now, latency));
  }
  return op.Finish(latency);
}

int64_t Client::Crash(SimTime now) {
  ++cache_counters_.crashes;
  // NVRAM preserves dirty cache contents across the crash; recovery pushes
  // them to the server before normal operation resumes.
  SimDuration offset = 0;
  const auto recover = [&](BlockKey key, int64_t bytes) {
    cache_counters_.bytes_recovered_from_nvram += bytes;
    cache_counters_.bytes_written_to_server += bytes;
    offset += ServerFor(key.file).Writeback(key.file, key.index, bytes, /*paging=*/false,
                                            IssueAt(now, offset));
  };
  const auto [lost, recovered] =
      cache_.CrashReset(config_.nvram ? BlockCache::WritebackFn(recover) : nullptr);
  (void)recovered;
  cache_counters_.bytes_lost_in_crashes += lost;
  vm_.CrashReset();
  handles_.clear();
  stale_handles_.clear();  // the owning processes died with the machine
  crash_watermark_ = *handle_counter_;
  // Every server forgets this client's open state. Route through the
  // router by probing distinct servers via file ids 0..N-1 is wrong; the
  // cluster wires this up instead (see Cluster::CrashClient).
  return lost;
}

SimDuration Client::ReplayOpens(ServerId server, SimTime now) {
  // The storm runs nested inside whichever op's RPC detected the restart;
  // its own frame keeps the reopen RPCs out of that op's phase rows.
  CriticalPathCollector::OpScope op(cp_, OpKind::kRecovery, id_, now);
  // Handles homed on the rebooted server, in handle order (handles_ is
  // unordered; the storm must be deterministic).
  std::vector<HandleId> to_reopen;
  for (const auto& [handle, of] : handles_) {
    if (stale_handles_.count(handle) == 0 && ServerFor(of.file).id() == server) {
      to_reopen.push_back(handle);
    }
  }
  std::sort(to_reopen.begin(), to_reopen.end());

  SimDuration storm = 0;
  int64_t reopens = 0;
  int64_t stale = 0;
  int64_t dropped_bytes = 0;
  std::set<FileId> files_replayed;
  for (HandleId handle : to_reopen) {
    OpenFile& of = handles_.find(handle)->second;
    const FileId file = of.file;
    const Server::ReopenReply reply = ServerFor(file).Reopen(
        file, of.mode, cache_.CachedVersion(file),
        /*has_dirty=*/cache_.DirtyBytes(file) > 0, /*has_handle=*/true, now + storm);
    storm += reply.latency;
    ++reopens;
    files_replayed.insert(file);
    if (reply.status == Status::kOk) {
      of.cacheable = reply.cacheable;
      cache_.SyncVersion(file, reply.version, now + storm);
    } else {
      // The handle is dead: drop its dirty blocks (without polluting the
      // cancelled-before-writeback accounting) and surface the failure to
      // the workload layer. The handles_ entry stays until TakeStaleHandle
      // so references held by an in-flight operation remain valid.
      dropped_bytes += cache_.DropFile(file, now + storm);
      stale_handles_[handle] = StaleHandleInfo{file, of.user, of.mode, of.migrated};
      ++stale;
      if (stale_handle_counter_ != nullptr) {
        stale_handle_counter_->Add();
      }
    }
    if (stale_tracker_ != nullptr) {
      stale_tracker_->ClearFile(id_, file);  // reopen re-synced (or dropped)
    }
  }

  // Closed files whose dirty blocks still await delayed writeback must also
  // re-register, or the rebooted server would not know this client holds
  // the newest data.
  for (FileId file : cache_.DirtyFiles()) {
    if (ServerFor(file).id() != server || files_replayed.count(file) != 0) {
      continue;
    }
    const Server::ReopenReply reply =
        ServerFor(file).Reopen(file, OpenMode::kWrite, cache_.CachedVersion(file),
                               /*has_dirty=*/true, /*has_handle=*/false, now + storm);
    storm += reply.latency;
    ++reopens;
    if (reply.status == Status::kOk) {
      cache_.SyncVersion(file, reply.version, now + storm);
    } else {
      dropped_bytes += cache_.DropFile(file, now + storm);
      ++stale;
    }
    if (stale_tracker_ != nullptr) {
      stale_tracker_->ClearFile(id_, file);
    }
  }

  if (dropped_bytes > 0 && dropped_dirty_counter_ != nullptr) {
    dropped_dirty_counter_->Add(dropped_bytes);
  }
  if (reopens > 0) {
    if (reopen_storm_rec_ != nullptr) {
      reopen_storm_rec_->Record(storm);
    }
    if (obs_ != nullptr && obs_->tracing_enabled()) {
      obs_->tracer().Emit("recovery.reopen-storm", "recovery", ClientTrack(id_), now, storm,
                          {{"server", static_cast<int64_t>(server)},
                           {"reopens", reopens},
                           {"stale", stale},
                           {"dropped_bytes", dropped_bytes}});
    }
  }
  return op.Finish(storm);
}

std::optional<StaleHandleInfo> Client::TakeStaleHandle(HandleId handle) {
  auto it = stale_handles_.find(handle);
  if (it == stale_handles_.end()) {
    return std::nullopt;
  }
  const StaleHandleInfo info = it->second;
  stale_handles_.erase(it);
  handles_.erase(handle);
  return info;
}

void Client::CleanerTick(SimTime now) {
  CriticalPathCollector::OpScope op(cp_, OpKind::kCleaner, id_, now);
  // The daemon wakes every 5 seconds and writes back blocks dirty >= 30 s.
  // Group writebacks per file through the router.
  SimDuration write_time = 0;
  int64_t blocks = 0;
  int64_t bytes_cleaned = 0;
  cache_.CleanAged(now, [&](BlockKey key, int64_t bytes) {
    write_time += ServerFor(key.file).Writeback(key.file, key.index, bytes, /*paging=*/false,
                                                IssueAt(now, write_time));
    ++blocks;
    bytes_cleaned += bytes;
  });
  if (obs_ != nullptr && blocks > 0) {
    if (cleaned_block_counter_ != nullptr) {
      cleaned_block_counter_->Add(blocks);
    }
    if (obs_->tracing_enabled()) {
      obs_->tracer().Emit("cache.clean-aged", "cache", ClientTrack(id_), now, write_time,
                          {{"blocks", blocks}, {"bytes", bytes_cleaned}});
    }
  }
  op.Finish(write_time);
}

void Client::RecallDirtyData(FileId file, SimTime now) {
  SimDuration write_time = 0;
  int64_t blocks = 0;
  cache_.CleanFile(file, now, CleanReason::kRecall,
                   [&](BlockKey key, int64_t bytes) {
                     write_time += ServerFor(key.file).Writeback(key.file, key.index, bytes,
                                                                 /*paging=*/false,
                                                                 IssueAt(now, write_time));
                     ++blocks;
                   });
  if (obs_ != nullptr) {
    if (recall_counter_ != nullptr) {
      recall_counter_->Add();
    }
    if (obs_->tracing_enabled()) {
      obs_->tracer().Emit("consistency.recall-dirty", "consistency", ClientTrack(id_), now,
                          write_time, {{"file", static_cast<int64_t>(file)}, {"blocks", blocks}});
    }
  }
}

void Client::DisableCaching(FileId file, SimTime now) {
  RecallDirtyData(file, now);
  cache_.InvalidateFile(file, now);
  if (stale_tracker_ != nullptr) {
    stale_tracker_->ClearFile(id_, file);
  }
  for (auto& [handle, of] : handles_) {
    (void)handle;
    if (of.file == file) {
      of.cacheable = false;
    }
  }
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("consistency.cache-disable", "consistency", ClientTrack(id_), now, 0,
                        {{"file", static_cast<int64_t>(file)}});
  }
}

void Client::DiscardFile(FileId file, SimTime now) {
  cache_.InvalidateFile(file, now);
  if (stale_tracker_ != nullptr) {
    stale_tracker_->ClearFile(id_, file);
  }
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("consistency.discard", "consistency", ClientTrack(id_), now, 0,
                        {{"file", static_cast<int64_t>(file)}});
  }
}

}  // namespace sprite
