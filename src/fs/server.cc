#include "src/fs/server.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sprite {

namespace {

using OpenCount = Server::OpenCount;

// The sorted-by-client helpers shared by every open list: the open table,
// the standby's shadow, and a migration image.
template <typename Opens>
auto FindClient(Opens& opens, ClientId client) {
  return std::lower_bound(opens.begin(), opens.end(), client,
                          [](const OpenCount& e, ClientId c) { return e.client < c; });
}

// Find-or-insert `client`'s entry.
OpenCount& CountFor(std::vector<OpenCount>& opens, ClientId client) {
  auto it = FindClient(opens, client);
  if (it == opens.end() || it->client != client) {
    it = opens.insert(it, OpenCount{client, 0, 0});
  }
  return *it;
}

void AddOpen(std::vector<OpenCount>& opens, ClientId client, OpenMode mode) {
  OpenCount& open = CountFor(opens, client);
  ++(mode != OpenMode::kRead ? open.writers : open.readers);
}

// Removes one open of `mode`; the entry goes once both counts reach zero.
void RemoveOpen(std::vector<OpenCount>& opens, ClientId client, OpenMode mode) {
  auto it = FindClient(opens, client);
  if (it == opens.end() || it->client != client) {
    return;
  }
  int& counter = mode != OpenMode::kRead ? it->writers : it->readers;
  if (counter > 0) {
    --counter;
  }
  if (it->readers == 0 && it->writers == 0) {
    opens.erase(it);
  }
}

void DropClient(std::vector<OpenCount>& opens, ClientId client) {
  auto it = FindClient(opens, client);
  if (it != opens.end() && it->client == client) {
    opens.erase(it);
  }
}

// Concurrent write-sharing: open on more than one client with at least one
// writer. Every caller reads it at most once per mutation, so it is
// recomputed rather than cached.
bool IsWriteShared(const std::vector<OpenCount>& opens) {
  return opens.size() >= 2 && std::any_of(opens.begin(), opens.end(),
                                          [](const OpenCount& o) { return o.writers > 0; });
}

}  // namespace

Server::Server(ServerId id, const ServerConfig& config, const DiskConfig& disk_config)
    : id_(id),
      disk_(disk_config),
      cache_([&] {
        CacheConfig c = config.cache;
        c.max_blocks = config.memory_bytes / kBlockSize;
        // Server caches "automatically adjust themselves to fill nearly all
        // of memory"; start them at capacity.
        c.min_blocks = c.max_blocks;
        return c;
      }(), &cache_counters_) {
  cache_.set_limit_blocks(config.memory_bytes / kBlockSize);
  if (config.disk_layout == DiskLayout::kLogStructured) {
    SegmentLogConfig log_config;
    log_config.device = disk_config;
    segment_log_ = std::make_unique<SegmentLog>(log_config);
  }
}

void Server::AttachObservability(Observability* obs) {
  obs_ = obs;
  disk_latency_rec_ = nullptr;
  queue_wait_rec_ = nullptr;
  if (obs_ == nullptr) {
    return;
  }
  if (obs_->metrics_enabled()) {
    MetricsRegistry& m = obs_->metrics();
    const std::string prefix = "server." + std::to_string(id_) + ".";
    disk_latency_rec_ = m.AddLatency(prefix + "disk_us");
    m.AddGauge(prefix + "epoch", [this] { return static_cast<int64_t>(epoch_); });
    m.AddGauge(prefix + "cache_bytes", [this] { return cache_size_bytes(); });
    m.AddGauge(prefix + "bytes_homed", [this] { return HomedBytes(); });
    m.AddGauge(prefix + "disk_reads", [this] { return disk_.reads(); });
    m.AddGauge(prefix + "disk_writes", [this] { return disk_.writes(); });
    m.AddGauge(prefix + "disk_busy_us", [this] { return disk_.busy_time(); });
    // Service-queue instruments exist only in async transport mode, so
    // sync-mode metrics snapshots are byte-identical to pre-queue output.
    if (service_queue_enabled()) {
      queue_wait_rec_ = m.AddLatency(prefix + "queue_us");
      m.AddGauge(prefix + "queue_depth", [this] { return QueueDepth(); });
    }
  }
  if (obs_->tracing_enabled()) {
    obs_->tracer().SetProcessName(ServerTrack(id_).pid, "server " + std::to_string(id_));
  }
}

void Server::EnableServiceQueue(const RpcConfig& rpc, const EventQueue& clock) {
  clock_ = &clock;
  control_service_time_ = rpc.control_service_time;
  data_service_time_ = rpc.data_service_time;
  max_queue_depth_ = rpc.max_queue_depth > 0 ? static_cast<size_t>(rpc.max_queue_depth) : 1;
}

Server::Admission Server::AdmitRequest(RpcKind kind, SimTime arrival, bool priority) {
  if (!service_queue_enabled()) {
    throw std::logic_error("Server::AdmitRequest: service queue not enabled");
  }
  Admission adm;
  adm.arrival = arrival;
  // The kind's lane sets its service time; lane-less kinds never hold it.
  const RpcLane lane = RpcKindInfoOf(kind).lane;
  adm.service = lane == RpcLane::kData      ? data_service_time_
                : lane == RpcLane::kControl ? control_service_time_
                                            : 0;
  if (priority) {
    // Grace-window reopen: served immediately (recovery traffic preempts
    // the normal queue) but the lane stays occupied afterwards, so normal
    // traffic resumes behind the storm.
    adm.start = arrival;
    busy_until_ = std::max(busy_until_, adm.completion());
  } else {
    // Slots freed by completions up to the arrival instant.
    SimTime admitted_at = arrival;
    while (!inflight_.empty() && inflight_.front() <= admitted_at) {
      inflight_.pop_front();
    }
    if (inflight_.size() >= max_queue_depth_) {
      // Queue full: the request waits at the client until the completion
      // that frees its slot. FIFO service means this never delays the start
      // time (that completion precedes busy_until_); it only bounds
      // residency.
      admitted_at = inflight_[inflight_.size() - max_queue_depth_];
      while (!inflight_.empty() && inflight_.front() <= admitted_at) {
        inflight_.pop_front();
      }
    }
    adm.start = std::max(admitted_at, busy_until_);
    busy_until_ = adm.completion();
    inflight_.push_back(busy_until_);
    if (queue_wait_rec_ != nullptr) {
      // Zeros included: an idle server records 0 so a single serial client's
      // p50/p99 are exactly zero rather than merely unsampled.
      queue_wait_rec_->Record(adm.queue_wait());
    }
  }
  // Drop the visits that ended before now, scanning only when the oldest
  // has: one scan per admitting instant, however many visits a long read
  // or writeback burst leaves pending.
  const SimTime now = clock_->now();
  if (!visits_.empty() && visits_.front().completion < now) {
    std::erase_if(visits_, [now](const Visit& v) { return v.completion < now; });
  }
  // Callers may issue behind the clock (bare harnesses); such a visit
  // starts at the clock's time.
  visits_.push_back(
      Visit{std::max(adm.arrival, now), std::max(adm.completion(), now), clock_->schedule_count()});
  return adm;
}

int64_t Server::QueueDepth() const {
  // A completion passes no earlier than its arrival, so a passed completion
  // implies a passed arrival.
  return std::count_if(visits_.begin(), visits_.end(), [this](const Visit& v) {
    return clock_->Passed(v.arrival, v.stamp) && !clock_->Passed(v.completion, v.stamp);
  });
}

SimDuration Server::FlushToDisk(BlockKey key, int64_t bytes) {
  const SimDuration t =
      segment_log_ != nullptr ? segment_log_->Write(key, bytes) : disk_.Write(bytes);
  if (disk_latency_rec_ != nullptr) {
    disk_latency_rec_->Record(t);
  }
  if (shadow_flush_hook_) {
    // The block is durable now; the standby can drop its shadow extent.
    shadow_flush_hook_(key.file, key.index);
  }
  return t;
}

SimDuration Server::DiskRead(BlockKey key, int64_t bytes) {
  const SimDuration t =
      segment_log_ != nullptr ? segment_log_->Read(key, bytes) : disk_.Read(bytes);
  if (disk_latency_rec_ != nullptr) {
    disk_latency_rec_->Record(t);
  }
  return t;
}

void Server::RegisterClient(ClientId client, CacheControl* control) {
  if (clients_.size() <= client) {
    clients_.resize(client + 1, nullptr);
  }
  clients_[client] = control;
}

CacheControl* Server::ControlFor(ClientId client) const {
  return client < clients_.size() ? clients_[client] : nullptr;
}

Server::FileMeta& Server::EnsureFile(FileId file) {
  auto [it, inserted] = files_.try_emplace(file);
  if (inserted) {
    it->second = FileMeta{};
  }
  return it->second;
}

void Server::CreateFile(FileId file, bool is_directory, SimTime now) {
  (void)now;
  FileMeta& meta = EnsureFile(file);
  meta.exists = true;
  meta.is_directory = is_directory;
  meta.size = 0;
  ++meta.version;
  meta.last_writer.reset();
}

void Server::DiscardRemoteDirtyData(FileId file, FileMeta& meta, ClientId caller, SimTime now) {
  if (meta.last_writer.has_value() && *meta.last_writer != caller) {
    if (CacheControl* control = ControlFor(*meta.last_writer)) {
      control->DiscardFile(file, now);
    }
  }
  meta.last_writer.reset();
}

int64_t Server::DeleteFile(FileId file, ClientId caller, SimTime now) {
  auto it = files_.find(file);
  if (it == files_.end() || !it->second.exists) {
    return 0;
  }
  FileMeta& meta = it->second;
  DiscardRemoteDirtyData(file, meta, caller, now);
  if (segment_log_ != nullptr) {
    segment_log_->DeleteFile(file);
  }
  const int64_t size = meta.size;
  meta.exists = false;
  meta.size = 0;
  ++meta.version;
  return size;
}

int64_t Server::TruncateFile(FileId file, ClientId caller, SimTime now) {
  auto it = files_.find(file);
  if (it == files_.end() || !it->second.exists) {
    return 0;
  }
  FileMeta& meta = it->second;
  DiscardRemoteDirtyData(file, meta, caller, now);
  if (segment_log_ != nullptr) {
    segment_log_->DeleteFile(file);
  }
  const int64_t size = meta.size;
  meta.size = 0;
  ++meta.version;
  return size;
}

bool Server::FileExists(FileId file) const {
  auto it = files_.find(file);
  return it != files_.end() && it->second.exists;
}

int64_t Server::FileSize(FileId file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.size;
}

void Server::SetFileSize(FileId file, int64_t size) { EnsureFile(file).size = size; }

int64_t Server::HomedBytes() const {
  int64_t total = 0;
  for (const auto& [file, meta] : files_) {
    (void)file;
    if (meta.exists) {
      total += meta.size;
    }
  }
  return total;
}

void Server::EnforceSharing(FileId file, OpenState& state, bool count, SimTime now,
                            OpenReply* reply) {
  if (!IsWriteShared(state.opens)) {
    return;
  }
  if (count) {
    ++counters_.write_sharing_opens;
  }
  if (reply != nullptr) {
    reply->caused_write_sharing = true;
  }
  if (state.cacheable) {
    state.cacheable = false;
    for (const OpenCount& open : state.opens) {
      if (CacheControl* control = ControlFor(open.client)) {
        control->DisableCaching(file, now);
      }
    }
  }
}

Server::OpenReply Server::Open(ClientId client, FileId file, OpenMode mode, bool is_directory,
                               SimTime now) {
  OpenReply reply;

  FileMeta& meta = EnsureFile(file);
  if (!meta.exists) {
    meta.exists = true;  // open-creates for simplicity of the workload layer
  }
  meta.is_directory = is_directory;
  if (is_directory) {
    // Directories are not client-cacheable in Sprite and take no part in the
    // consistency machinery.
    reply.version = meta.version;
    reply.cacheable = false;
    return reply;
  }
  ++counters_.file_opens;

  OpenState& state = open_states_[file];

  // Recall: if another client may hold newer (dirty) data, retrieve it so
  // this open sees the most recent version. Like the real Sprite server we
  // do not know whether the client has finished its delayed writeback, so
  // this is an upper bound on recalls (the paper says the same).
  if (meta.last_writer.has_value() && *meta.last_writer != client) {
    CacheControl* writer = ControlFor(*meta.last_writer);
    if (writer != nullptr) {
      writer->RecallDirtyData(file, now);
    }
    ++counters_.recall_opens;
    reply.caused_recall = true;
    meta.last_writer.reset();
  }

  AddOpen(state.opens, client, mode);
  EnforceSharing(file, state, /*count=*/true, now, &reply);

  reply.version = meta.version;
  reply.cacheable = state.cacheable;
  return reply;
}

Server::CloseReply Server::Close(ClientId client, FileId file, OpenMode mode, bool wrote,
                                 int64_t final_size, SimTime now) {
  (void)now;
  CloseReply reply;

  FileMeta& meta = EnsureFile(file);
  reply.version = meta.version;
  if (meta.is_directory) {
    return reply;
  }
  if (wrote) {
    ++meta.version;
    meta.last_writer = client;
    meta.size = final_size;
  }
  reply.version = meta.version;

  auto state_it = open_states_.find(file);
  if (state_it == open_states_.end()) {
    return reply;
  }
  OpenState& state = state_it->second;
  RemoveOpen(state.opens, client, mode);
  if (state.opens.empty()) {
    open_states_.erase(state_it);
  }
  return reply;
}

SimDuration Server::TouchServerCache(FileId file, int64_t block, bool write, int64_t bytes,
                                     SimTime now) {
  const BlockKey key{file, block};
  SimDuration disk_time = 0;
  // A dirty replacement victim goes to disk, so a full cache never drops
  // dirty bytes silently.
  if (write) {
    cache_.Write(key, now, std::min<int64_t>(bytes, kBlockSize), ToDisk());
  } else if (!cache_.Lookup(key, now)) {
    disk_time = DiskRead(key, kBlockSize);
    cache_.InsertClean(key, now, ToDisk());
  }
  return disk_time;
}

SimDuration Server::FetchBlock(FileId file, int64_t block, bool paging, SimTime now) {
  if (paging) {
    counters_.paging_read_bytes += kBlockSize;
  } else {
    counters_.file_read_bytes += kBlockSize;
  }
  const SimDuration disk_time = TouchServerCache(file, block, /*write=*/false, kBlockSize, now);
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("server.fetch-block", "server", ServerTrack(id_), now, disk_time,
                        {{"file", static_cast<int64_t>(file)},
                         {"block", block},
                         {"paging", paging ? 1 : 0}});
  }
  return disk_time;
}

SimDuration Server::Writeback(FileId file, int64_t block, int64_t bytes, bool paging,
                              SimTime now) {
  if (paging) {
    counters_.paging_write_bytes += bytes;
  } else {
    counters_.file_write_bytes += bytes;
  }
  TouchServerCache(file, block, /*write=*/true, bytes, now);
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("server.writeback", "server", ServerTrack(id_), now, 0,
                        {{"file", static_cast<int64_t>(file)},
                         {"block", block},
                         {"bytes", bytes},
                         {"paging", paging ? 1 : 0}});
  }
  FileMeta& meta = EnsureFile(file);
  const int64_t end = block * kBlockSize + bytes;
  if (end > meta.size) {
    meta.size = end;
  }
  return 0;
}

SimDuration Server::PassThroughRead(FileId file, int64_t bytes, SimTime now) {
  counters_.shared_read_bytes += bytes;
  return TouchServerCache(file, 0, /*write=*/false, bytes, now);
}

SimDuration Server::PassThroughWrite(FileId file, int64_t bytes, SimTime now) {
  counters_.shared_write_bytes += bytes;
  TouchServerCache(file, 0, /*write=*/true, bytes, now);
  FileMeta& meta = EnsureFile(file);
  ++meta.version;
  return 0;
}

SimDuration Server::ReadDirectory(FileId dir, int64_t bytes, SimTime now) {
  (void)dir;
  (void)now;
  counters_.dir_read_bytes += bytes;
  return 0;
}

void Server::ClientCrashed(ClientId client, SimTime now) {
  (void)now;
  for (auto& [file, meta] : files_) {
    (void)file;
    if (meta.last_writer == client) {
      meta.last_writer.reset();
    }
  }
  // Standby role: the crashed client's mirrored opens vanish exactly as its
  // real opens vanish on the primary (which drops them via its own
  // ClientCrashed — no shadow-close RPC will ever arrive for them). Dirty
  // extents stay: the writebacks carrying them did complete on the primary.
  for (auto it = shadow_.begin(); it != shadow_.end();) {
    ShadowFile& sf = it->second;
    DropClient(sf.opens, client);
    if (sf.last_writer == client) {
      sf.last_writer.reset();
    }
    it = sf.empty() ? shadow_.erase(it) : std::next(it);
  }
  for (auto it = open_states_.begin(); it != open_states_.end();) {
    OpenState& state = it->second;
    DropClient(state.opens, client);
    it = state.opens.empty() ? open_states_.erase(it) : std::next(it);
  }
}

int64_t Server::Crash(SimTime now) {
  // Volatile state: the open-state table, the block cache (dirty blocks not
  // yet flushed by the cleaner are lost), the last-writer bookkeeping, and
  // any standby shadow this server held for other homes (a rebooted standby
  // resyncs from the live primary). files_ metadata is disk state and
  // survives the reboot.
  open_states_.clear();
  shadow_.clear();
  for (auto& [file, meta] : files_) {
    (void)file;
    meta.last_writer.reset();
  }
  const auto [lost, recovered] = cache_.CrashReset(nullptr);
  (void)recovered;
  // The server cache restarts at capacity, as at construction.
  cache_.set_limit_blocks(cache_.config().max_blocks);
  // The service queue is volatile too: queued requests died with the
  // machine (their clients are retrying through the transport's outage
  // machinery). Their visits stay, so the depth gauge counts each one
  // until its completion instant.
  busy_until_ = 0;
  inflight_.clear();
  // Migration freeze windows are volatile coordinator state too.
  frozen_.clear();
  ++epoch_;
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("recovery.crash", "recovery", ServerTrack(id_), now, 0,
                        {{"epoch", static_cast<int64_t>(epoch_)}, {"dirty_lost", lost}});
  }
  return lost;
}

Server::ReopenReply Server::Reopen(ClientId client, FileId file, OpenMode mode,
                                   uint64_t client_version, bool has_dirty, bool has_handle,
                                   SimTime now) {
  ReopenReply reply;
  auto it = files_.find(file);
  if (it == files_.end() || !it->second.exists || it->second.is_directory) {
    reply.status = Status::kStaleHandle;
    return reply;
  }
  FileMeta& meta = it->second;
  if (has_dirty && meta.version != client_version) {
    // The client's delayed writes belong to a version a conflicting writer
    // has already superseded (it reopened first, or wrote through after the
    // reboot). The dirty data is doomed; the handle cannot be revived.
    reply.status = Status::kStaleHandle;
    return reply;
  }
  if (has_dirty) {
    meta.last_writer = client;
  }
  if (has_handle) {
    OpenState& state = open_states_[file];
    AddOpen(state.opens, client, mode);
    // Re-registration can recreate concurrent write-sharing among the
    // already-reopened handles; the usual callbacks fire, but these are not
    // new opens, so Table 10's counters are untouched.
    EnforceSharing(file, state, /*count=*/false, now, nullptr);
    reply.cacheable = state.cacheable;
  }
  reply.version = meta.version;
  return reply;
}

// --- Primary/backup replication: the standby's shadow ------------------------

void Server::ShadowOpen(ClientId client, FileId file, OpenMode mode) {
  AddOpen(shadow_[file].opens, client, mode);
}

void Server::ShadowClose(ClientId client, FileId file, OpenMode mode, bool wrote) {
  auto sit = shadow_.find(file);
  if (sit == shadow_.end()) {
    return;
  }
  ShadowFile& sf = sit->second;
  if (wrote) {
    sf.last_writer = client;  // the closer's cache holds the newest data
  }
  RemoveOpen(sf.opens, client, mode);
  if (sf.empty()) {
    shadow_.erase(sit);
  }
}

void Server::ShadowWriteback(FileId file, int64_t block, int64_t bytes) {
  ShadowFile& sf = shadow_[file];
  const int64_t extent = std::min<int64_t>(bytes, kBlockSize);
  auto [it, inserted] = sf.dirty.try_emplace(block, extent);
  if (!inserted) {
    it->second = std::max(it->second, extent);
  }
}

void Server::ShadowLastWriter(FileId file, ClientId client) {
  shadow_[file].last_writer = client;
}

void Server::ShadowBlockClean(FileId file, int64_t block) {
  auto sit = shadow_.find(file);
  if (sit == shadow_.end()) {
    return;
  }
  ShadowFile& sf = sit->second;
  sf.dirty.erase(block);
  if (sf.empty()) {
    shadow_.erase(sit);
  }
}

bool Server::HasShadowOpen(FileId file, ClientId client) const {
  auto sit = shadow_.find(file);
  if (sit == shadow_.end()) {
    return false;
  }
  const auto& opens = sit->second.opens;
  const auto it = FindClient(opens, client);
  return it != opens.end() && it->client == client;
}

Server::FailoverDelta Server::TakeOver(Server& failed, const std::function<bool(FileId)>& mine,
                                       SimTime now) {
  FailoverDelta delta;
  std::vector<FileId> moved;
  for (const auto& [file, meta] : failed.files_) {
    (void)meta;
    if (mine(file)) {
      moved.push_back(file);
    }
  }
  std::sort(moved.begin(), moved.end());
  for (FileId file : moved) {
    // The failed home's disk image is authoritative for its files.
    files_[file] = failed.files_[file];
    failed.files_.erase(file);
  }
  delta.files_adopted = static_cast<int64_t>(moved.size());
  for (auto it = shadow_.begin(); it != shadow_.end();) {
    const FileId file = it->first;
    if (!mine(file)) {
      ++it;
      continue;
    }
    const ShadowFile& sf = it->second;
    auto fit = files_.find(file);
    if (fit != files_.end() && fit->second.exists && !fit->second.is_directory) {
      InstallOpens(file, sf.opens, /*cacheable=*/std::nullopt);
      delta.entries += static_cast<int64_t>(sf.opens.size());
      if (sf.last_writer.has_value()) {
        fit->second.last_writer = sf.last_writer;
      }
      for (const auto& [block, extent] : sf.dirty) {
        cache_.Write(BlockKey{file, block}, now, extent, ToDisk());
        delta.preserved_bytes += extent;
        ++delta.entries;
      }
    }
    it = shadow_.erase(it);
  }
  return delta;
}

void Server::InstallOpens(FileId file, const std::vector<OpenCount>& opens,
                          std::optional<bool> cacheable) {
  if (opens.empty()) {
    return;
  }
  OpenState& state = open_states_[file];
  for (const OpenCount& e : opens) {
    OpenCount& open = CountFor(state.opens, e.client);
    open.readers += e.readers;
    open.writers += e.writers;
  }
  state.cacheable = cacheable.value_or(!IsWriteShared(state.opens));
}

void Server::ResyncShadowFrom(const Server& primary, const std::function<bool(FileId)>& mine) {
  std::vector<FileId> ids;
  for (const auto& [file, meta] : primary.files_) {
    (void)meta;
    if (mine(file)) {
      ids.push_back(file);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (FileId file : ids) {
    shadow_.erase(file);  // the primary's live state supersedes any residue
    const FileMeta& meta = primary.files_.at(file);
    if (!meta.exists || meta.is_directory) {
      continue;
    }
    ShadowFile sf;
    if (auto oit = primary.open_states_.find(file); oit != primary.open_states_.end()) {
      sf.opens = oit->second.opens;
    }
    sf.last_writer = meta.last_writer;
    primary.cache_.ForEachDirtyBlock(file, [&sf](int64_t block, int64_t extent) {
      sf.dirty.emplace_hint(sf.dirty.end(), block, extent);
    });
    if (!sf.empty()) {
      shadow_[file] = std::move(sf);
    }
  }
}

// --- Live rebalancing: charged home migration ---------------------------------

Server::MigratedFile Server::ExportFile(FileId file, SimTime now) {
  MigratedFile image;
  image.flushed_bytes = cache_.CleanFile(file, now, CleanReason::kRecall, ToDisk());
  auto fit = files_.find(file);
  if (fit == files_.end()) {
    return image;
  }
  image.valid = true;
  image.meta = fit->second;
  files_.erase(fit);
  if (auto oit = open_states_.find(file); oit != open_states_.end()) {
    image.cacheable = oit->second.cacheable;
    image.opens = std::move(oit->second.opens);
    open_states_.erase(oit);
  }
  // Post-flush the cached blocks are clean; drop them so a stale copy can
  // never be served if the home migrates back here later.
  cache_.InvalidateFile(file, now);
  return image;
}

void Server::ImportFile(FileId file, const MigratedFile& image) {
  if (!image.valid) {
    return;
  }
  files_[file] = image.meta;
  InstallOpens(file, image.opens, image.cacheable);
}

void Server::FreezeFileUntil(FileId file, SimTime until) {
  for (auto& [frozen_file, frozen_until] : frozen_) {
    if (frozen_file == file) {
      frozen_until = std::max(frozen_until, until);
      return;
    }
  }
  frozen_.push_back({file, until});
}

SimDuration Server::MigrationStall(FileId file, SimTime now) {
  if (frozen_.empty()) {
    return 0;
  }
  SimDuration stall = 0;
  for (auto it = frozen_.begin(); it != frozen_.end();) {
    if (it->second <= now) {
      it = frozen_.erase(it);  // window over: lazy expiry
      continue;
    }
    if (it->first == file) {
      stall = it->second - now;
    }
    ++it;
  }
  return stall;
}

void Server::DropShadowFile(FileId file) { shadow_.erase(file); }

std::vector<FileId> Server::AllFileIds() const {
  std::vector<FileId> out;
  out.reserve(files_.size());
  for (const auto& [file, meta] : files_) {
    (void)meta;
    out.push_back(file);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<FileId, int64_t>> Server::HomedFiles() const {
  std::vector<std::pair<FileId, int64_t>> out;
  out.reserve(files_.size());
  for (const auto& [file, meta] : files_) {
    if (meta.exists && !meta.is_directory) {
      out.push_back({file, meta.size});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Server::CleanerTick(SimTime now) {
  SimDuration disk_time = 0;
  int64_t blocks = 0;
  cache_.CleanAged(now, [&](BlockKey key, int64_t bytes) {
    disk_time += FlushToDisk(key, bytes);
    ++blocks;
  });
  if (obs_ != nullptr && obs_->tracing_enabled() && blocks > 0) {
    obs_->tracer().Emit("server.clean-aged", "server", ServerTrack(id_), now, disk_time,
                        {{"blocks", blocks}});
  }
}

}  // namespace sprite
