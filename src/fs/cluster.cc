#include "src/fs/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/table.h"

namespace sprite {

Cluster::Cluster(const ClusterConfig& config, EventQueue& queue)
    : config_(config),
      queue_(queue),
      obs_(config.observability.enabled()
               ? std::make_unique<Observability>(config.observability)
               : nullptr),
      // MakeSharder rejects num_servers <= 0, so placement can never fall
      // back on unsigned modulo-by-zero wraparound.
      placement_(config.sharding, config.num_servers, config.replication.enabled),
      ledger_(config.num_servers),
      transport_(std::make_unique<RpcTransport>(config.network, config.rpc)) {
  if (config.num_clients <= 0 || config.num_servers <= 0) {
    throw std::invalid_argument("Cluster: need at least one client and one server");
  }
  // Before AttachObservability: the shadow- and migrate-kind latency
  // recorders exist only in runs that can issue those RPCs (off-mode metric
  // output stays identical).
  transport_->SetReplicationEnabled(config.replication.enabled);
  transport_->SetRebalanceEnabled(config.rebalance.enabled);
  // Before AttachObservability: RegisterServer validates ids against this,
  // and the contended network's per-link recorders need the server count.
  transport_->SetExpectedServers(config.num_servers);
  transport_->AttachObservability(obs_.get());
  if (obs_ != nullptr && obs_->metrics_enabled() && config.observability.hotspot) {
    hotspot_ = std::make_unique<HotspotDetector>(config.observability.hotspot_rules,
                                                 config.num_servers);
    hotspot_->AttachObservability(obs_.get());
  }
  if (config.rebalance.enabled) {
    rebalancer_ = std::make_unique<Rebalancer>(config.rebalance, &placement_,
                                               static_cast<RebalanceHost*>(this));
  }
  stale_tracker_.AttachObservability(obs_.get());
  transport_->SetStaleTracker(&stale_tracker_);
  if (obs_ != nullptr && obs_->metrics_enabled()) {
    server_crash_counter_ = obs_->metrics().AddCounter("recovery.server_crashes");
    server_crash_dirty_lost_ = obs_->metrics().AddCounter("recovery.server_dirty_lost_bytes");
    // Event-queue instrumentation lives here: the queue belongs to the
    // caller, so the cluster registers gauges over it rather than teaching
    // the sim layer about metrics.
    MetricsRegistry& m = obs_->metrics();
    m.AddGauge("sim.queue.pending", [this] { return static_cast<int64_t>(queue_.pending_count()); });
    m.AddGauge("sim.queue.dispatched",
               [this] { return static_cast<int64_t>(queue_.dispatched_count()); });
    m.AddGauge("sim.queue.max_pending",
               [this] { return static_cast<int64_t>(queue_.max_pending_count()); });
    if (placement_.replicated()) {
      // Fail-over instruments exist only in replication-on runs, after the
      // recovery counters above so off-mode registration order is unchanged.
      failover_rec_ = m.AddLatency("recovery.failover_us");
      failover_counter_ = m.AddCounter("recovery.failovers");
      degraded_counter_ = m.AddCounter("recovery.degraded_crashes");
      preserved_counter_ = m.AddCounter("recovery.failover_preserved_bytes");
      resync_counter_ = m.AddCounter("recovery.resyncs");
    }
    if (rebalancer_ != nullptr) {
      // Rebalance instruments exist only in rebalance-on runs, after the
      // fail-over block so off-mode registration order is unchanged.
      m.AddGauge("rebalance.migrations", [this] { return rebalancer_->migrations(); });
      m.AddGauge("rebalance.moved_bytes", [this] { return rebalancer_->moved_bytes(); });
      m.AddGauge("rebalance.resize_moved_bytes",
                 [this] { return rebalancer_->resize_moved_bytes(); });
    }
  }
  servers_.reserve(static_cast<size_t>(config.num_servers));
  for (int s = 0; s < config.num_servers; ++s) {
    NewServer();
  }

  const Client::TraceSink sink = [this](const Record& r) { trace_.push_back(r); };

  clients_.reserve(static_cast<size_t>(config.num_clients));
  for (int c = 0; c < config.num_clients; ++c) {
    const ClientId id = static_cast<ClientId>(c);
    // Each client's router hands out stubs that route through the transport.
    Client::ServerRouter router = [this, id](FileId file) {
      const ServerId home = NoteHome(file);
      // Mirror RPCs go to the slot's standby while it shadows.
      Server* standby =
          placement_.Shadowing(home) ? servers_[placement_.Standby(home)].get() : nullptr;
      return ServerStub(id, *servers_[placement_.Active(home)], *transport_, standby);
    };
    clients_.push_back(std::make_unique<Client>(id, config.client, std::move(router), sink,
                                                &handle_counter_));
    clients_.back()->SetAsyncRpc(config.rpc.async);
    clients_.back()->AttachObservability(obs_.get());
    clients_.back()->AttachStaleTracker(&stale_tracker_);
    // A client contacting a rebooted server replays its opens before any
    // other traffic (the transport's epoch handshake calls back here).
    Client* client_ptr = clients_.back().get();
    transport_->SetReopenHandler(
        id, [client_ptr](ServerId s, SimTime t) { return client_ptr->ReplayOpens(s, t); });
    // Consistency callbacks travel the transport too, as typed RPCs.
    for (auto& server : servers_) {
      server->RegisterClient(id, transport_->WrapCallbacks(server->id(), id,
                                                           clients_.back().get()));
    }
  }
}

void Cluster::NewServer() {
  const auto id = static_cast<ServerId>(servers_.size());
  servers_.push_back(std::make_unique<Server>(id, config_.server, config_.disk));
  Server& server = *servers_.back();
  if (config_.rpc.async) {
    // Before AttachObservability, so the queue instruments register in the
    // same deterministic order as the other per-server metrics.
    server.EnableServiceQueue(config_.rpc, queue_);
  }
  server.AttachObservability(obs_.get());
  transport_->RegisterServer(id, &server);
  ledger_.Grow(num_servers());
  if (hotspot_ != nullptr) {
    hotspot_->GrowTo(num_servers());
  }
  const bool metrics = obs_ != nullptr && obs_->metrics_enabled();
  const std::string prefix = "server." + std::to_string(id);
  if (metrics) {
    // Placement-ledger gauge: distinct files the placement homed on this
    // slot. Lives here (not in Server::AttachObservability) because the
    // ledger belongs to the cluster; the storage-side counterpart
    // "server.N.bytes_homed" registers with the server's own gauges.
    obs_->metrics().AddGauge(prefix + ".files_placed",
                             [this, id] { return ledger_.files_placed(id); });
  }
  if (placement_.replicated()) {
    if (metrics) {
      // Slots this server currently serves: 1 = plain primary, 0 = failed
      // over, 2+ = absorbed a failed peer's slots.
      obs_->metrics().AddGauge(prefix + ".role",
                               [this, id] { return placement_.ActiveHomeCount(id); });
    }
    // A primary's disk flush makes the block durable: the standby shadowing
    // that slot drops the extent so the shadow tracks only at-risk bytes.
    server.SetShadowFlushHook([this](FileId file, int64_t block) {
      const ServerId home = placement_.Home(file);
      if (placement_.Shadowing(home)) {
        servers_[placement_.Standby(home)]->ShadowBlockClean(file, block);
      }
    });
  }
  for (auto& client : clients_) {
    server.RegisterClient(client->id(), transport_->WrapCallbacks(id, client->id(), client.get()));
  }
  if (daemons_started_) {
    StartServerCleaner(server);
  }
}

ServerId Cluster::NoteHome(FileId file) {
  const ServerId home = placement_.Home(file);
  // The ledger records the slot the placement chose; which server serves
  // the slot is the placement map's role half.
  ledger_.Note(home, file);
  return home;
}

std::function<bool(FileId)> Cluster::HomeFilter(ServerId home) const {
  return [this, home](FileId file) { return placement_.Home(file) == home; };
}

Server& Cluster::ServerForFile(FileId file) {
  return *servers_[placement_.Active(NoteHome(file))];
}

void Cluster::StartDaemons(SimDuration sample_period) {
  daemons_started_ = true;
  const SimDuration period = config_.client.cache.cleaner_period;
  for (size_t c = 0; c < clients_.size(); ++c) {
    // Stagger cleaner wakeups so all clients do not write back in lockstep.
    const SimTime first = queue_.now() + period + static_cast<SimDuration>(c) * (period / 40 + 1);
    Client* client = clients_[c].get();
    daemons_.push_back(std::make_unique<PeriodicTask>(
        queue_, first, period, [client](SimTime now) { client->CleanerTick(now); }));
  }
  for (auto& server : servers_) {
    StartServerCleaner(*server);
  }
  daemons_.push_back(std::make_unique<PeriodicTask>(
      queue_, queue_.now() + sample_period, sample_period, [this](SimTime now) {
        for (const auto& client : clients_) {
          cache_size_samples_.push_back(
              CacheSizeSample{now, client->id(), client->cache_size_bytes()});
        }
      }));
  // Metrics collector daemon: captures a window of the whole registry on the
  // configured period (the paper's user-level counter poller). Capturing only
  // reads state, so the extra events never perturb the simulation.
  if (obs_ != nullptr && obs_->metrics_enabled() &&
      config_.observability.snapshot_interval > 0) {
    const SimDuration interval = config_.observability.snapshot_interval;
    daemons_.push_back(std::make_unique<PeriodicTask>(
        queue_, queue_.now() + interval, interval,
        [this](SimTime now) { CaptureMetricsWindow(now, /*final_partial=*/false); }));
  }
}

void Cluster::StartServerCleaner(Server& server) {
  const SimDuration period = config_.client.cache.cleaner_period;
  const SimTime first =
      queue_.now() + period + static_cast<SimDuration>(server.id()) * (period / 8 + 1);
  Server* server_ptr = &server;
  daemons_.push_back(std::make_unique<PeriodicTask>(
      queue_, first, period, [server_ptr](SimTime now) { server_ptr->CleanerTick(now); }));
}

void Cluster::CaptureMetricsWindow(SimTime now, bool final_partial) {
  if (obs_ == nullptr || !obs_->metrics_enabled()) {
    return;
  }
  const MetricsWindow& w = obs_->metrics().Capture(now, final_partial);
  if (hotspot_ == nullptr) {
    return;
  }
  // Feed the detector the window that was just captured. Signals index by
  // server id; a missing sample (metric not registered, e.g. sync mode has
  // no queue recorders) reads as zero and can never flag.
  std::vector<HotspotSignal> signals(servers_.size());
  for (size_t s = 0; s < servers_.size(); ++s) {
    const std::string prefix = "server." + std::to_string(s) + ".";
    if (const WindowSample* q = w.Find(prefix + "queue_us")) {
      signals[s].queue_p99 = q->win_p99;
    }
    if (const WindowSample* d = w.Find(prefix + "queue_depth")) {
      signals[s].queue_depth = d->value;
    }
    if (const WindowSample* h = w.Find(prefix + "bytes_homed")) {
      signals[s].bytes_homed = h->value;
    }
  }
  hotspot_->Observe(w.start, w.end, signals);
  if (rebalancer_ != nullptr) {
    // React to episodes the window just opened/closed. Migrations execute
    // atomically at the window boundary (one sim instant), charging their
    // RPCs at `now`; the next window sees the moved bytes_homed.
    rebalancer_->OnWindow(hotspot_->TakeEpisodes(), now);
  }
}

void Cluster::FlushWire() { transport_->FlushAllWire(queue_.now()); }

void Cluster::FinalizeObservability() {
  if (obs_ == nullptr || !obs_->metrics_enabled() ||
      config_.observability.snapshot_interval <= 0) {
    return;
  }
  // RunUntil's inclusive deadline already fired the boundary capture when
  // the run length divides evenly; only a trailing partial window is left.
  if (obs_->series().last_capture_time() < queue_.now()) {
    CaptureMetricsWindow(queue_.now(), /*final_partial=*/true);
  }
  if (hotspot_ != nullptr) {
    hotspot_->Finalize();
  }
}

std::string Cluster::HotspotReport() const {
  if (hotspot_ == nullptr) {
    return "== Hot-spot report ==\ndetector disabled (requires --metrics)\n";
  }
  return hotspot_->Report();
}

// --- Live rebalancing (RebalanceHost + resize entry points) ------------------

std::vector<std::pair<FileId, int64_t>> Cluster::HomedFiles(ServerId server) const {
  return servers_.at(server)->HomedFiles();
}

int64_t Cluster::HomedBytes(ServerId server) const { return servers_.at(server)->HomedBytes(); }

MigrationOutcome Cluster::Migrate(FileId file, ServerId from, ServerId to_home, SimTime now) {
  MigrationOutcome out;
  const ServerId to = placement_.Active(to_home);
  if (from == to) {
    return out;
  }
  Server& src = *servers_.at(from);
  Server& dst = *servers_.at(to);
  // Crash safety first: the export writes the file's dirty server-cache
  // extents to the source's own disk before anything moves, so a crash at
  // any point of the protocol can lose at most what a crash without
  // migration would.
  const Server::MigratedFile image = src.ExportFile(file, now);
  const int64_t flushed = image.flushed_bytes;
  if (!image.valid) {
    return out;  // raced with nothing homed here: no state was touched
  }
  // The charged protocol: a virtual migration coordinator — client id one
  // past the real clients, so its ledger rows are distinguishable — issues
  // real transport calls that pay wire, contention, queueing, and outage
  // costs like any client RPC.
  const ClientId coordinator = static_cast<ClientId>(clients_.size());
  const int64_t state_bytes =
      kControlRpcBytes * (1 + static_cast<int64_t>(image.opens.size()));
  SimDuration latency =
      transport_->Call(RpcKind::kMigrateState, coordinator, from, state_bytes, now);
  if (flushed > 0) {
    latency += transport_->Call(RpcKind::kMigrateDirty, coordinator, from, flushed, now);
  }
  const int64_t commit_bytes = std::max<int64_t>(image.meta.size, kControlRpcBytes);
  latency += transport_->Call(RpcKind::kMigrateCommit, coordinator, to, commit_bytes, now);
  dst.ImportFile(file, image);
  // New opens of the moving file stall until the transfer's charged latency
  // has elapsed (the freeze window); in-flight handles stay valid because
  // clients route every operation through ServerForFile.
  dst.FreezeFileUntil(file, now + latency + config_.rebalance.freeze_overhead);
  // The backup follows the home: no server keeps a shadow of the file, and
  // the new slot's standby shadows it from its new primary.
  for (auto& server : servers_) {
    server->DropShadowFile(file);
  }
  if (placement_.Shadowing(to_home)) {
    servers_[placement_.Standby(to_home)]->ResyncShadowFrom(
        dst, [file](FileId f) { return f == file; });
  }
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("migrate", "rebalance", ServerTrack(from), now, latency,
                        {{"file", static_cast<int64_t>(file)},
                         {"to", static_cast<int64_t>(to)},
                         {"bytes", image.meta.size},
                         {"dirty_flushed", flushed}});
  }
  out.ok = true;
  out.moved_bytes = image.meta.size;
  out.latency = latency;
  return out;
}

std::vector<std::pair<FileId, ServerId>> Cluster::HomeCensus() const {
  std::vector<std::pair<FileId, ServerId>> census;
  for (const auto& server : servers_) {
    if (placement_.IsRetired(server->id())) {
      continue;
    }
    for (const FileId file : server->AllFileIds()) {
      census.emplace_back(file, server->id());
    }
  }
  std::sort(census.begin(), census.end());
  return census;
}

ServerId Cluster::AddServer() {
  if (rebalancer_ == nullptr) {
    throw std::logic_error("Cluster::AddServer requires RebalanceConfig::enabled");
  }
  // Census before the membership edit: these are the (file, server) pairs
  // the bounded steal is computed against.
  const std::vector<std::pair<FileId, ServerId>> census = HomeCensus();
  transport_->SetExpectedServers(num_servers() + 1);
  NewServer();
  const ServerId id = placement_.AddServer();
  SettleMembershipEdit("resize.add", id, census);
  return id;
}

void Cluster::RetireServer(ServerId server) {
  if (rebalancer_ == nullptr) {
    throw std::logic_error("Cluster::RetireServer requires RebalanceConfig::enabled");
  }
  const std::vector<std::pair<FileId, ServerId>> census = HomeCensus();
  placement_.RetireServer(server);  // validates the server and the live set
  SettleMembershipEdit("resize.retire", server, census);
}

void Cluster::SettleMembershipEdit(const char* span, ServerId server,
                                   const std::vector<std::pair<FileId, ServerId>>& census) {
  const SimTime now = queue_.now();
  const auto moves = rebalancer_->Resettle(census, now);
  // The edit re-picked every standby and paused every shadow. Rebuild them
  // all: a retire can move a file into another slot on the same server, so
  // a slot whose standby did not change can still lack the file's shadow.
  for (auto& s : servers_) {
    s->DropShadows();
  }
  for (ServerId home = 0; home < static_cast<ServerId>(servers_.size()); ++home) {
    const ServerId active = placement_.Active(home);
    const ServerId standby = placement_.Standby(home);
    if (!placement_.IsRetired(home) && standby != active && !placement_.IsDown(active, now) &&
        !placement_.IsDown(standby, now)) {
      ResyncShadow(home);
    }
  }
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit(span, "rebalance", ServerTrack(server), now, 0,
                        {{"moves", static_cast<int64_t>(moves.size())}});
  }
}

void Cluster::ResyncShadow(ServerId home) {
  servers_[placement_.Standby(home)]->ResyncShadowFrom(*servers_[placement_.Active(home)],
                                                       HomeFilter(home));
  placement_.SetShadowing(home, true);
}

int Cluster::MigrateOffServer(ServerId server, SimTime now) {
  if (rebalancer_ == nullptr) {
    throw std::logic_error("Cluster::MigrateOffServer requires RebalanceConfig::enabled");
  }
  if (static_cast<size_t>(server) >= servers_.size()) {
    throw std::logic_error("Cluster::MigrateOffServer: unknown server");
  }
  HotspotEvent ev;
  ev.kind = HotspotEvent::Kind::kOpened;
  ev.episode.server = static_cast<int>(server);
  ev.episode.start = now;
  ev.episode.end = now;
  return rebalancer_->OnWindow({ev}, now);
}

std::string Cluster::RebalanceReport() const {
  if (rebalancer_ == nullptr) {
    return "== Rebalance report ==\nrebalancing disabled (requires --rebalance)\n";
  }
  return rebalancer_->Report();
}

CacheCounters Cluster::AggregateCacheCounters() const {
  CacheCounters total;
  for (const auto& client : clients_) {
    const CacheCounters& c = client->cache_counters();
    total.read_ops += c.read_ops;
    total.read_misses += c.read_misses;
    total.migrated_read_ops += c.migrated_read_ops;
    total.migrated_read_misses += c.migrated_read_misses;
    total.bytes_read_by_apps += c.bytes_read_by_apps;
    total.bytes_read_from_server += c.bytes_read_from_server;
    total.bytes_written_by_apps += c.bytes_written_by_apps;
    total.bytes_written_to_server += c.bytes_written_to_server;
    total.migrated_bytes_read_by_apps += c.migrated_bytes_read_by_apps;
    total.migrated_bytes_read_from_server += c.migrated_bytes_read_from_server;
    total.write_ops += c.write_ops;
    total.write_fetches += c.write_fetches;
    total.write_fetch_bytes += c.write_fetch_bytes;
    total.paging_read_ops += c.paging_read_ops;
    total.paging_read_misses += c.paging_read_misses;
    total.replaced_for_file += c.replaced_for_file;
    total.replaced_for_vm += c.replaced_for_vm;
    total.replaced_for_file_age_us += c.replaced_for_file_age_us;
    total.replaced_for_vm_age_us += c.replaced_for_vm_age_us;
    for (int r = 0; r < kCleanReasonCount; ++r) {
      total.cleaned[r] += c.cleaned[r];
      total.cleaned_age_us[r] += c.cleaned_age_us[r];
    }
    total.bytes_cancelled_before_writeback += c.bytes_cancelled_before_writeback;
    total.prefetch_fetches += c.prefetch_fetches;
    total.prefetch_useful += c.prefetch_useful;
    total.bypass_read_bytes += c.bypass_read_bytes;
    total.crashes += c.crashes;
    total.bytes_lost_in_crashes += c.bytes_lost_in_crashes;
    total.bytes_recovered_from_nvram += c.bytes_recovered_from_nvram;
  }
  return total;
}

TrafficCounters Cluster::AggregateTrafficCounters() const {
  TrafficCounters total;
  for (const auto& client : clients_) {
    const TrafficCounters& t = client->traffic_counters();
    total.file_read_cacheable += t.file_read_cacheable;
    total.file_write_cacheable += t.file_write_cacheable;
    total.file_read_shared += t.file_read_shared;
    total.file_write_shared += t.file_write_shared;
    total.dir_read += t.dir_read;
    total.paging_read_cacheable += t.paging_read_cacheable;
    total.paging_read_backing += t.paging_read_backing;
    total.paging_write_backing += t.paging_write_backing;
  }
  return total;
}

int64_t Cluster::CrashServer(ServerId server, SimDuration down_for) {
  const SimTime now = queue_.now();
  Server& s = *servers_.at(server);
  // Overlapping crashes extend the outage (a stale rejoin event checks it
  // and yields to the later one). The rebalancer consults it too, so
  // migrations never target or pull from a server mid-outage.
  placement_.ExtendOutage(server, now + down_for);
  const int64_t lost = s.Crash(now);
  if (server_crash_counter_ != nullptr) {
    server_crash_counter_->Add();
  }
  const auto epoch = static_cast<int64_t>(s.epoch());
  const bool tracing = obs_ != nullptr && obs_->tracing_enabled();
  if (tracing) {
    obs_->tracer().Emit("server.down", "recovery", ServerTrack(server), now, down_for,
                        {{"epoch", epoch}, {"dirty_lost", lost}});
  }
  bool degraded = false;
  for (ServerId home : placement_.HomesActiveOn(server)) {
    if (!placement_.Shadowing(home)) {
      // No live shadow (replication off, the standby is down too, or it has
      // not resynced after its own crash): this home rides out the classic
      // reopen-storm recovery below.
      degraded = true;
      continue;
    }
    // Fail over: the standby becomes the home's active replica. It adopts
    // the home's disk image, replays the shadow delta into real state,
    // and is unavailable while the failure detector fires and the replay
    // runs — that window is the fail-over availability gap.
    const ServerId backup = placement_.Standby(home);
    placement_.Promote(home);
    const Server::FailoverDelta delta = servers_[backup]->TakeOver(s, HomeFilter(home), now);
    const SimDuration failover_us = config_.replication.detection_delay +
                                    delta.entries * config_.replication.replay_per_entry;
    transport_->SetServerUnavailable(backup, now, now + failover_us);
    ++failovers_;
    preserved_bytes_ += delta.preserved_bytes;
    total_failover_us_ += failover_us;
    if (failover_rec_ != nullptr) {
      failover_rec_->Record(failover_us);
      failover_counter_->Add();
      preserved_counter_->Add(delta.preserved_bytes);
    }
    if (tracing) {
      obs_->tracer().Emit("failover", "recovery", ServerTrack(backup), now, failover_us,
                          {{"home", static_cast<int64_t>(home)},
                           {"entries", delta.entries},
                           {"files_adopted", delta.files_adopted},
                           {"preserved_bytes", delta.preserved_bytes}});
    }
  }
  // Shadows this server was providing die with its memory; the homes they
  // covered fail over no more until it rejoins and resyncs.
  for (ServerId home : placement_.HomesStandbyOn(server)) {
    placement_.SetShadowing(home, false);
  }
  if (placement_.replicated()) {
    if (degraded) {
      ++degraded_crashes_;
      if (degraded_counter_ != nullptr) {
        degraded_counter_->Add();
      }
    }
    queue_.Schedule(now + down_for, [this, server] { RejoinServer(server); });
  }
  if (degraded) {
    // Classic Sprite recovery: epoch bump, reopen storm, grace window, dirty
    // bytes lost. The transport learns the new epoch immediately: no request
    // completes while the server is down, so the bump cannot be observed
    // early.
    transport_->ScheduleServerCrash(server, now, now + down_for, s.epoch());
    if (server_crash_dirty_lost_ != nullptr) {
      server_crash_dirty_lost_->Add(lost);
    }
    if (tracing) {
      obs_->tracer().Emit("server.recovering", "recovery", ServerTrack(server), now + down_for,
                          transport_->config().recovery_grace, {{"epoch", epoch}});
    }
  }
  return lost;
}

void Cluster::RejoinServer(ServerId server) {
  const SimTime now = queue_.now();
  if (placement_.IsDown(server, now)) {
    return;  // a later overlapping crash extended the outage; its event wins
  }
  const bool tracing = obs_ != nullptr && obs_->tracing_enabled();
  const auto resync = [&](ServerId home) {
    ResyncShadow(home);
    ++resyncs_;
    if (resync_counter_ != nullptr) {
      resync_counter_->Add();
    }
    if (tracing) {
      obs_->tracer().Emit("replication.resync", "recovery",
                          ServerTrack(placement_.Standby(home)), now, 0,
                          {{"home", static_cast<int64_t>(home)}});
    }
  };
  // Re-arm the shadows this server provides, from each home's live active.
  for (ServerId home : placement_.HomesStandbyOn(server)) {
    if (!placement_.IsDown(placement_.Active(home), now)) {
      resync(home);  // else a correlated crash: re-arm when the active rejoins
    }
  }
  // Heal deferred shadows for homes this server serves whose standby is
  // alive but was never resynced (the degraded-crash aftermath).
  for (ServerId home : placement_.HomesActiveOn(server)) {
    if (!placement_.Shadowing(home) && !placement_.IsDown(placement_.Standby(home), now)) {
      resync(home);
    }
  }
}

void Cluster::PartitionClients(ClientId first, ClientId last, ServerId server, SimTime from,
                               SimTime until) {
  for (ClientId c = first; c <= last; ++c) {
    clients_.at(c);  // range-check before touching the transport
    transport_->SetPartition(c, server, from, until);
    if (obs_ != nullptr && obs_->tracing_enabled()) {
      obs_->tracer().Emit("partition-gap", "recovery.partition", ClientTrack(c), from,
                          until - from, {{"server", static_cast<int64_t>(server)}});
    }
  }
}

int64_t Cluster::CrashClient(ClientId client, SimTime now) {
  const int64_t lost = clients_.at(client)->Crash(now);
  for (auto& server : servers_) {
    server->ClientCrashed(client, now);
  }
  return lost;
}

void Cluster::ResetMeasurements() {
  // Drain deferred wire batches first so their flush charges land in the
  // warmup ledger being discarded, not astride the measurement boundary.
  transport_->FlushAllWire(queue_.now());
  for (auto& client : clients_) {
    client->ResetCounters();
  }
  for (auto& server : servers_) {
    server->ResetCounters();
  }
  transport_->ResetLedger();
  stale_tracker_.ResetCounts();
  ledger_.Reset();
  trace_.clear();
  cache_size_samples_.clear();
  if (obs_ != nullptr) {
    // Re-baseline the windowed series at the current time so the first
    // post-warmup window spans [warmup_end, warmup_end + interval).
    obs_->Reset(queue_.now());
  }
  if (hotspot_ != nullptr) {
    hotspot_->Reset();
  }
}

std::string Cluster::ShardReport() const {
  const bool queue_stats = config_.rpc.async && obs_ != nullptr && obs_->metrics_enabled();
  std::vector<std::string> headers = {"Server", "Files placed", "Routed", "Homed MB",
                                      "RPC calls",  "RPC MB"};
  if (queue_stats) {
    headers.push_back("Queue p50");
    headers.push_back("Queue p99");
  }
  TextTable table(std::move(headers));

  std::vector<int64_t> files_placed;
  std::vector<int64_t> routed;
  std::vector<int64_t> homed;
  for (size_t s = 0; s < servers_.size(); ++s) {
    const ServerId sid = static_cast<ServerId>(s);
    files_placed.push_back(ledger_.files_placed(sid));
    routed.push_back(ledger_.routed(sid));
    homed.push_back(servers_[s]->HomedBytes());
    const auto it = rpc_ledger().by_server.find(sid);
    const int64_t rpc_calls = it == rpc_ledger().by_server.end() ? 0 : it->second.calls;
    const int64_t rpc_bytes = it == rpc_ledger().by_server.end() ? 0 : it->second.payload_bytes;
    std::vector<std::string> row = {
        std::to_string(s),
        std::to_string(files_placed.back()),
        std::to_string(routed.back()),
        FormatFixed(static_cast<double>(homed.back()) / static_cast<double>(kMegabyte), 2),
        std::to_string(rpc_calls),
        FormatFixed(static_cast<double>(rpc_bytes) / static_cast<double>(kMegabyte), 2)};
    if (queue_stats) {
      const LatencyRecorder* rec =
          obs_->metrics().FindLatency("server." + std::to_string(s) + ".queue_us");
      row.push_back(rec == nullptr ? "-" : FormatDuration(rec->Quantile(0.5)));
      row.push_back(rec == nullptr ? "-" : FormatDuration(rec->Quantile(0.99)));
    }
    table.AddRow(std::move(row));
  }

  auto skew_cell = [](const char* label, const SkewSummary& s) {
    return std::string(label) + " max/mean " + FormatFixed(s.max_over_mean, 2) + " cv " +
           FormatFixed(s.cv, 2);
  };
  std::string out = "== Server sharding report ==\n";
  out += "policy: ";
  out += ShardingPolicyName(placement_.sharder().policy());
  out += "\n";
  out += table.Render();
  out += "skew: " + skew_cell("files", ComputeSkew(files_placed)) + " | " +
         skew_cell("routed", ComputeSkew(routed)) + " | " +
         skew_cell("homed-bytes", ComputeSkew(homed)) + "\n";
  return out;
}

ServerCounters Cluster::AggregateServerCounters() const {
  ServerCounters total;
  for (const auto& server : servers_) {
    const ServerCounters& s = server->counters();
    total.file_read_bytes += s.file_read_bytes;
    total.file_write_bytes += s.file_write_bytes;
    total.shared_read_bytes += s.shared_read_bytes;
    total.shared_write_bytes += s.shared_write_bytes;
    total.dir_read_bytes += s.dir_read_bytes;
    total.paging_read_bytes += s.paging_read_bytes;
    total.paging_write_bytes += s.paging_write_bytes;
    total.file_opens += s.file_opens;
    total.write_sharing_opens += s.write_sharing_opens;
    total.recall_opens += s.recall_opens;
  }
  return total;
}

}  // namespace sprite
