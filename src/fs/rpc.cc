#include "src/fs/rpc.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/fs/sharding.h"  // SplitMix64 (backoff jitter)
#include "src/util/table.h"

namespace sprite {

RpcTransport::RpcTransport(const NetworkConfig& net_config, const RpcConfig& rpc_config)
    : network_(std::make_unique<Network>(net_config)), config_(rpc_config) {
  ledger_.async = config_.async;
}

SimDuration RpcTransport::BackoffForAttempt(const RpcConfig& config, int attempt) {
  // Explicit clamped doubling: initial, 2x, 4x, ... saturating at
  // backoff_max. Each step clamps before the next doubling, so the sequence
  // never transiently overshoots the cap.
  SimDuration backoff = std::min(config.backoff_initial, config.backoff_max);
  for (int k = 0; k < attempt && backoff < config.backoff_max; ++k) {
    backoff = std::min(backoff * 2, config.backoff_max);
  }
  return backoff;
}

SimDuration RpcTransport::JitteredBackoffForAttempt(const RpcConfig& config, ClientId client,
                                                    int attempt) {
  const SimDuration base = BackoffForAttempt(config, attempt);
  if (base <= 0) {
    return base;
  }
  // splitmix64 over (client, attempt): every client gets its own retry
  // schedule, so a fleet unblocked by the same outage spreads out instead of
  // re-stampeding the rebooted server in lockstep. The jitter never exceeds
  // a quarter of the base step, which keeps the retry-budget arithmetic of
  // existing fault scenarios (how many timeouts fit in an outage) intact.
  const uint64_t seed = (static_cast<uint64_t>(client) + 1) * 0x9E3779B97F4A7C15ULL ^
                        static_cast<uint64_t>(attempt + 1);
  const uint64_t span = static_cast<uint64_t>(base / 4) + 1;
  return base + static_cast<SimDuration>(SplitMix64(seed) % span);
}

void RpcTransport::AttachObservability(Observability* obs) {
  obs_ = obs;
  latency_rec_.fill(nullptr);
  link_rec_.clear();
  critical_path_ = (obs_ != nullptr && obs_->critical_path_enabled())
                       ? &obs_->critical_path()
                       : nullptr;
  if (obs_ == nullptr || !obs_->metrics_enabled()) {
    return;
  }
  MetricsRegistry& metrics = obs_->metrics();
  for (size_t k = 0; k < kRpcKinds.size(); ++k) {
    const RpcKindInfo& info = kRpcKinds[k];
    // Opt-in groups get recorders only when their mode can issue them: the
    // metrics window prints every registered instrument (zeros included),
    // so registering them unconditionally would perturb mode-off output.
    if ((info.group == RpcGroup::kShadow && !replication_enabled_) ||
        (info.group == RpcGroup::kBatch && !config_.batching) ||
        (info.group == RpcGroup::kMigrate && !rebalance_enabled_)) {
      continue;
    }
    latency_rec_[k] = metrics.AddLatency(std::string("rpc.") + info.name + ".latency_us");
  }
  metrics.AddGauge("rpc.calls", [this] { return ledger_.TotalCalls(); });
  metrics.AddGauge("rpc.payload_bytes", [this] { return ledger_.TotalPayloadBytes(); });
  // Honest-wire and contention instruments, gated on their modes so the
  // default metric stream is unchanged line for line.
  if (config_.honest_wire || config_.batching) {
    metrics.AddGauge("wire.piggybacked_ops", [this] { return ledger_.piggybacked_ops; });
    metrics.AddGauge("wire.charged_control_ops",
                     [this] { return ledger_.charged_control_ops; });
    metrics.AddGauge("wire.batched_ops", [this] { return ledger_.batched_ops; });
    metrics.AddGauge("wire.batches", [this] { return ledger_.batches; });
  }
  if (network_ != nullptr && network_->contention_enabled()) {
    AddLinkRecorders(static_cast<size_t>(expected_servers_));
    metrics.AddGauge("net.retransmits", [this] { return network_->retransmits(); });
    metrics.AddGauge("net.contended_transfers",
                     [this] { return network_->contended_transfers(); });
  }
}

void RpcTransport::RegisterServer(ServerId id, Server* server) {
  if (expected_servers_ > 0 && id >= static_cast<ServerId>(expected_servers_)) {
    throw std::invalid_argument("RpcTransport::RegisterServer: server id " +
                                std::to_string(id) + " out of range [0, " +
                                std::to_string(expected_servers_) + ")");
  }
  if (id >= servers_.size()) {
    servers_.resize(id + 1, nullptr);
  }
  servers_[id] = server;
  AddLinkRecorders(static_cast<size_t>(id) + 1);
}

void RpcTransport::AddLinkRecorders(size_t servers) {
  if (obs_ == nullptr || !obs_->metrics_enabled() || network_ == nullptr ||
      !network_->contention_enabled()) {
    return;
  }
  while (link_rec_.size() < servers) {
    link_rec_.push_back(obs_->metrics().AddLatency(
        "net.link." + std::to_string(link_rec_.size()) + ".queued_us"));
  }
}

void RpcTransport::SetServerUnavailable(ServerId server, SimTime from, SimTime until) {
  if (until > from) {
    if (server >= outages_.size()) {
      outages_.resize(server + 1);
    }
    outages_[server].push_back(Outage{from, until, until});
    ++outage_count_;
  }
}

void RpcTransport::ScheduleServerCrash(ServerId server, SimTime from, SimTime until,
                                       uint64_t new_epoch) {
  if (until > from) {
    if (server >= outages_.size()) {
      outages_.resize(server + 1);
    }
    outages_[server].push_back(Outage{from, until, until + config_.recovery_grace});
    ++outage_count_;
  }
  // The epoch bump is visible immediately: no request completes while the
  // server is down (the event queue is at `from` when the crash fires), so
  // every later response carries the new epoch.
  if (server >= epoch_set_.size()) {
    server_epochs_.resize(server + 1, 0);
    epoch_set_.resize(server + 1, 0);
  }
  server_epochs_[server] = new_epoch;
  epoch_set_[server] = 1;
  has_epochs_ = true;
}

void RpcTransport::SetPartition(ClientId client, ServerId server, SimTime from, SimTime until) {
  if (until > from) {
    if (client >= partitions_.size()) {
      partitions_.resize(client + 1);
    }
    if (server >= partitions_[client].size()) {
      partitions_[client].resize(server + 1);
    }
    partitions_[client][server].push_back(Outage{from, until, until});
    ++partition_count_;
  }
}

bool RpcTransport::Unreachable(ServerId server, ClientId client, SimTime t,
                               SimTime* recovery) const {
  SimTime horizon = 0;
  // Half-open check everywhere: a window ending exactly at `t` costs
  // nothing (the regression in tests/fs/rpc_test.cc pins this down).
  if (server < outages_.size()) {
    for (const Outage& o : outages_[server]) {
      if (t >= o.from && t < o.until) {
        horizon = std::max(horizon, o.until);
      }
    }
  }
  if (client < partitions_.size() && server < partitions_[client].size()) {
    for (const Outage& o : partitions_[client][server]) {
      if (t >= o.from && t < o.until) {
        horizon = std::max(horizon, o.until);
      }
    }
  }
  if (horizon == 0) {
    return false;
  }
  *recovery = horizon;
  return true;
}

SimTime RpcTransport::GraceUntil(ServerId server, SimTime t) const {
  if (server >= outages_.size()) {
    return t;
  }
  SimTime grace = t;
  for (const Outage& o : outages_[server]) {
    if (t >= o.until && t < o.grace_until) {
      grace = std::max(grace, o.grace_until);
    }
  }
  return grace;
}

SimDuration RpcTransport::SyncEpoch(ClientId client, ServerId server, SimTime t) {
  if (server >= epoch_set_.size() || !epoch_set_[server]) {
    return 0;  // never crashed; everyone is implicitly in epoch 1
  }
  const uint64_t current = server_epochs_[server];
  if (client >= seen_epochs_.size()) {
    seen_epochs_.resize(client + 1);
  }
  if (server >= seen_epochs_[client].size()) {
    seen_epochs_[client].resize(server + 1, 0);
  }
  uint64_t& seen = seen_epochs_[client][server];
  if (seen == current) {
    return 0;
  }
  // Mark the epoch seen BEFORE replaying: the storm's own kReopen calls
  // must not recurse into another handshake.
  seen = current;
  if (client >= reopen_handlers_.size() || !reopen_handlers_[client]) {
    return 0;
  }
  return reopen_handlers_[client](server, t);
}

RpcTransport::PairWire& RpcTransport::PairState(ClientId client, ServerId server) {
  if (static_cast<size_t>(client) >= pair_wire_.size()) {
    pair_wire_.resize(client + 1);
  }
  auto& row = pair_wire_[client];
  if (static_cast<size_t>(server) >= row.size()) {
    row.resize(server + 1);
  }
  return row[server];
}

SimDuration RpcTransport::FlushBatch(ClientId client, ServerId server, SimTime now) {
  PairWire& pw = PairState(client, server);
  if (pw.batch.ops == 0) {
    return 0;
  }
  const WireBatch batch = std::exchange(pw.batch, WireBatch{});
  // One wire exchange carrying the batch's summed bytes, admitted once at
  // control service time in async mode. The members already booked their
  // calls and payload, so the kBatch row carries only the exchange.
  CallCharge c{RpcKind::kBatch, client, server};
  if (network_ != nullptr) {
    c.net = Exchange(RpcKind::kBatch, client, server, batch.bytes, now);
  }
  if (config_.async) {
    Serve(c, now + c.net);
  }
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit(RpcKindName(RpcKind::kBatch), "rpc", ClientTrack(client), now, c.total(),
                        {{"server", server}, {"ops", batch.ops}, {"bytes", batch.bytes},
                         {"net_us", c.net}});
  }
  Account(c);
  ++ledger_.batches;
  pw.has_exchange = true;
  pw.last_exchange_end = now + c.total();
  return c.total();
}

void RpcTransport::FlushAllWire(SimTime now) {
  for (size_t c = 0; c < pair_wire_.size(); ++c) {
    for (size_t s = 0; s < pair_wire_[c].size(); ++s) {
      if (pair_wire_[c][s].batch.ops > 0) {
        FlushBatch(static_cast<ClientId>(c), static_cast<ServerId>(s), now);
      }
    }
  }
}

void RpcTransport::Phase(ClientId client, const char* name, SimTime start,
                         SimDuration duration) {
  if (obs_ != nullptr && obs_->tracing_enabled()) {
    Span s;
    s.name = name;
    s.category = "rpc.phase";
    s.track = ClientTrack(client);
    s.start = start;
    s.duration = duration;
    span_scratch_.push_back(s);
  }
}

void RpcTransport::Reach(CallCharge& c, SimTime now) {
  SimTime t = now;
  SimTime recovery = 0;
  while (Unreachable(c.server, c.client, t, &recovery)) {
    Phase(c.client, "timeout", t, config_.timeout);
    c.wait += config_.timeout;
    t += config_.timeout;
    ++c.timeouts;
    if (c.retries >= config_.max_retries) {
      // Retry budget spent: wait out the outage, as Sprite clients do.
      if (recovery > t) {
        Phase(c.client, "blocked-wait", t, recovery - t);
        c.wait += recovery - t;
        t = recovery;
      }
      ++c.blocked_waits;
      break;
    }
    const SimDuration backoff =
        JitteredBackoffForAttempt(config_, c.client, static_cast<int>(c.retries));
    Phase(c.client, "backoff", t, backoff);
    c.wait += backoff;
    t += backoff;
    ++c.retries;
  }
  // Crash-recovery handshake. The first response from a rebooted server
  // carries its new epoch; a client that is behind replays its open handles
  // (kReopen storm, which books its own calls) before this request is
  // served, and non-reopen traffic then waits out the rest of the
  // reopen-only grace window.
  if (has_epochs_ && c.kind != RpcKind::kReopen) {
    const SimDuration storm = SyncEpoch(c.client, c.server, t);
    c.wait += storm;
    t += storm;
    const SimTime grace = GraceUntil(c.server, t);
    if (grace > t) {
      Phase(c.client, "grace-wait", t, grace - t);
      c.wait += grace - t;
      ++c.blocked_waits;
    }
  }
}

bool RpcTransport::WirePolicy(const RpcKindInfo& info, CallCharge& c, PairWire& pw,
                              SimTime t) {
  if (config_.batching && info.batchable()) {
    if (pw.batch.ops > 0 && t - pw.batch.started >= config_.batch_window) {
      // The pending batch aged out: this op pays its flush, then starts a
      // fresh one (lazy age-out keeps the sync transport event-free).
      c.flush_wait += FlushBatch(c.client, c.server, t);
    }
    if (pw.batch.ops == 0) {
      pw.batch.started = t + c.flush_wait;
    }
    ++pw.batch.ops;
    pw.batch.bytes += c.payload_bytes > 0 ? c.payload_bytes : kControlRpcBytes;
    ++ledger_.batched_ops;
    if (pw.batch.ops >= config_.batch_max_ops) {
      c.flush_wait += FlushBatch(c.client, c.server, t + c.flush_wait);
    }
    return false;
  }
  if (info.charges_network()) {
    return true;
  }
  // A lane-less kind inside the piggyback window rides the pair's last
  // exchange for free; otherwise it pays a full exchange of its own.
  if (pw.has_exchange && t < pw.last_exchange_end + config_.piggyback_window) {
    ++ledger_.piggybacked_ops;
    return false;
  }
  ++ledger_.charged_control_ops;
  return true;
}

// Exchange and Account run on every charged call; forcing them inline keeps
// the default path as short as it was when Call spelled them out.
[[gnu::always_inline]] inline SimDuration RpcTransport::Exchange(RpcKind kind, ClientId client, ServerId server,
                                          int64_t bytes, SimTime start) {
  const Network::WireOutcome out = network_->Transfer(client, server, bytes, start);
  if (server < link_rec_.size()) {
    link_rec_[server]->Record(out.queued);
  }
  if (out.queued > 0 && obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("net.queued", "net", ServerTrack(server), start, out.queued,
                        {{"client", client}, {"kind", static_cast<int64_t>(kind)}});
  }
  return out.latency;
}

void RpcTransport::Serve(CallCharge& c, SimTime arrival) {
  Server* srv = c.server < servers_.size() ? servers_[c.server] : nullptr;
  if (srv == nullptr || !srv->service_queue_enabled()) {
    return;
  }
  // Reopen traffic during the recovery grace window jumps the queue.
  const bool priority = c.kind == RpcKind::kReopen && GraceUntil(c.server, arrival) > arrival;
  // Admission schedules no event: the server's record of the visit is what
  // its depth gauge counts.
  const Server::Admission adm = srv->AdmitRequest(c.kind, arrival, priority);
  c.queue = adm.queue_wait();
  c.service = adm.service;
  if (c.queue > 0 && obs_ != nullptr && obs_->tracing_enabled()) {
    obs_->tracer().Emit("rpc.queued", "rpc.server", ServerTrack(c.server), adm.arrival, c.queue,
                        {{"client", c.client}, {"kind", static_cast<int64_t>(c.kind)}});
  }
}

[[gnu::always_inline]] inline void RpcTransport::Account(const CallCharge& c) {
  if (LatencyRecorder* rec = latency_rec_[static_cast<size_t>(c.kind)]; rec != nullptr) {
    rec->Record(c.total());
  }
  if (critical_path_ != nullptr) {
    // Exactly the values booked on the ledger below (flush_wait rides only
    // in the caller's total: the flush booked its own kBatch charge), so the
    // collector's phase totals reconcile with the ledger to the microsecond.
    critical_path_->AddRpc(c.wait, c.net, c.queue, c.service, RpcKindInfoOf(c.kind).callback());
  }
  const auto charge = [&c](RpcStat& s) {
    ++s.calls;
    s.payload_bytes += c.payload_bytes;
    s.net_time += c.net;
    s.wait_time += c.wait;
    s.queue_time += c.queue;
    s.service_time += c.service;
    s.retries += c.retries;
    s.timeouts += c.timeouts;
    s.blocked_waits += c.blocked_waits;
  };
  charge(ledger_.stat(c.kind));
  charge(ledger_.by_client[c.client]);
  charge(ledger_.by_server[c.server]);
  if (has_epochs_) {
    // Per-epoch breakdown, only once a crash exists (fault-free ledgers and
    // their rendering stay bit-identical). Servers that never crashed are
    // still in epoch 1.
    const bool crashed = c.server < epoch_set_.size() && epoch_set_[c.server];
    charge(ledger_.by_epoch[crashed ? server_epochs_[c.server] : 1]);
  }
}

SimDuration RpcTransport::Call(RpcKind kind, ClientId client, ServerId server,
                               int64_t payload_bytes, SimTime now) {
  const RpcKindInfo& info = RpcKindInfoOf(kind);
  CallCharge c{kind, client, server, payload_bytes};
  // Sub-phase spans (timeouts, backoffs, recovery waits, wire time) gather
  // in the pooled scratch from `phase_base` on while tracing, so the parent
  // span is emitted first and Perfetto nests them under it. Nested Calls
  // (reopen storms) stack their own suffixes and truncate them.
  const bool tracing = obs_ != nullptr && obs_->tracing_enabled();
  const size_t phase_base = span_scratch_.size();

  // Reachability, only once a fault or crash exists. Callbacks come from
  // the server itself and never wait.
  if ((outage_count_ > 0 || partition_count_ > 0 || has_epochs_) && !info.callback()) {
    Reach(c, now);
  }
  // Wire policy: by default a kind pays its own exchange exactly when it has
  // a service lane; honest wire and batching decide per call.
  bool own_exchange = info.charges_network();
  PairWire* pw = nullptr;
  if (config_.honest_wire || config_.batching) {
    pw = &PairState(client, server);
    own_exchange = WirePolicy(info, c, *pw, now + c.wait);
  }
  if (own_exchange) {
    const SimTime start = now + c.wait + c.flush_wait;
    if (network_ != nullptr) {
      // A lane-less kind paying its own exchange sends a control message.
      const int64_t bytes =
          info.charges_network() || payload_bytes != 0 ? payload_bytes : kControlRpcBytes;
      c.net = Exchange(kind, client, server, bytes, start);
      if (tracing) {
        Phase(client, "wire", start, c.net);
      }
      if (pw != nullptr) {
        pw->has_exchange = true;
        pw->last_exchange_end = start + c.net;
      }
    }
    // Only kinds with a service lane enter the server's queue.
    if (config_.async && info.charges_network()) {
      Serve(c, start + c.net);
    }
  }

  if (tracing) {
    obs_->tracer().Emit(info.name, info.callback() ? "rpc.callback" : "rpc", ClientTrack(client),
                        now, c.total(),
                        {{"server", server},
                         {"bytes", payload_bytes},
                         {"retries", c.retries},
                         {"timeouts", c.timeouts},
                         {"net_us", c.net},
                         {"wait_us", c.wait}});
    for (size_t i = phase_base; i < span_scratch_.size(); ++i) {
      const Span& s = span_scratch_[i];
      obs_->tracer().Emit(s.name, s.category, s.track, s.start, s.duration);
    }
    span_scratch_.resize(phase_base);
  }
  Account(c);
  return c.total();
}

bool RpcTransport::CallbackDropped(ServerId server, ClientId client, FileId file,
                                   bool flags_stale, SimTime t) {
  if (partition_count_ == 0 || client >= partitions_.size() ||
      server >= partitions_[client].size()) {
    return false;
  }
  for (const Outage& o : partitions_[client][server]) {
    if (t >= o.from && t < o.until) {
      if (stale_tracker_ != nullptr) {
        stale_tracker_->NoteDroppedCallback(client, server, file, flags_stale, t);
      }
      if (obs_ != nullptr && obs_->tracing_enabled()) {
        obs_->tracer().Emit("recovery.dropped-callback", "recovery.partition",
                            ServerTrack(server), t, 0,
                            {{"client", client}, {"file", static_cast<int64_t>(file)}});
      }
      return true;
    }
  }
  return false;
}

namespace {

// Server-side view of one registered client: forwards each consistency
// command after recording it as a callback RPC.
class CallbackStub final : public CacheControl {
 public:
  CallbackStub(RpcTransport* transport, ServerId server, ClientId client, CacheControl* target)
      : transport_(transport), server_(server), client_(client), target_(target) {}

  // A partition silently eats the callback: the server believes it told the
  // client, the client keeps serving its (now possibly stale) cache. A lost
  // dirty-data recall does not flag staleness — the client's copy is the
  // newest; the readers on the server side are the ones seeing old data.
  void RecallDirtyData(FileId file, SimTime now) override {
    if (Deliver(RpcKind::kRecallDirty, file, /*flags_stale=*/false, now)) {
      target_->RecallDirtyData(file, now);
    }
  }
  void DisableCaching(FileId file, SimTime now) override {
    if (Deliver(RpcKind::kCacheDisable, file, /*flags_stale=*/true, now)) {
      target_->DisableCaching(file, now);
    }
  }
  void DiscardFile(FileId file, SimTime now) override {
    if (Deliver(RpcKind::kDiscardFile, file, /*flags_stale=*/true, now)) {
      target_->DiscardFile(file, now);
    }
  }

 private:
  // Records the callback RPC unless a partition drops it; true when the
  // command reaches the client.
  bool Deliver(RpcKind kind, FileId file, bool flags_stale, SimTime now) {
    if (transport_->CallbackDropped(server_, client_, file, flags_stale, now)) {
      return false;
    }
    transport_->Call(kind, client_, server_, 0, now);
    return true;
  }

  RpcTransport* transport_;
  ServerId server_;
  ClientId client_;
  CacheControl* target_;
};

}  // namespace

CacheControl* RpcTransport::WrapCallbacks(ServerId server, ClientId client,
                                          CacheControl* target) {
  callback_stubs_.push_back(std::make_unique<CallbackStub>(this, server, client, target));
  return callback_stubs_.back().get();
}

// --- ServerStub --------------------------------------------------------------

Server::OpenReply ServerStub::Open(FileId file, OpenMode mode, bool is_directory, SimTime now) {
  // A home freshly migrated in holds new opens until its freeze window ends
  // (zero outside a rebalancing run, so the default path is untouched).
  const SimDuration stall = server_->MigrationStall(file, now);
  const SimDuration latency =
      stall +
      transport_->Call(RpcKind::kOpen, client_, server_->id(), kControlRpcBytes, now + stall);
  Server::OpenReply reply = server_->Open(client_, file, mode, is_directory, now);
  reply.latency = latency;
  // Replication: mirror the open registration to the backup before the reply
  // completes (directories take no part in the consistency machinery, so
  // there is no volatile state to shadow for them).
  if (standby_ != nullptr && !is_directory) {
    reply.latency += transport_->Call(RpcKind::kShadowOpen, client_, standby_->id(),
                                      kControlRpcBytes, now + reply.latency);
    standby_->ShadowOpen(client_, file, mode);
  }
  return reply;
}

Server::CloseReply ServerStub::Close(FileId file, OpenMode mode, bool wrote, int64_t final_size,
                                     SimTime now) {
  const SimDuration latency =
      transport_->Call(RpcKind::kClose, client_, server_->id(), kControlRpcBytes, now);
  Server::CloseReply reply = server_->Close(client_, file, mode, wrote, final_size, now);
  reply.latency = latency;
  // The standby is the oracle for whether this close needs mirroring: opens
  // it never saw (directories, opens predating shadowing) issue no shadow
  // RPC, so the shadow table never goes negative.
  if (standby_ != nullptr && standby_->HasShadowOpen(file, client_)) {
    reply.latency += transport_->Call(RpcKind::kShadowClose, client_, standby_->id(),
                                      kControlRpcBytes, now + reply.latency);
    standby_->ShadowClose(client_, file, mode, wrote);
  }
  return reply;
}

Server::ReopenReply ServerStub::Reopen(FileId file, OpenMode mode, uint64_t cached_version,
                                       bool has_dirty, bool has_handle, SimTime now) {
  // Reopen storms racing a migration wait out the freeze like fresh opens.
  const SimDuration stall = server_->MigrationStall(file, now);
  const SimDuration latency =
      stall +
      transport_->Call(RpcKind::kReopen, client_, server_->id(), kControlRpcBytes, now + stall);
  Server::ReopenReply reply =
      server_->Reopen(client_, file, mode, cached_version, has_dirty, has_handle, now);
  reply.latency = latency;
  // A successful handle re-registration is new volatile state on the (new)
  // primary and is shadowed like a fresh open; a reasserted last writer rides
  // along without a second RPC.
  if (standby_ != nullptr && reply.status == Status::kOk && has_handle) {
    reply.latency += transport_->Call(RpcKind::kShadowOpen, client_, standby_->id(),
                                      kControlRpcBytes, now + reply.latency);
    standby_->ShadowOpen(client_, file, mode);
    if (has_dirty) {
      standby_->ShadowLastWriter(file, client_);
    }
  }
  return reply;
}

SimDuration ServerStub::FetchBlock(FileId file, int64_t block, bool paging, SimTime now) {
  const SimDuration disk_time = server_->FetchBlock(file, block, paging, now);
  transport_->NoteDisk(disk_time);
  return disk_time + transport_->Call(paging ? RpcKind::kPageIn : RpcKind::kReadBlock, client_,
                                      server_->id(), kBlockSize, now);
}

SimDuration ServerStub::Writeback(FileId file, int64_t block, int64_t bytes, bool paging,
                                  SimTime now) {
  server_->Writeback(file, block, bytes, paging, now);
  SimDuration latency = transport_->Call(paging ? RpcKind::kPageOut : RpcKind::kWriteBlock,
                                         client_, server_->id(), bytes, now);
  // Replication: dirty bytes reach the backup's shadow before the writeback
  // completes, so a primary crash fails over without losing them.
  if (standby_ != nullptr) {
    latency +=
        transport_->Call(RpcKind::kShadowWrite, client_, standby_->id(), bytes, now + latency);
    standby_->ShadowWriteback(file, block, bytes);
  }
  return latency;
}

SimDuration ServerStub::PassThroughRead(FileId file, int64_t bytes, SimTime now) {
  const SimDuration disk_time = server_->PassThroughRead(file, bytes, now);
  transport_->NoteDisk(disk_time);
  return disk_time +
         transport_->Call(RpcKind::kUncachedRead, client_, server_->id(), bytes, now);
}

SimDuration ServerStub::PassThroughWrite(FileId file, int64_t bytes, SimTime now) {
  server_->PassThroughWrite(file, bytes, now);
  return transport_->Call(RpcKind::kUncachedWrite, client_, server_->id(), bytes, now);
}

SimDuration ServerStub::ReadDirectory(FileId dir, int64_t bytes, SimTime now) {
  server_->ReadDirectory(dir, bytes, now);
  return transport_->Call(RpcKind::kReadDir, client_, server_->id(), bytes, now);
}

void ServerStub::CreateFile(FileId file, bool is_directory, SimTime now) {
  transport_->Call(RpcKind::kCreate, client_, server_->id(), 0, now);
  server_->CreateFile(file, is_directory, now);
}

ServerStub::NameReply ServerStub::DeleteFile(FileId file, SimTime now) {
  const SimDuration latency =
      transport_->Call(RpcKind::kDelete, client_, server_->id(), 0, now);
  return NameReply{server_->DeleteFile(file, client_, now), latency};
}

ServerStub::NameReply ServerStub::TruncateFile(FileId file, SimTime now) {
  const SimDuration latency =
      transport_->Call(RpcKind::kTruncate, client_, server_->id(), 0, now);
  return NameReply{server_->TruncateFile(file, client_, now), latency};
}

bool ServerStub::FileExists(FileId file, SimTime now) {
  transport_->Call(RpcKind::kGetAttr, client_, server_->id(), 0, now);
  return server_->FileExists(file);
}

int64_t ServerStub::FileSize(FileId file, SimTime now) {
  transport_->Call(RpcKind::kGetAttr, client_, server_->id(), 0, now);
  return server_->FileSize(file);
}

// --- Ledger derivations ------------------------------------------------------

ServerCounters ServerTrafficFromLedger(const RpcLedger& ledger) {
  ServerCounters c;
  c.file_read_bytes = ledger.stat(RpcKind::kReadBlock).payload_bytes;
  c.file_write_bytes = ledger.stat(RpcKind::kWriteBlock).payload_bytes;
  c.shared_read_bytes = ledger.stat(RpcKind::kUncachedRead).payload_bytes;
  c.shared_write_bytes = ledger.stat(RpcKind::kUncachedWrite).payload_bytes;
  c.dir_read_bytes = ledger.stat(RpcKind::kReadDir).payload_bytes;
  c.paging_read_bytes = ledger.stat(RpcKind::kPageIn).payload_bytes;
  c.paging_write_bytes = ledger.stat(RpcKind::kPageOut).payload_bytes;
  return c;
}

RpcLedger ReplayTraceLedger(const TraceLog& trace, const NetworkConfig& net_config,
                            Observability* obs, SimDuration snapshot_interval) {
  const Network net(net_config);
  RpcLedger ledger;

  const bool metrics = obs != nullptr && obs->metrics_enabled();
  const bool tracing = obs != nullptr && obs->tracing_enabled();
  std::array<LatencyRecorder*, kRpcKindCount> recorders{};
  Counter* call_counter = nullptr;
  Counter* payload_counter = nullptr;
  if (metrics) {
    // The kinds the switch below issues, in enum order: a recorder for any
    // other kind would stay empty in every window.
    for (const RpcKind kind :
         {RpcKind::kOpen, RpcKind::kClose, RpcKind::kCreate, RpcKind::kDelete,
          RpcKind::kTruncate, RpcKind::kReadBlock, RpcKind::kWriteBlock, RpcKind::kUncachedRead,
          RpcKind::kUncachedWrite, RpcKind::kReadDir}) {
      recorders[static_cast<size_t>(kind)] =
          obs->metrics().AddLatency(std::string("rpc.") + RpcKindName(kind) + ".latency_us");
    }
    // Counters rather than ledger gauges: the ledger is a local that dies
    // with this call, and counters survive inside the registry.
    call_counter = obs->metrics().AddCounter("rpc.calls");
    payload_counter = obs->metrics().AddCounter("rpc.payload_bytes");
  }
  SimTime next_snapshot = 0;
  if (metrics && !trace.empty()) {
    // The first window opens at the first record, as a live run's opens at
    // the warm-up boundary; later boundaries fall on multiples of the
    // interval, where a live collector fires.
    obs->metrics().Reset(trace.front().time);
    if (snapshot_interval > 0) {
      next_snapshot = (trace.front().time / snapshot_interval + 1) * snapshot_interval;
    }
  }

  // `calls` reconstructed RPCs, each costing `per_call_net` (uniform within
  // one batch, so recorded latencies sum exactly to the ledger's net time).
  const auto add = [&](RpcKind kind, const Record& r, int64_t calls, int64_t payload,
                       SimDuration per_call_net) {
    const SimDuration net_time = calls * per_call_net;
    const auto charge = [&](RpcStat& s) {
      s.calls += calls;
      s.payload_bytes += payload;
      s.net_time += net_time;
    };
    charge(ledger.stat(kind));
    charge(ledger.by_client[r.client]);
    charge(ledger.by_server[r.server]);
    if (metrics) {
      for (int64_t i = 0; i < calls; ++i) {
        recorders[static_cast<size_t>(kind)]->Record(per_call_net);
      }
      call_counter->Add(calls);
      payload_counter->Add(payload);
    }
    if (tracing) {
      obs->tracer().Emit(RpcKindName(kind), "rpc.replay", ClientTrack(r.client), r.time,
                         net_time,
                         {{"server", r.server}, {"calls", calls}, {"bytes", payload}});
    }
  };

  // Byte runs reported by close/seek anchors become block transfers. Reads
  // fetch whole blocks; writes ship the actual bytes in block-sized RPCs.
  const auto add_runs = [&](const Record& r) {
    if (r.run_read_bytes > 0) {
      const int64_t blocks = BlocksForBytes(r.run_read_bytes);
      add(RpcKind::kReadBlock, r, blocks, blocks * kBlockSize, net.RpcTime(kBlockSize));
    }
    if (r.run_write_bytes > 0) {
      const int64_t full = r.run_write_bytes / kBlockSize;
      const int64_t rest = r.run_write_bytes % kBlockSize;
      if (full > 0) {
        add(RpcKind::kWriteBlock, r, full, full * kBlockSize, net.RpcTime(kBlockSize));
      }
      if (rest > 0) {
        add(RpcKind::kWriteBlock, r, 1, rest, net.RpcTime(rest));
      }
    }
  };

  for (const Record& r : trace) {
    if (next_snapshot > 0) {
      while (r.time >= next_snapshot) {
        obs->metrics().Capture(next_snapshot);
        next_snapshot += snapshot_interval;
      }
    }
    switch (r.kind) {
      case RecordKind::kOpen:
        add(RpcKind::kOpen, r, 1, kControlRpcBytes, net.RpcTime(kControlRpcBytes));
        break;
      case RecordKind::kClose:
        add(RpcKind::kClose, r, 1, kControlRpcBytes, net.RpcTime(kControlRpcBytes));
        add_runs(r);
        break;
      case RecordKind::kSeek:
        add_runs(r);
        break;
      case RecordKind::kCreate:
        add(RpcKind::kCreate, r, 1, 0, 0);
        break;
      case RecordKind::kDelete:
        add(RpcKind::kDelete, r, 1, 0, 0);
        break;
      case RecordKind::kTruncate:
        add(RpcKind::kTruncate, r, 1, 0, 0);
        break;
      case RecordKind::kDirRead:
        add(RpcKind::kReadDir, r, 1, r.io_bytes, net.RpcTime(r.io_bytes));
        break;
      case RecordKind::kSharedRead:
        add(RpcKind::kUncachedRead, r, 1, r.io_bytes, net.RpcTime(r.io_bytes));
        break;
      case RecordKind::kSharedWrite:
        add(RpcKind::kUncachedWrite, r, 1, r.io_bytes, net.RpcTime(r.io_bytes));
        break;
      case RecordKind::kMigrate:
      case RecordKind::kFsync:
        break;  // no data RPC of their own
    }
  }
  if (metrics && !trace.empty()) {
    obs->metrics().Capture(trace.back().time, /*final_partial=*/true);
  }
  return ledger;
}

std::string FormatRpcLedger(const RpcLedger& ledger) {
  const auto fmt = [](double v, const char* suffix) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f%s", v, suffix);
    return std::string(buf);
  };

  // Queue/service columns exist only for async-transport ledgers, keeping
  // sync-mode output byte-identical (same conditional-rendering rule as the
  // per-epoch lines below).
  std::vector<std::string> headers = {"Kind", "Calls", "Payload (KB)", "Net (ms)",
                                      "Wait (ms)"};
  if (ledger.async) {
    headers.push_back("Queue (ms)");
    headers.push_back("Service (ms)");
  }
  headers.push_back("Retries");
  headers.push_back("Timeouts");
  TextTable table(std::move(headers));
  for (int k = 0; k < kRpcKindCount; ++k) {
    const RpcStat& s = ledger.by_kind[static_cast<size_t>(k)];
    if (s.calls == 0) {
      continue;
    }
    std::vector<std::string> row = {RpcKindName(static_cast<RpcKind>(k)),
                                    std::to_string(s.calls),
                                    fmt(static_cast<double>(s.payload_bytes) / 1024.0, ""),
                                    fmt(static_cast<double>(s.net_time) / 1000.0, ""),
                                    fmt(static_cast<double>(s.wait_time) / 1000.0, "")};
    if (ledger.async) {
      row.push_back(fmt(static_cast<double>(s.queue_time) / 1000.0, ""));
      row.push_back(fmt(static_cast<double>(s.service_time) / 1000.0, ""));
    }
    row.push_back(std::to_string(s.retries));
    row.push_back(std::to_string(s.timeouts));
    table.AddRow(std::move(row));
  }
  table.AddSeparator();
  std::vector<std::string> total_row = {
      "total", std::to_string(ledger.TotalCalls()),
      fmt(static_cast<double>(ledger.TotalPayloadBytes()) / 1024.0, ""), "", ""};
  if (ledger.async) {
    total_row.push_back("");
    total_row.push_back("");
  }
  total_row.push_back("");
  total_row.push_back("");
  table.AddRow(std::move(total_row));

  std::string out = table.Render();
  for (const auto& [server, s] : ledger.by_server) {
    out += "server " + std::to_string(server) + ": " + std::to_string(s.calls) + " RPCs, " +
           fmt(static_cast<double>(s.payload_bytes) / (1024.0 * 1024.0), " MB");
    if (ledger.async) {
      out += ", queue " + fmt(static_cast<double>(s.queue_time) / 1000.0, " ms");
    }
    out += "\n";
  }
  // Per-epoch retry breakdown, present only once a server crash has been
  // injected (fault-free output is unchanged).
  for (const auto& [epoch, s] : ledger.by_epoch) {
    out += "epoch " + std::to_string(epoch) + ": " + std::to_string(s.calls) + " RPCs, " +
           std::to_string(s.retries) + " retries, " + std::to_string(s.timeouts) +
           " timeouts, " + std::to_string(s.blocked_waits) + " blocked waits\n";
  }
  // Honest-wire footer, present only when the wire model ran (default runs
  // never set these, keeping the committed ledgers unchanged).
  if (ledger.piggybacked_ops > 0 || ledger.charged_control_ops > 0 ||
      ledger.batched_ops > 0 || ledger.batches > 0) {
    out += "wire: " + std::to_string(ledger.piggybacked_ops) + " piggybacked, " +
           std::to_string(ledger.charged_control_ops) + " charged control, " +
           std::to_string(ledger.batched_ops) + " batched ops in " +
           std::to_string(ledger.batches) + " batches\n";
  }
  return out;
}

std::string FormatRpcLatencySummary(const MetricsRegistry& metrics) {
  TextTable table({"Kind", "Calls", "Total (ms)", "p50 (us)", "p90 (us)", "p99 (us)"});
  int64_t total_calls = 0;
  SimDuration total_time = 0;
  for (int k = 0; k < kRpcKindCount; ++k) {
    const char* name = RpcKindName(static_cast<RpcKind>(k));
    const LatencyRecorder* rec =
        metrics.FindLatency(std::string("rpc.") + name + ".latency_us");
    if (rec == nullptr || rec->count() == 0) {
      continue;
    }
    char total_ms[64];
    std::snprintf(total_ms, sizeof(total_ms), "%.1f",
                  static_cast<double>(rec->total()) / 1000.0);
    table.AddRow({name, std::to_string(rec->count()), total_ms,
                  std::to_string(rec->Quantile(0.50)), std::to_string(rec->Quantile(0.90)),
                  std::to_string(rec->Quantile(0.99))});
    total_calls += rec->count();
    total_time += rec->total();
  }
  table.AddSeparator();
  char total_ms[64];
  std::snprintf(total_ms, sizeof(total_ms), "%.1f", static_cast<double>(total_time) / 1000.0);
  table.AddRow({"total", std::to_string(total_calls), total_ms, "", "", ""});
  return table.Render();
}

std::string FormatCriticalPath(const CriticalPathCollector& cp, const RpcLedger& ledger) {
  const auto ms = [](SimDuration v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(v) / 1000.0);
    return std::string(buf);
  };
  TextTable table({"Op", "Ops", "E2E (ms)", "Wait (ms)", "Wire (ms)", "Queue (ms)",
                   "Service (ms)", "Disk (ms)", "Other (ms)", "RPCs", "Cbs"});
  for (int k = 0; k < kOpKindCount; ++k) {
    const CriticalPathCollector::PhaseTotals& t = cp.totals(static_cast<OpKind>(k));
    if (t.ops == 0 && t.rpcs == 0) {
      continue;
    }
    table.AddRow({OpKindName(static_cast<OpKind>(k)), std::to_string(t.ops), ms(t.e2e),
                  ms(t.rpc_wait), ms(t.wire), ms(t.queue), ms(t.service), ms(t.disk),
                  ms(t.e2e - t.attributed()), std::to_string(t.rpcs),
                  std::to_string(t.callbacks)});
  }
  table.AddSeparator();
  const CriticalPathCollector::PhaseTotals sum = cp.Sum();
  table.AddRow({"total", std::to_string(sum.ops), ms(sum.e2e), ms(sum.rpc_wait),
                ms(sum.wire), ms(sum.queue), ms(sum.service), ms(sum.disk),
                ms(sum.e2e - sum.attributed()), std::to_string(sum.rpcs),
                std::to_string(sum.callbacks)});
  std::string out = table.Render();
  out +=
      "other = e2e minus attributed phases; negative means overlapped work\n"
      "(readahead, delayed writebacks) charged to the op but not its latency\n";

  // Cross-check against the RPC ledger: both sides are charged once per
  // Call with the same values, so every line must say OK.
  int64_t calls = 0;
  int64_t callback_calls = 0;
  SimDuration net = 0;
  SimDuration wait = 0;
  SimDuration queue = 0;
  SimDuration service = 0;
  for (int k = 0; k < kRpcKindCount; ++k) {
    const RpcStat& s = ledger.by_kind[static_cast<size_t>(k)];
    calls += s.calls;
    if (kRpcKinds[static_cast<size_t>(k)].callback()) {
      callback_calls += s.calls;
    }
    net += s.net_time;
    wait += s.wait_time;
    queue += s.queue_time;
    service += s.service_time;
  }
  const auto check = [&out](const char* label, long long got, long long want) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "reconcile %s: %lld vs ledger %lld %s\n", label, got,
                  want, got == want ? "OK" : "MISMATCH");
    out += buf;
  };
  check("rpcs", sum.rpcs, calls);
  check("callbacks", sum.callbacks, callback_calls);
  check("wait_us", sum.rpc_wait, wait);
  check("wire_us", sum.wire, net);
  check("queue_us", sum.queue, queue);
  check("service_us", sum.service, service);
  return out;
}

}  // namespace sprite
