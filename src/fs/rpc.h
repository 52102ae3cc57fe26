// Typed RPC transport between clients and servers.
//
// Every client->server request and every server->client consistency
// callback is a typed message (RpcKind) dispatched through one RpcTransport
// per cluster. The transport owns the Network model and is the single place
// where network accounting happens: it keeps a per-kind ledger (calls,
// payload bytes, net latency) with per-client and per-server breakdowns
// (RpcLedger in counters.h).
//
// Each kind's row in kRpcKinds (counters.h) says what it costs, chosen to
// match what Sprite's wire protocol actually transfers. Kinds with a
// service lane (open/close/block fetch/writeback/pass-through/paging/
// directory reads) occupy the Ethernet and their latency is returned to the
// caller. Lane-less kinds (create/delete/truncate/getattr and the
// consistency callbacks) are counted but, by default, cost no simulated
// time — in real Sprite these piggyback on other messages or overlap with
// the operations that triggered them.
//
// Call runs one pipeline of stages that fill a single CallCharge:
// reachability (fault timeouts and backoff, epoch handshake, grace wait),
// wire policy (ride free, piggyback, pay an own exchange, or defer into the
// pair's batch), Exchange (one Network transfer with its link recorder and
// net.queued span), Serve (async admission to the server's service queue),
// and Account, which books the charge to the latency recorder, the critical
// path and all four ledger rows. A batch flush reuses Exchange, Serve and
// Account, so the ledger and the critical path reconcile by construction.
// Inline integer compares skip every stage that has nothing to do.
//
// Honest wire (RpcConfig::honest_wire / batching, both default off): the
// piggybacking above becomes explicit instead of assumed. With honest_wire,
// a lane-less kind issued within piggyback_window of the end of the last
// wire exchange on its (client, server) pair rides it for free
// (ledger.piggybacked_ops); one that cannot pays a full kControlRpcBytes
// exchange of its own (ledger.charged_control_ops). With batching, the
// batchable kinds (lane-less kinds and the replication kShadow* stream)
// instead defer their wire exchange into a per-pair batch that flushes as a
// single kBatch exchange when it fills (batch_max_ops), ages out
// (batch_window, checked lazily on the next batched op), or hits a
// measurement boundary (FlushAllWire, wired by the Cluster). Member RPCs
// keep their fault handling, epoch handshake, and ledger rows with net = 0;
// the kBatch row carries the flush's wire and queue/service time.
// Deviations from real piggybacking are deliberate: the window trails the
// last exchange (a synchronous simulator cannot hold an RPC for a future
// carrier), and a batch's members complete logically before their bytes
// move (fire-and-forget control stream) — see DESIGN.md.
//
// Fault injection: a server can be marked unavailable for an interval.
// While it is down, client requests time out (RpcConfig.timeout per
// attempt) and retry with bounded exponential backoff; when the retry
// budget is exhausted the stub blocks until the outage ends, matching
// Sprite's recover-and-continue semantics. All waits, retries, and
// timeouts are recorded in the ledger, and everything is deterministic.
//
// Completion modes: by default (RpcConfig::async == false) Call is fully
// synchronous — the caller absorbs the returned latency inline and server
// queueing is structurally zero, which keeps the paper tables byte-exact.
// With RpcConfig::async, a request that pays its own exchange and has a
// service lane is admitted into its server's FIFO service queue
// (Server::AdmitRequest): it arrives after its wire time, waits behind the
// requests ahead of it, and holds the lane for its kind's service time, so
// concurrent RPCs genuinely overlap and a loaded server accumulates
// measurable queueing delay ("server.N.queue_us" recorders,
// "server.N.queue_depth" gauges, "rpc.queued" spans). Admission schedules
// no event: the server counts its live depth from its admitted visits when
// the gauge is read. Reopen traffic during a crashed server's grace window
// jumps the queue but still occupies the lane, so post-grace traffic backs
// up behind the storm.

#ifndef SPRITE_DFS_SRC_FS_RPC_H_
#define SPRITE_DFS_SRC_FS_RPC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/counters.h"
#include "src/fs/net.h"
#include "src/fs/recovery.h"
#include "src/fs/server.h"
#include "src/fs/types.h"
#include "src/obs/observability.h"
#include "src/trace/record.h"

namespace sprite {

// Small control RPC payload (open/close messages).
inline constexpr int64_t kControlRpcBytes = 128;

class RpcTransport {
 public:
  // In-process transport: zero latency, no Network model, but every call is
  // still recorded in the ledger. Unit-test harnesses use this.
  RpcTransport() = default;
  // Cluster transport: owns the Ethernet model and charges it for every
  // wire-occupying kind.
  explicit RpcTransport(const NetworkConfig& net_config, const RpcConfig& rpc_config = {});

  // Records one RPC of `kind` between `client` and `server` carrying
  // `payload_bytes`, and returns the simulated latency the caller must
  // absorb (network time plus any fault-injection waits; zero for
  // ledger-only kinds on a healthy server).
  SimDuration Call(RpcKind kind, ClientId client, ServerId server, int64_t payload_bytes,
                   SimTime now);

  // Declares how many servers the owning cluster has. Once set,
  // RegisterServer validates ids against it (and the per-link contention
  // recorders know how many links to register). Bare test harnesses that
  // never call this keep the permissive grow-on-demand behavior.
  void SetExpectedServers(int count) { expected_servers_ = count; }
  // Registers the server object behind `id` so async admission can reach
  // its service queue (wired by the Cluster; harmless in sync mode), and its
  // link-queueing recorder when the network runs contended with metrics on
  // (servers added after AttachObservability get theirs here). Throws
  // std::invalid_argument when SetExpectedServers was called and `id` is
  // out of range — a silent resize here used to mask misrouted ids.
  void RegisterServer(ServerId id, Server* server);

  // Flushes every pending per-(client, server) wire batch as kBatch
  // exchanges at `now` (no-op unless batching deferred something). The
  // Cluster calls this at measurement boundaries — before the warmup ledger
  // reset and at end of run — so deferred bytes are never silently dropped.
  void FlushAllWire(SimTime now);

  // The exact per-attempt retry backoff: backoff_initial doubled `attempt`
  // times, saturating at backoff_max (never overshooting it). Exposed for
  // the backoff regression tests.
  static SimDuration BackoffForAttempt(const RpcConfig& config, int attempt);
  // The backoff Call() actually waits: BackoffForAttempt plus a
  // deterministic per-(client, attempt) jitter in [0, base/4], seeded by
  // splitmix64, so clients retrying after the same outage de-synchronize
  // instead of thundering in lockstep. Same inputs always give the same
  // jitter; the exact sequences are pinned by tests.
  static SimDuration JitteredBackoffForAttempt(const RpcConfig& config, ClientId client,
                                               int attempt);

  // Wraps a client's CacheControl so the server's consistency callbacks are
  // recorded as kRecallDirty/kCacheDisable/... RPCs. The returned object is
  // owned by the transport and lives as long as it does.
  CacheControl* WrapCallbacks(ServerId server, ClientId client, CacheControl* target);

  const RpcLedger& ledger() const { return ledger_; }
  void ResetLedger() {
    ledger_ = RpcLedger{};
    ledger_.async = config_.async;
  }

  // Attaches the cluster's observability sink (null detaches). With metrics
  // enabled this registers one "rpc.<kind>.latency_us" recorder per kind
  // plus "rpc.calls" / "rpc.payload_bytes" gauges over the ledger; with
  // tracing enabled every Call() emits spans for the full RPC lifecycle
  // (issue, per-attempt timeout/backoff, blocked recovery wait, wire time);
  // with critical-path attribution enabled every Call() charges its phase
  // times to the innermost op frame (CriticalPathCollector).
  void AttachObservability(Observability* obs);

  // Wired by the Cluster before AttachObservability when primary/backup
  // replication is on: the kShadow* latency recorders are registered only
  // then, so replication-off metric streams are unchanged line for line.
  void SetReplicationEnabled(bool enabled) { replication_enabled_ = enabled; }

  // Same contract for live rebalancing: the kMigrate* latency recorders
  // exist only when the cluster can issue migrations, so rebalance-off
  // metric streams are unchanged line for line.
  void SetRebalanceEnabled(bool enabled) { rebalance_enabled_ = enabled; }

  // Charges server disk time folded synchronously into a reply to the
  // current op frame (no-op unless critical-path attribution is attached).
  void NoteDisk(SimDuration disk) {
    if (critical_path_ != nullptr) {
      critical_path_->AddDisk(disk);
    }
  }

  // Null for the in-process transport.
  const Network* network() const { return network_.get(); }
  const RpcConfig& config() const { return config_; }

  // --- Fault injection -------------------------------------------------------
  // All fault intervals are half-open [from, until): a request issued
  // exactly at `until` sees a healthy server and pays nothing.
  //
  // Marks `server` unreachable for [from, until). Client requests issued in
  // that window pay timeouts/backoff per RpcConfig; callbacks are not
  // delayed (a down server issues none). The server's state is untouched —
  // use ScheduleServerCrash for reboots that lose volatile state.
  void SetServerUnavailable(ServerId server, SimTime from, SimTime until);
  // A crash outage: the server is unreachable for [from, until), reboots
  // into epoch `new_epoch` at `until`, and serves only kReopen traffic
  // during the grace window [until, until + config.recovery_grace). The
  // first response a client sees from the rebooted server carries the new
  // epoch; the client's registered reopen handler runs before the request
  // that detected the restart proceeds.
  void ScheduleServerCrash(ServerId server, SimTime from, SimTime until, uint64_t new_epoch);
  // Asymmetric partition: requests from `client` to `server` behave as if
  // the server were down for [from, until) while other clients proceed
  // normally; callbacks from `server` to `client` in that window are
  // DROPPED (recorded in the stale tracker), so the client's cache silently
  // goes stale.
  void SetPartition(ClientId client, ServerId server, SimTime from, SimTime until);

  // Runs a client's reopen storm against one rebooted server; returns the
  // simulated duration of the storm (Client::ReplayOpens, registered by the
  // Cluster).
  using ReopenHandler = std::function<SimDuration(ServerId server, SimTime now)>;
  void SetReopenHandler(ClientId client, ReopenHandler handler) {
    if (client >= reopen_handlers_.size()) {
      reopen_handlers_.resize(client + 1);
    }
    reopen_handlers_[client] = std::move(handler);
  }
  // Sink for dropped-callback accounting during partitions (may be null).
  void SetStaleTracker(StaleDataTracker* tracker) { stale_tracker_ = tracker; }

  // True when a callback from `server` to `client` at `t` is lost to a
  // partition (used by the callback stubs).
  bool CallbackDropped(ServerId server, ClientId client, FileId file, bool flags_stale,
                       SimTime t);

 private:
  struct Outage {
    SimTime from = 0;
    SimTime until = 0;
    // Crash outages only: end of the reopen-only grace window (== until for
    // plain unavailability and partitions).
    SimTime grace_until = 0;
  };

  // Unreachability check for a client request: scans server outages and the
  // (client, server) partition windows; `*recovery` is the time the request
  // can first get ANY response (reboot or heal), the failure detector's
  // horizon.
  bool Unreachable(ServerId server, ClientId client, SimTime t, SimTime* recovery) const;
  // End of the reopen-only grace window containing `t`, or `t` itself when
  // the server is serving normally.
  SimTime GraceUntil(ServerId server, SimTime t) const;
  // Epoch handshake: if `client` has not yet seen `server`'s current epoch,
  // marks it seen and runs the client's reopen storm. Returns the storm's
  // duration (0 when the client is current).
  SimDuration SyncEpoch(ClientId client, ServerId server, SimTime t);

  // --- Honest-wire state (per (client, server) pair) -------------------------
  struct WireBatch {
    int64_t ops = 0;
    int64_t bytes = 0;
    SimTime started = 0;  // issue time of the first deferred op
  };
  struct PairWire {
    bool has_exchange = false;     // any wire exchange yet on this pair
    SimTime last_exchange_end = 0;  // end of the most recent one
    WireBatch batch;
  };
  PairWire& PairState(ClientId client, ServerId server);
  // Flushes the pair's pending batch as one kBatch wire exchange at `now`
  // and returns the latency the triggering caller absorbs (0 if empty).
  SimDuration FlushBatch(ClientId client, ServerId server, SimTime now);

  // --- Call pipeline stages ----------------------------------------------------
  // Everything one RPC (or one batch flush) costs, filled by the stages and
  // booked once by Account. The constructor sets each member on its own:
  // aggregate initialization compiled to a block clear of all 88 bytes
  // that made BM_TransportCall/free about a quarter slower.
  struct CallCharge {
    CallCharge(RpcKind k, ClientId c, ServerId s, int64_t payload = 0)
        : kind(k), client(c), server(s), payload_bytes(payload) {}
    RpcKind kind;
    ClientId client;
    ServerId server;
    int64_t payload_bytes;
    SimDuration wait = 0;        // timeouts, backoff, reopen storm, grace wait
    SimDuration flush_wait = 0;  // a batch flush this call paid (booked on kBatch)
    SimDuration net = 0;
    SimDuration queue = 0;
    SimDuration service = 0;
    int64_t retries = 0;
    int64_t timeouts = 0;
    int64_t blocked_waits = 0;
    SimDuration total() const { return wait + flush_wait + net + queue + service; }
  };
  // Reachability: waits out outages and partitions (timeouts, backoff,
  // blocked wait), then runs the epoch handshake and the grace wait.
  void Reach(CallCharge& c, SimTime now);
  // Wire policy under honest_wire/batching: defers a batchable kind into
  // the pair's batch (absorbing any flush it triggers), lets a lane-less
  // kind piggyback, or charges it a control exchange. True when the call
  // pays an exchange of its own.
  bool WirePolicy(const RpcKindInfo& info, CallCharge& c, PairWire& pw, SimTime t);
  // One wire exchange on the Network, feeding the link recorder and the
  // net.queued span; returns its latency.
  SimDuration Exchange(RpcKind kind, ClientId client, ServerId server, int64_t bytes,
                       SimTime start);
  // Async admission to the server's service queue at `arrival`.
  void Serve(CallCharge& c, SimTime arrival);
  // Books `c` to the latency recorder, the critical path and the ledger.
  void Account(const CallCharge& c);
  // Queues one sub-phase span of the current call (no-op unless tracing).
  void Phase(ClientId client, const char* name, SimTime start, SimDuration duration);
  // Registers "net.link.<s>.queued_us" for every server below `servers`
  // (contended network with metrics on only).
  void AddLinkRecorders(size_t servers);

  std::unique_ptr<Network> network_;
  RpcConfig config_;
  RpcLedger ledger_;
  // Fault/recovery tables, all dense and indexed directly by the small
  // contiguous client/server ids (the std::map versions put a tree walk on
  // every Call). Presence lives in the counters/flags next to each table,
  // so the fault-free fast path is an integer compare.
  std::vector<std::vector<Outage>> outages_;  // [server]
  std::vector<std::vector<std::vector<Outage>>> partitions_;  // [client][server]
  size_t outage_count_ = 0;     // injected outage windows across all servers
  size_t partition_count_ = 0;  // injected partition windows across all pairs
  // Crashed servers' current epochs; epoch_set_[s] == 0 means server `s`
  // never crashed (still in epoch 1, the fault-free fast path).
  std::vector<uint64_t> server_epochs_;  // [server]
  std::vector<uint8_t> epoch_set_;       // [server]
  bool has_epochs_ = false;  // any crash ever scheduled (ledger gains by_epoch)
  // Last epoch each client observed from each crashed server.
  std::vector<std::vector<uint64_t>> seen_epochs_;  // [client][server]
  std::vector<ReopenHandler> reopen_handlers_;      // [client]
  // Async mode: the server objects whose service queues admit requests
  // (wired by the Cluster).
  std::vector<Server*> servers_;  // [server]
  // Cluster server count (0 = unset: bare harness, no validation).
  int expected_servers_ = 0;
  // Honest-wire piggyback/batch state, lazily sized like the fault tables.
  std::vector<std::vector<PairWire>> pair_wire_;  // [client][server]
  StaleDataTracker* stale_tracker_ = nullptr;
  std::vector<std::unique_ptr<CacheControl>> callback_stubs_;
  bool replication_enabled_ = false;
  bool rebalance_enabled_ = false;
  Observability* obs_ = nullptr;
  // Op-frame phase attribution, resolved once at attach time (null unless
  // ObservabilityConfig::critical_path).
  CriticalPathCollector* critical_path_ = nullptr;
  // Per-kind latency recorders, resolved once at attach time.
  std::array<LatencyRecorder*, kRpcKindCount> latency_rec_{};
  // Per-server link-queueing recorders ("net.link.N.queued_us"), registered
  // only when the network runs contended.
  std::vector<LatencyRecorder*> link_rec_;
  // Scratch for the sub-phase spans Call() gathers while tracing, reused
  // across calls instead of reallocated. Call() can recurse (SyncEpoch runs
  // the reopen storm, whose kReopen calls re-enter Call), so each
  // invocation works on the suffix starting at its recorded base index and
  // truncates back to it after emitting.
  std::vector<Span> span_scratch_;
};

// Client-side stub for one (client, server) pair: mirrors the Server API but
// routes every operation through the transport, merging the RPC latency into
// the reply. Clients hold these by value via their router; the referenced
// server and transport must outlive the call.
class ServerStub {
 public:
  // `standby` is the file's backup server when primary/backup replication
  // shadows this home (null otherwise — the default keeps every existing
  // call site and the replication-off fast path unchanged). With a standby,
  // opens/closes/reopens/writebacks additionally issue a kShadow* RPC to it
  // and mirror the volatile state, so shadowing costs real wire/queue time.
  ServerStub(ClientId client, Server& server, RpcTransport& transport,
             Server* standby = nullptr)
      : client_(client), server_(&server), transport_(&transport), standby_(standby) {}

  ServerId id() const { return server_->id(); }

  Server::OpenReply Open(FileId file, OpenMode mode, bool is_directory, SimTime now);
  Server::CloseReply Close(FileId file, OpenMode mode, bool wrote, int64_t final_size,
                           SimTime now);
  // Crash recovery: re-register an open handle (or a closed dirty file when
  // `has_handle` is false) with a rebooted server.
  Server::ReopenReply Reopen(FileId file, OpenMode mode, uint64_t cached_version, bool has_dirty,
                             bool has_handle, SimTime now);

  SimDuration FetchBlock(FileId file, int64_t block, bool paging, SimTime now);
  SimDuration Writeback(FileId file, int64_t block, int64_t bytes, bool paging, SimTime now);
  SimDuration PassThroughRead(FileId file, int64_t bytes, SimTime now);
  SimDuration PassThroughWrite(FileId file, int64_t bytes, SimTime now);
  SimDuration ReadDirectory(FileId dir, int64_t bytes, SimTime now);

  struct NameReply {
    int64_t size = 0;
    SimDuration latency = 0;
  };
  void CreateFile(FileId file, bool is_directory, SimTime now);
  NameReply DeleteFile(FileId file, SimTime now);
  NameReply TruncateFile(FileId file, SimTime now);
  bool FileExists(FileId file, SimTime now);
  int64_t FileSize(FileId file, SimTime now);

 private:
  ClientId client_;
  Server* server_;
  RpcTransport* transport_;
  Server* standby_ = nullptr;  // backup shadowing this home, or null
};

// Table 7 input: the per-server byte counters implied by the ledger (the
// open/sharing counters stay with the Server, which owns that semantics).
ServerCounters ServerTrafficFromLedger(const RpcLedger& ledger);

// Reconstructs an RPC ledger from a kernel-call trace, the way TraceTracker
// rebuilds I/O from logs: opens/closes cost one control RPC each, the byte
// runs they report become whole-block fetches and writebacks, and
// pass-through/directory records map directly. Client caching is invisible
// in a trace, so the read traffic is an upper bound (as if every block
// missed). Net latency uses `net_config` without touching any live Network.
//
// When `obs` is non-null the replay also feeds it: per-kind latency
// recorders (one Record per reconstructed call) and, with tracing enabled,
// one span per record-level RPC batch at the record's timestamp. With
// metrics enabled the replay resets the registry at the first record, so
// the first window starts there, captures a window at every multiple of
// `snapshot_interval` (when > 0) of trace time, mimicking the live
// collector daemon, and a final_partial window at the last record's time,
// so the windows' deltas cover every replayed call.
// Paging RPCs never appear in kernel-call traces, so the replay registers
// recorders and emits spans only for the trace-visible kinds; use a live
// run for full coverage.
RpcLedger ReplayTraceLedger(const TraceLog& trace, const NetworkConfig& net_config = {},
                            Observability* obs = nullptr, SimDuration snapshot_interval = 0);

// Renders the per-kind RPC latency percentiles recorded in `metrics` (the
// "rpc.<kind>.latency_us" recorders) as a text table. Totals are exact
// sums, so they can be cross-checked against the ledger's net+wait time.
std::string FormatRpcLatencySummary(const MetricsRegistry& metrics);

// Renders the ledger as a text table (per-kind rows with calls, payload,
// net/wait time, retries and timeouts, then per-server totals). Ledgers
// from an async transport additionally render queue/service-time columns
// and per-server queue wait; sync-mode output is unchanged.
std::string FormatRpcLedger(const RpcLedger& ledger);

// Renders the critical-path breakdown (per-op-kind phase table plus a
// reconciliation footer cross-checking the collector's phase grand totals
// against the ledger's wait/net/queue/service columns — they must match
// exactly, since both are charged from the same RpcTransport::Call site).
std::string FormatCriticalPath(const CriticalPathCollector& cp, const RpcLedger& ledger);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_RPC_H_
