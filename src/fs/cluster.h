// The simulated Sprite cluster: N diskless clients, M file servers, one
// shared Ethernet, kernel daemons, and the instrumentation that the paper's
// measurements ran on (server-side tracing and per-client kernel counters).
//
// This is the main entry point of the fs library:
//
//   EventQueue queue;
//   Cluster cluster(ClusterConfig{}, queue);
//   cluster.StartDaemons();
//   auto open = cluster.client(0).Open(user, file, OpenMode::kRead,
//                                      /*append=*/false, /*migrated=*/false,
//                                      queue.now());
//   ...
//   queue.RunAll();
//   TraceLog trace = cluster.TakeTrace();

#ifndef SPRITE_DFS_SRC_FS_CLUSTER_H_
#define SPRITE_DFS_SRC_FS_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/client.h"
#include "src/fs/config.h"
#include "src/fs/net.h"
#include "src/fs/placement.h"
#include "src/fs/rebalance.h"
#include "src/fs/recovery.h"
#include "src/fs/rpc.h"
#include "src/fs/server.h"
#include "src/obs/hotspot.h"
#include "src/sim/event_queue.h"
#include "src/trace/record.h"

namespace sprite {

class Cluster : private RebalanceHost {
 public:
  // One cache-size observation (input to Table 4).
  struct CacheSizeSample {
    SimTime time = 0;
    ClientId client = 0;
    int64_t cache_bytes = 0;
  };

  Cluster(const ClusterConfig& config, EventQueue& queue);

  // Starts the kernel daemons: per-client and per-server dirty-block
  // cleaners (every cleaner_period, staggered), and the counter collector
  // sampling each client's cache size every `sample_period`.
  void StartDaemons(SimDuration sample_period = kMinute);

  Client& client(ClientId id) { return *clients_.at(id); }
  const Client& client(ClientId id) const { return *clients_.at(id); }
  Server& server(ServerId id) { return *servers_.at(id); }
  const Server& server(ServerId id) const { return *servers_.at(id); }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  EventQueue& queue() { return queue_; }
  const ClusterConfig& config() const { return config_; }
  // All client<->server traffic flows through one typed RPC transport; its
  // ledger feeds the Table 7 / Table 12 server-traffic rows.
  RpcTransport& transport() { return *transport_; }
  const RpcTransport& transport() const { return *transport_; }
  const RpcLedger& rpc_ledger() const { return transport_->ledger(); }
  const Network& network() const { return *transport_->network(); }

  // Metrics registry + span tracer; null unless config.observability enables
  // one of them. All components share this one sink.
  Observability* observability() { return obs_.get(); }
  const Observability* observability() const { return obs_.get(); }

  // Captures one metrics window (MetricsRegistry::Capture) and feeds the
  // hot-spot detector the per-server signals from it. No-op when metrics
  // are disabled. Called by the collector daemon on its period and by
  // FinalizeObservability for the trailing partial window.
  void CaptureMetricsWindow(SimTime now, bool final_partial = false);

  // End-of-run hook: captures the final partial window if the run length was
  // not a multiple of the snapshot interval (the exact-multiple boundary
  // window has already fired from the daemon), then closes any hot-spot
  // episode still open. Safe to call when observability is off.
  void FinalizeObservability();

  // Drains any wire batches the honest-wire layer is still holding
  // (RpcConfig::batching) as kBatch exchanges at the current sim time.
  // Called at end of run before the tables are read; no-op otherwise.
  void FlushWire();

  // Hot-spot detector over the windowed series; null unless metrics and
  // config.observability.hotspot are both enabled.
  const HotspotDetector* hotspot() const { return hotspot_.get(); }

  // Renders the detector's episode report (sprite_analyze --hotspot-report).
  std::string HotspotReport() const;

  // --- Live rebalancing (config.rebalance; DESIGN.md §11) -------------------
  // Null unless RebalanceConfig::enabled: with it off, no rebalance object,
  // no kMigrate* instruments, and every committed baseline is byte-identical.
  const Rebalancer* rebalancer() const { return rebalancer_.get(); }
  // Renders the migration/burst summary (sprite_analyze --rebalance).
  std::string RebalanceReport() const;

  // Live resize: adds one server at the queue's current time, fully wired
  // (service queue, observability, callbacks, cleaner daemon), then runs the
  // bounded-movement steal — only ~1/(live+1) of each existing server's
  // files migrate to the newcomer, through the charged migration protocol.
  // Under replication the newcomer joins the standby ring after its ring
  // predecessor, every standby is re-picked, and every live slot's shadow is
  // rebuilt from its active. Returns the new id. Throws std::logic_error
  // when rebalancing is off.
  ServerId AddServer();
  // Retires `server`: it stops being a routing target and a migration
  // destination, every file homed there is evacuated (charged migrations)
  // into the surviving live set, and any slot it had taken over in a
  // fail-over goes back to the first live server at or after the slot.
  // Standbys and shadows are re-picked and rebuilt as for AddServer. The
  // retired server object remains registered so in-flight references stay
  // valid, but nothing routes to it afterward. Same precondition as
  // AddServer; also throws when the server is unknown or already retired,
  // or when it would empty the live set (leave fewer than two live servers
  // under replication).
  void RetireServer(ServerId server);

  // Operator-forced drain: runs one hot-spot migration burst off `server`
  // exactly as if the detector had opened an episode there at `now` (same
  // victim selection, caps, budget, and charged protocol). Returns the
  // number of files migrated. Throws std::logic_error when rebalancing is
  // off. Also the deterministic trigger the migration tests use.
  int MigrateOffServer(ServerId server, SimTime now);

  // The server that serves `file`: the active of the file's home slot in
  // the placement map (default: the historical modulo partition, slot h on
  // server h). Every routing decision is recorded in the placement ledger.
  // Throws std::invalid_argument for ids with the sign bit set (a negative
  // id squeezed through FileId's unsigned conversion) instead of silently
  // sharding the wrapped value.
  Server& ServerForFile(FileId file);

  // The placement map and the routing record behind ServerForFile.
  const Placement& placement() const { return placement_; }
  const PlacementLedger& placement_ledger() const { return ledger_; }

  // Renders the per-server placement/load table plus skew summaries (the
  // `sprite_analyze --shard-report` section): distinct files placed, routed
  // lookups, bytes homed (live server metadata), RPC calls and payload from
  // the transport ledger, and — when the async transport ran with metrics —
  // queue-wait percentiles from the "server.N.queue_us" recorders.
  std::string ShardReport() const;

  const TraceLog& trace() const { return trace_; }
  TraceLog TakeTrace() { return std::move(trace_); }

  const std::vector<CacheSizeSample>& cache_size_samples() const { return cache_size_samples_; }

  // Cluster-wide counter aggregates.
  CacheCounters AggregateCacheCounters() const;
  TrafficCounters AggregateTrafficCounters() const;
  ServerCounters AggregateServerCounters() const;

  // Zeroes all counters, the trace, and the cache-size samples (cache and
  // VM *contents* are preserved) — used to discard a warmup window.
  void ResetMeasurements();

  // Crashes and reboots one client: its caches restart cold, dirty data is
  // lost (unless the client has NVRAM), and every server forgets its open
  // state. Returns the dirty bytes lost.
  int64_t CrashClient(ClientId client, SimTime now);

  // Crashes and reboots one server at the queue's current time: its volatile
  // state (open-state table, server cache, last-writer bookkeeping) vanishes
  // while disk metadata survives. The server is unreachable for `down_for`,
  // then serves only reopen traffic for the configured recovery grace
  // window; clients detect the new epoch on their next RPC and replay their
  // opens. Returns the server-cache dirty bytes that never reached disk.
  //
  // With replication enabled (ReplicationConfig), each home slot the server
  // was serving whose standby holds a live shadow FAILS OVER instead: the
  // placement map promotes the standby, which adopts the slot's disk
  // metadata, replays the shadow delta (open registrations, last writers,
  // dirty extents), and is briefly unavailable for detection_delay +
  // entries * replay_per_entry — no epoch bump, no reopen storm, and the
  // shadowed dirty bytes survive. A slot with no live shadow (the standby is
  // down too — a correlated failure — or the shadow is not rebuilt yet)
  // degrades the crash to the classic reopen-storm recovery above. Either
  // way the rejoining server resyncs and re-arms shadows when it returns.
  int64_t CrashServer(ServerId server, SimDuration down_for);

  // Asymmetric partition: clients [first, last] lose `server` for
  // [from, until). Their requests pay timeouts/waits; the server's
  // consistency callbacks to them are silently dropped, so their caches can
  // go stale (tracked by stale_tracker()).
  void PartitionClients(ClientId first, ClientId last, ServerId server, SimTime from,
                        SimTime until);

  // Dropped-callback / stale-read accounting for partitions.
  StaleDataTracker& stale_tracker() { return stale_tracker_; }
  const StaleDataTracker& stale_tracker() const { return stale_tracker_; }

  // Fail-over statistics, maintained whether or not metrics are enabled
  // (sprite_analyze renders them without --metrics).
  int64_t failovers() const { return failovers_; }
  int64_t degraded_crashes() const { return degraded_crashes_; }
  int64_t resyncs() const { return resyncs_; }
  int64_t failover_preserved_bytes() const { return preserved_bytes_; }
  SimDuration total_failover_us() const { return total_failover_us_; }

 private:
  // Routes `file` to its home slot and records the decision in the ledger.
  ServerId NoteHome(FileId file);
  // Selects the files routed to home slot `home`: the set a fail-over takes
  // over and a resync shadows.
  std::function<bool(FileId)> HomeFilter(ServerId home) const;
  // Creates the next server, fully wired: service queue, observability,
  // gauges, shadow flush hook, client callbacks and (once the daemons run)
  // its cleaner.
  void NewServer();
  void StartServerCleaner(Server& server);

  // RebalanceHost: the Rebalancer's view of the cluster.
  std::vector<std::pair<FileId, int64_t>> HomedFiles(ServerId server) const override;
  int64_t HomedBytes(ServerId server) const override;
  // Executes the charged three-RPC migration protocol for one file
  // (DESIGN.md §11): export the file from the source, which first flushes
  // its dirty extents for the file to the source's own disk (crash-safety:
  // the image is never volatile-dirty) and then takes the metadata +
  // open-state image, charge kMigrateState/kMigrateDirty to the
  // source and kMigrateCommit to the destination as real transport calls
  // from the virtual migration coordinator (client id = num_clients), import
  // on the destination, and freeze new opens of the file there until the
  // charged latency (+ freeze_overhead) has elapsed. Every server drops its
  // shadow of the file and, when slot `to_home` is shadowing, its standby
  // resyncs it, so the backup follows the migrated home.
  MigrationOutcome Migrate(FileId file, ServerId from, ServerId to_home, SimTime now) override;

  // The pre-resize (file, server) census over live servers, sorted by file
  // id — the candidate set a membership edit's moves are computed from.
  std::vector<std::pair<FileId, ServerId>> HomeCensus() const;
  // Finishes a membership edit of the placement: migrates every census file
  // whose serving server changed, then rebuilds every live slot's shadow
  // from its active (each server's shadow is dropped first; a slot whose
  // active or standby is down re-arms when that server rejoins).
  void SettleMembershipEdit(const char* span, ServerId server,
                            const std::vector<std::pair<FileId, ServerId>>& census);

  // Outage-end hook (scheduled by CrashServer): the rebooted server resyncs
  // the shadows it provides and re-arms any deferred ones it is owed.
  void RejoinServer(ServerId server);
  // Rebuilds slot `home`'s shadow on its standby from its active and
  // re-arms the slot.
  void ResyncShadow(ServerId home);

  ClusterConfig config_;
  EventQueue& queue_;
  std::unique_ptr<Observability> obs_;
  std::unique_ptr<HotspotDetector> hotspot_;
  Placement placement_;
  PlacementLedger ledger_;
  std::unique_ptr<RpcTransport> transport_;
  std::vector<std::unique_ptr<Server>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<PeriodicTask>> daemons_;
  StaleDataTracker stale_tracker_;
  Counter* server_crash_counter_ = nullptr;
  Counter* server_crash_dirty_lost_ = nullptr;
  // Live rebalancing (null when RebalanceConfig::enabled is false).
  std::unique_ptr<Rebalancer> rebalancer_;
  bool daemons_started_ = false;  // NewServer wires cleaners only if so
  int64_t failovers_ = 0;
  int64_t degraded_crashes_ = 0;
  int64_t resyncs_ = 0;
  int64_t preserved_bytes_ = 0;
  SimDuration total_failover_us_ = 0;
  LatencyRecorder* failover_rec_ = nullptr;
  Counter* failover_counter_ = nullptr;
  Counter* degraded_counter_ = nullptr;
  Counter* preserved_counter_ = nullptr;
  Counter* resync_counter_ = nullptr;
  TraceLog trace_;
  uint64_t handle_counter_ = 0;
  std::vector<CacheSizeSample> cache_size_samples_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_CLUSTER_H_
