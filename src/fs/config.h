// Configuration for the simulated Sprite cluster.
//
// Defaults reproduce the constants the paper states explicitly: 4-Kbyte
// cache blocks, a 30-second delayed-write policy scanned by a 5-second
// daemon, the 20-minute virtual-memory preference rule, 24-32 Mbyte diskless
// clients, a 128-Mbyte main server, ~6-7 ms to fetch a 4-Kbyte page from a
// server over the Ethernet, and 20-30 ms local disk accesses.

#ifndef SPRITE_DFS_SRC_FS_CONFIG_H_
#define SPRITE_DFS_SRC_FS_CONFIG_H_

#include <cstdint>

#include "src/fs/types.h"
#include "src/obs/observability.h"
#include "src/util/units.h"

namespace sprite {

struct CacheConfig {
  // Maximum cache size in blocks (dynamic sizing moves below this bound).
  int64_t max_blocks = (32 * kMegabyte) / kBlockSize;
  // Minimum cache size in blocks (a rebooted machine starts here).
  int64_t min_blocks = (512 * kKilobyte) / kBlockSize;
  // Dirty data older than this is written back by the cleaner daemon.
  SimDuration writeback_delay = 30 * kSecond;
  // Period of the cleaner daemon's scan.
  SimDuration cleaner_period = 5 * kSecond;
};

struct ClientConfig {
  // Physical memory (split between the file cache and virtual memory).
  int64_t memory_bytes = 24 * kMegabyte;

  // --- Extensions the paper discusses but Sprite did not ship -------------
  // Sequential readahead: on a demand miss, also fetch the next N blocks.
  // The paper: "prefetching could reduce latencies, but it would not reduce
  // the read miss ratio, and hence not reduce the read-related server I/O
  // traffic." Off by default (as in Sprite).
  int readahead_blocks = 0;
  // Large sequentially-read files bypass the cache (served straight from
  // the server without evicting small files). The paper: "A possible
  // solution is to use the file cache for small files and a separate
  // mechanism for large sequentially-read files." 0 disables.
  int64_t large_file_bypass_bytes = 0;
  // Non-volatile cache memory: dirty data survives a client crash (written
  // back during recovery instead of being lost). The paper lists NVRAM as
  // the enabler for longer writeback delays.
  bool nvram = false;
  // A VM page must be unreferenced this long before the file cache may
  // steal it (the paper's 20-minute rule).
  SimDuration vm_preference_age = 20 * kMinute;
  // Fraction of memory permanently held by long-lived processes (kernel,
  // daemons, window system); this is why client caches settle at about
  // one-quarter to one-third of memory rather than all of it.
  double vm_floor_fraction = 0.52;
  CacheConfig cache;
};

// Server disk layout: Sprite's update-in-place disk, or the log-structured
// layout the paper points to for write-dominated futures.
enum class DiskLayout {
  kUpdateInPlace,
  kLogStructured,
};

struct ServerConfig {
  int64_t memory_bytes = 128 * kMegabyte;
  CacheConfig cache;
  DiskLayout disk_layout = DiskLayout::kUpdateInPlace;
};

struct NetworkConfig {
  // Raw Ethernet bandwidth (the paper's 10 Mbit/s network).
  double bandwidth_bytes_per_sec = 10.0e6 / 8.0;
  // Fixed per-RPC latency; combined with the transfer time this yields the
  // paper's ~6-7 ms for a 4-Kbyte block fetch.
  SimDuration rpc_latency = 3 * kMillisecond;

  // --- Contended medium (default off: analytic, uncontended) ---------------
  // When true, transfers occupy per-(client, server) link horizons plus a
  // shared medium horizon: a transfer issued while its link or the medium is
  // busy waits (reported as WireOutcome::queued, the "net.link.N.queued_us"
  // recorders, and "net.queued" spans). Off keeps the analytic model and
  // every committed baseline byte-identical.
  bool contention = false;
  // How many link-bandwidths the shared medium can carry concurrently. 1.0
  // is classic Ethernet (one transmission at a time); larger values model a
  // switched fabric where only same-link transfers serialize fully.
  double medium_capacity = 1.0;
  // Deterministic per-transfer loss probability (splitmix64 over the
  // transfer sequence number, seed-stable). Each loss costs a retransmit
  // timeout plus a full resend, and halves the link's congestion window.
  double loss_rate = 0.0;
  SimDuration retransmit_timeout = 20 * kMillisecond;
  // Congestion-window pacer (RACK/BBR-shaped, radically simplified): a
  // transfer of more than cwnd maximum-segment-size segments pays one extra
  // rpc_latency round trip per additional window. The window opens by one
  // segment per loss-free transfer up to cwnd_max and halves on loss.
  int64_t mss_bytes = 1500;
  int64_t cwnd_initial = 4;
  int64_t cwnd_max = 64;
};

struct DiskConfig {
  // Typical access time in the paper: "20 to 30 ms".
  SimDuration access_time = 25 * kMillisecond;
  double bandwidth_bytes_per_sec = 1.5e6;
};

// Client-stub behavior when a server is unavailable (RpcTransport fault
// injection). Sprite clients wait for a crashed server to recover rather
// than failing operations, so after `max_retries` timed-out attempts the
// stub blocks until the server's outage ends.
struct RpcConfig {
  // An attempt against an unavailable server is declared lost after this.
  SimDuration timeout = 500 * kMillisecond;
  // Timed-out attempts are retried with bounded exponential backoff:
  // backoff_initial, 2x, 4x, ... capped at backoff_max.
  int max_retries = 4;
  SimDuration backoff_initial = 100 * kMillisecond;
  SimDuration backoff_max = 2 * kSecond;
  // Crash recovery: after a crashed server reboots it serves only kReopen
  // traffic for this long (the RECOVERING grace window); other requests
  // block until the window closes. All intervals are half-open, so a
  // request issued exactly when the window ends is served normally.
  SimDuration recovery_grace = 2 * kSecond;

  // --- Event-driven completion (server service queues) ---------------------
  // When true, RPC completion is event-driven: each wire-occupying request
  // is admitted into its server's FIFO service queue and concurrent RPCs
  // overlap — a loaded server accumulates measurable queueing delay,
  // reported as "server.N.queue_us" / "server.N.queue_depth" (counted when
  // read, from the admitted requests' arrival and completion times). The default (false) keeps
  // the synchronous transport so every paper table stays byte-identical.
  bool async = false;
  // Server service (CPU + request handling) time per request, charged only
  // in async mode. Control RPCs are open/close/reopen; data RPCs are block
  // fetches, writebacks, pass-through I/O, paging, and directory reads.
  SimDuration control_service_time = 1 * kMillisecond;
  SimDuration data_service_time = 2 * kMillisecond;
  // Bound on requests resident at one server (queued + in service). With a
  // single FIFO service lane the end-to-end latency is unchanged by the
  // bound — arrivals beyond it simply wait at the client for a slot, and
  // that stall is charged as queue wait — but the server-resident queue
  // (the "server.N.queue_depth" gauge) stays bounded.
  int max_queue_depth = 64;

  // --- Honest wire: piggybacking and batching (default off) ----------------
  // When true, ledger-only control kinds (getattr, create/delete/truncate,
  // consistency callbacks) stop being free: one that cannot ride a recent
  // exchange pays a full wire exchange of kControlRpcBytes. A control RPC
  // issued within piggyback_window of the *end* of the last wire exchange on
  // the same (client, server) pair piggybacks for free (the paper's "these
  // ride on other messages" semantics, made explicit). Off keeps ledger-only
  // kinds free and every committed baseline byte-identical.
  bool honest_wire = false;
  SimDuration piggyback_window = 50 * kMillisecond;
  // When true (implies honest wire for control kinds), small control RPCs —
  // and the replication shadow stream (kShadowOpen/kShadowClose/
  // kShadowWrite) — defer their wire exchange into a per-(client, server)
  // batch that flushes as one kBatch exchange when it reaches batch_max_ops,
  // when the next batched op finds it older than batch_window, or at a
  // measurement boundary (Cluster::FlushWire). Member RPCs keep their fault
  // handling, epoch handshake, and ledger rows (net = 0); the flush carries
  // the summed wire bytes in the kBatch ledger row, so Tables 7/12 and the
  // critical-path reconciliation stay microsecond-exact.
  bool batching = false;
  int batch_max_ops = 8;
  SimDuration batch_window = 20 * kMillisecond;
};

// Primary/backup server replication (DESIGN.md §8). When enabled, every
// home slot's active server shadows its volatile state — open registrations
// and dirty-byte writebacks — to the slot's standby via kShadow* RPCs, and
// Cluster::CrashServer *fails over* to the standby instead of scheduling the
// epoch handshake and reopen storm: the standby installs the shadow delta
// and clients are re-routed to it. The standby is the next live server
// after the active in ring order ((h + 1) % num_servers until the
// membership changes; src/fs/placement.h). Needs at least two servers. Off
// by default; off-mode output is byte-identical to the committed baselines.
struct ReplicationConfig {
  bool enabled = false;
  // Fail-over latency model: a fixed failure-detection delay plus a replay
  // cost per shadow-delta entry (open registrations + dirty blocks
  // installed). The promoted backup is unavailable for the resulting
  // window, so clients pay a short timeout/backoff stall — the availability
  // gap the ablation measures against a full reopen storm.
  SimDuration detection_delay = 500 * kMillisecond;
  SimDuration replay_per_entry = 100 * kMicrosecond;
};

// Live shard rebalancing (DESIGN.md §11). When enabled, the cluster feeds
// HotspotDetector episodes into a Rebalancer (src/fs/rebalance.h) that
// migrates file homes off a flagged server mid-run via a charged
// kMigrate* protocol, and Cluster::AddServer/RetireServer perform
// bounded-movement resize migrations. Off by default; off-mode output is
// byte-identical to the committed baselines (no rebalance instruments
// register, no override table exists, routing is the pure Sharder).
struct RebalanceConfig {
  bool enabled = false;
  // Per-episode movement caps: at most this many victim files, carrying at
  // most this many homed bytes, migrate in response to one hot-spot episode.
  int max_files_per_episode = 4;
  int64_t max_bytes_per_episode = 64 * kMegabyte;
  // Files smaller than this never migrate (moving them cannot dent the
  // imbalance but still pays the freeze + commit round trips).
  int64_t min_victim_bytes = 4 * kKilobyte;
  // Global hot-spot movement budget across the whole run; 0 means
  // unbounded. Resize moves are exempt: a retire MUST evacuate every file
  // or the retiree would keep serving, and an add's steal is already
  // bounded to ~1/(live+1) of the id space. The property suite asserts
  // hot-spot moved bytes never exceed it.
  int64_t max_total_bytes = 0;
  // Fixed coordination overhead added to the freeze window on top of the
  // charged RPC latencies (route repoint, bookkeeping).
  SimDuration freeze_overhead = 1 * kMillisecond;
};

// How FileIds map to their home server (implementations and semantics in
// src/fs/sharding.h). kModulo is the historical `file % num_servers`
// partition and stays the default so every committed paper table is
// byte-identical; the others exist for the Table 7 load-balance studies.
enum class ShardingPolicy {
  kModulo = 0,
  kHash = 1,
  kRange = 2,
  kDirAffinity = 3,
};

struct ShardingConfig {
  // kRange partitions [0, kDefaultRangeSpan) uniformly (src/fs/sharding.h).
  ShardingPolicy policy = ShardingPolicy::kModulo;
};

struct ClusterConfig {
  int num_clients = 40;
  int num_servers = 4;
  ClientConfig client;
  ServerConfig server;
  NetworkConfig network;
  RpcConfig rpc;
  DiskConfig disk;
  // File -> server placement policy (default: the historical modulo).
  ShardingConfig sharding;
  // Primary/backup replication with fail-over (default: off).
  ReplicationConfig replication;
  // Live hot-spot-driven home migration and elastic resize (default: off).
  RebalanceConfig rebalance;
  // Metrics/span collection (all off by default; enabling it must not
  // perturb the simulation — see src/obs/observability.h).
  ObservabilityConfig observability;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_CONFIG_H_
