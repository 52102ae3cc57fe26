// Simulated Sprite file server.
//
// The server owns file metadata (sizes, versions, last writer), a large
// main-memory block cache in front of its disk, and the cache-consistency
// engine. Sprite's shipped consistency mechanism uses three tools
// (Section 5 of the paper):
//   * version timestamps, returned at open so clients can flush stale data;
//   * recall of dirty data from the last writer when another client opens;
//   * cache disabling during concurrent write-sharing, with all read/write
//     requests passed through to the server until every client closes.
// The alternatives Section 5.6 compares are simulated from traces
// (src/consistency/overhead.h), not run here.

#ifndef SPRITE_DFS_SRC_FS_SERVER_H_
#define SPRITE_DFS_SRC_FS_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/fs/block_cache.h"
#include "src/fs/config.h"
#include "src/fs/counters.h"
#include "src/fs/disk.h"
#include "src/fs/log_disk.h"
#include "src/fs/recovery.h"
#include "src/fs/types.h"
#include "src/obs/observability.h"
#include "src/sim/event_queue.h"
#include "src/trace/record.h"  // OpenMode

namespace sprite {

// Server-to-client control callbacks (cache consistency commands). The
// Client implements this; an interface keeps fs/server decoupled from
// fs/client.
class CacheControl {
 public:
  virtual ~CacheControl() = default;
  // Flush any dirty data for `file` back to the server (CleanReason::kRecall).
  virtual void RecallDirtyData(FileId file, SimTime now) = 0;
  // Flush dirty data and stop caching `file`; subsequent I/O on open handles
  // passes through to the server.
  virtual void DisableCaching(FileId file, SimTime now) = 0;
  // The file's contents were destroyed (delete/truncate by another client):
  // drop cached blocks, discarding dirty data without writing it back.
  virtual void DiscardFile(FileId file, SimTime now) = 0;
};

class Server {
 public:
  struct FileMeta {
    int64_t size = 0;
    uint64_t version = 1;
    bool exists = true;
    bool is_directory = false;
    // Client whose cache may hold the newest data (delayed writes).
    std::optional<ClientId> last_writer;
  };

  // One client's open handles on one file: the layout shared by the open
  // table, the standby's shadow, and a migration image. Lists of them are
  // flat vectors sorted by client id: a file is rarely open on more than a
  // couple of clients, so a sorted vector beats a std::map node per client,
  // and ascending order gives the consistency engine its deterministic
  // callback order (DisableCaching fires in client-id order).
  struct OpenCount {
    ClientId client = 0;
    int readers = 0;
    int writers = 0;
  };

  struct OpenReply {
    uint64_t version = 1;
    bool cacheable = true;
    bool caused_write_sharing = false;
    bool caused_recall = false;
    // Network latency, filled in by the ServerStub (the server itself no
    // longer touches the network; see src/fs/rpc.h).
    SimDuration latency = 0;
  };

  Server(ServerId id, const ServerConfig& config, const DiskConfig& disk_config);

  ServerId id() const { return id_; }

  // Clients register their control interface at cluster construction.
  void RegisterClient(ClientId client, CacheControl* control);

  // Attaches the cluster's observability sink (null detaches). Registers
  // per-server gauges (cache size, disk counters) and a disk service-time
  // distribution; with tracing enabled the server emits spans for block
  // fetches, writebacks, and cleaner ticks on its own track.
  void AttachObservability(Observability* obs);

  // --- Naming operations (always pass through to the server in Sprite) ----
  void CreateFile(FileId file, bool is_directory, SimTime now);
  // Returns bytes destroyed (0 if the file did not exist). `caller` is the
  // client issuing the operation; if another client holds the newest (dirty)
  // data for the file, that data is doomed and is discarded remotely so a
  // later delayed writeback cannot resurrect destroyed contents.
  int64_t DeleteFile(FileId file, ClientId caller, SimTime now);
  int64_t TruncateFile(FileId file, ClientId caller, SimTime now);
  bool FileExists(FileId file) const;
  int64_t FileSize(FileId file) const;
  void SetFileSize(FileId file, int64_t size);

  struct CloseReply {
    SimDuration latency = 0;
    // Version after the close (bumped if the client wrote); the closing
    // client adopts it, since its cache holds the newest data.
    uint64_t version = 1;
  };

  OpenReply Open(ClientId client, FileId file, OpenMode mode, bool is_directory, SimTime now);
  // `wrote` marks the closing client as the file's last writer and bumps the
  // version. `final_size` updates metadata.
  CloseReply Close(ClientId client, FileId file, OpenMode mode, bool wrote, int64_t final_size,
                   SimTime now);

  // --- Data path -----------------------------------------------------------
  // Returned durations are server-local (disk) time only; network time is
  // charged by the RpcTransport the requests arrive through.
  // Client cache miss: fetch one block. `paging` marks code/backing reads.
  SimDuration FetchBlock(FileId file, int64_t block, bool paging, SimTime now);
  // Client cache writeback (or backing-file page-out when `paging`).
  SimDuration Writeback(FileId file, int64_t block, int64_t bytes, bool paging, SimTime now);
  // Pass-through I/O on uncacheable (write-shared) files.
  SimDuration PassThroughRead(FileId file, int64_t bytes, SimTime now);
  SimDuration PassThroughWrite(FileId file, int64_t bytes, SimTime now);
  // Directory contents read by a user process (uncacheable on clients).
  SimDuration ReadDirectory(FileId dir, int64_t bytes, SimTime now);

  // Server-side cleaner tick: writes aged dirty cache blocks to disk.
  void CleanerTick(SimTime now);

  // Forgets all open-file state for a crashed client: its opens vanish and
  // it can no longer be the last writer. A file whose write-sharing the
  // crash ends stays uncacheable until the survivors close it.
  void ClientCrashed(ClientId client, SimTime now);

  // --- Crash recovery --------------------------------------------------------
  // Simulates a server crash + reboot: the open-state table, the server
  // block cache, and the last-writer bookkeeping are all volatile and
  // vanish; file metadata (sizes, versions, existence) is disk state and
  // survives. Bumps the server's epoch so clients detect the restart on
  // their next RPC. Returns the dirty bytes that never reached disk.
  int64_t Crash(SimTime now);

  // The restart counter carried (conceptually) on every RPC response; a
  // client seeing a new epoch must replay its opens before normal service.
  uint64_t epoch() const { return epoch_; }

  struct ReopenReply {
    Status status = Status::kOk;
    bool cacheable = true;
    uint64_t version = 1;
    SimDuration latency = 0;  // filled in by the ServerStub
  };

  // Recovery-time re-registration of one client handle (or, with
  // `has_handle` false, of a closed file whose dirty blocks still sit in
  // the client's cache awaiting delayed writeback). Fails with
  // Status::kStaleHandle when the file no longer exists or when the client
  // holds dirty data for a version that a conflicting writer has already
  // superseded. Successful dirty reopens reassert the client as the file's
  // last writer; successful handle reopens re-enter the consistency
  // machinery (and may re-trigger write-sharing callbacks).
  ReopenReply Reopen(ClientId client, FileId file, OpenMode mode, uint64_t client_version,
                     bool has_dirty, bool has_handle, SimTime now);

  // --- Primary/backup replication: the standby's shadow ----------------------
  // When this server is the standby for some home (ReplicationConfig), the
  // primary mirrors its volatile state here via kShadow* RPCs: open-handle
  // registrations, last-writer updates, and per-block dirty extents. The
  // shadow is inert bookkeeping — no callbacks, no consistency actions —
  // until a fail-over turns it into real open state and cached dirty blocks
  // (TakeOver). Files are ordered so the replay is deterministic.

  // Mirror one open registration (ServerStub::Open/Reopen on the primary).
  void ShadowOpen(ClientId client, FileId file, OpenMode mode);
  // Mirror a close; `wrote` carries the last-writer update the primary made.
  void ShadowClose(ClientId client, FileId file, OpenMode mode, bool wrote);
  // Mirror a dirty-byte writeback: block `block` of `file` is dirty in the
  // primary's cache to (at least) `bytes` from the block start.
  void ShadowWriteback(FileId file, int64_t block, int64_t bytes);
  // Reassert `client` as the file's last writer (dirty reopen piggyback).
  void ShadowLastWriter(FileId file, ClientId client);
  // Drop the shadow dirty extent for one block: the primary put it on disk
  // (cleaner, migration flush, or replacement), so the block no longer
  // needs the shadow to survive a crash (the backup adopts the disk image
  // at fail-over). Piggybacks on the primary's flush batching — no wire
  // charge.
  void ShadowBlockClean(FileId file, int64_t block);
  // Cluster wiring: called (file, block) after this server writes a dirty
  // cache block to disk, so the standby shadowing the file's home can drop
  // the now-durable extent. Unset when replication is off.
  using ShadowFlushHook = std::function<void(FileId, int64_t)>;
  void SetShadowFlushHook(ShadowFlushHook hook) { shadow_flush_hook_ = std::move(hook); }
  // True when the shadow has an open registration for (file, client); the
  // primary's stub consults this so closes of never-shadowed opens
  // (directories, opens predating shadowing) issue no shadow RPC.
  bool HasShadowOpen(FileId file, ClientId client) const;

  // What a fail-over adopted and replayed.
  struct FailoverDelta {
    int64_t files_adopted = 0;    // metadata entries taken from the failed home
    int64_t entries = 0;          // open registrations + dirty blocks installed
    int64_t preserved_bytes = 0;  // dirty bytes that survived via the shadow
  };

  // Fail-over promotion of the homes whose files `mine` selects. First this
  // server adopts the failed home's disk image: their metadata moves from
  // `failed` (already crashed, so last writers are clear) in ascending id
  // order. Then the shadow replays into real state: opens are installed
  // without callbacks (InstallOpens; the primary already enforced sharing
  // on the clients), last writers land in metadata, and dirty extents enter
  // the block cache. Installed entries leave the shadow; entries for files
  // that no longer exist are discarded.
  FailoverDelta TakeOver(Server& failed, const std::function<bool(FileId)>& mine, SimTime now);
  // Rebuilds this standby's shadow for homes selected by `mine` from the
  // live primary's current volatile state (rejoin after an outage, or
  // re-arming a deferred shadow after a degraded crash).
  void ResyncShadowFrom(const Server& primary, const std::function<bool(FileId)>& mine);
  int shadow_file_count() const { return static_cast<int>(shadow_.size()); }

  // --- Live rebalancing: charged home migration (DESIGN.md §11) --------------
  // A migration moves one file's whole server-side state to a new home
  // (Cluster::Migrate). ExportFile writes the file's dirty server-cache
  // blocks to the source's own disk FIRST, so the image that moves is never
  // volatile-dirty: a crash on either end mid-move cannot lose bytes that
  // had reached the source.

  // The serialized image of one migrating file: durable metadata plus the
  // volatile open registrations and the consistency cacheable bit. Unlike
  // a fail-over (crashed source, last writers already cleared), a live
  // migration preserves last_writer and the enforced sharing state.
  struct MigratedFile {
    bool valid = false;  // false: the source does not know the file
    FileMeta meta;
    std::vector<OpenCount> opens;  // sorted by client id
    bool cacheable = true;
    int64_t flushed_bytes = 0;  // dirty bytes the export made durable on the source
  };

  // Flushes the file's dirty server-cache blocks to this server's disk (the
  // shadow flush hook fires per block, so a standby drops the now-durable
  // extents), then extracts the file's state and removes it from this
  // server: metadata leaves the table, opens leave the open-state
  // machinery, and the (clean) cached blocks are dropped so a stale copy
  // can never be served if the home later migrates back. The flush happens
  // even when the file is unknown here (`valid` false).
  MigratedFile ExportFile(FileId file, SimTime now);
  // Installs an exported image as this server's own. Opens re-enter the
  // open-state table through InstallOpens with the old home's cacheable
  // bit: it already enforced sharing on the clients.
  void ImportFile(FileId file, const MigratedFile& image);
  // Freezes new opens/reopens of `file` until `until` (the migration's
  // commit window): MigrationStall returns the remaining wait. Zero-cost
  // when nothing is frozen, so the rebalance-off path is untouched.
  void FreezeFileUntil(FileId file, SimTime until);
  SimDuration MigrationStall(FileId file, SimTime now);
  // Drops any standby shadow entry for `file`: its home migrated away, so
  // this server no longer backs it up (the new standby resyncs from the
  // destination).
  void DropShadowFile(FileId file);
  // Drops every shadow entry: a membership edit re-picked the standbys, and
  // the Cluster rebuilds each slot's shadow from its active.
  void DropShadows() { shadow_.clear(); }
  // Live (existing, non-directory) files homed here with their sizes,
  // ascending by id — the deterministic victim-selection input for the
  // Rebalancer.
  std::vector<std::pair<FileId, int64_t>> HomedFiles() const;
  // Every file id with metadata here, ascending — directories and delete
  // tombstones included. The resize sweep moves all of them, so version
  // history never strands on a server nothing routes to any more.
  std::vector<FileId> AllFileIds() const;

  // --- Service queue (event-driven transport) --------------------------------
  // In async transport mode (RpcConfig::async) every wire-occupying request
  // passes through a per-server FIFO service queue: it arrives after its
  // wire time, waits for the requests ahead of it, then holds the service
  // lane for a per-kind service time. The transport computes arrival times
  // and asks the server to admit each request. No event marks an arrival or
  // a completion: the server keeps each admitted request's visit and counts
  // the live queue depth from them when the gauge is read.

  // The admission verdict for one request.
  struct Admission {
    SimTime arrival = 0;      // when the request reaches the service queue
    SimTime start = 0;        // when service begins (FIFO order)
    SimDuration service = 0;  // per-kind service time
    SimDuration queue_wait() const { return start - arrival; }
    SimTime completion() const { return start + service; }
  };

  // Turns the service model on (called by the Cluster before
  // AttachObservability when RpcConfig::async is set). Off, AdmitRequest
  // must not be called and AttachObservability registers no queue metrics,
  // so sync-mode metrics output is unchanged. `clock` is the queue the
  // cluster runs on: the depth count reads its dispatch position.
  void EnableServiceQueue(const RpcConfig& rpc, const EventQueue& clock);
  bool service_queue_enabled() const { return clock_ != nullptr; }

  // Admits one request arriving at `arrival` (issue time + wire time) and
  // returns when it starts and how long it is serviced. With `priority`
  // (reopen traffic during the recovery grace window) the request jumps the
  // queue — it starts at arrival — but still occupies the service lane, so
  // post-grace traffic queues behind the storm. Records the queue wait
  // (zeros included) in the "server.N.queue_us" recorder.
  Admission AdmitRequest(RpcKind kind, SimTime arrival, bool priority);

  // The "server.N.queue_depth" gauge: admitted requests that have arrived
  // and not yet completed at the clock's dispatch position. An arrival or
  // completion at the reading instant counts as passed exactly when an
  // event scheduled at admission would have dispatched before the reader
  // (EventQueue::Passed): inside a callback, when the admission came before
  // the reading event was scheduled; after RunUntil, when it came before
  // RunUntil returned.
  int64_t QueueDepth() const;
  // Admissions the depth count still holds (see visits_).
  size_t visit_count() const { return visits_.size(); }

  const ServerCounters& counters() const { return counters_; }
  // Log-structured backend statistics (null when update-in-place).
  const SegmentLog* segment_log() const { return segment_log_.get(); }
  // Zeroes the traffic/consistency counters (cache contents are untouched).
  void ResetCounters() { counters_ = ServerCounters{}; }
  const Disk& disk() const { return disk_; }
  int64_t cache_size_bytes() const { return cache_.size_bytes(); }
  // Total bytes of live (existing) files whose metadata this server owns —
  // the storage side of placement skew ("server.N.bytes_homed" gauge and
  // the --shard-report table). Walks the metadata map; call at reporting
  // granularity, not per operation.
  int64_t HomedBytes() const;
  int open_state_count() const { return static_cast<int>(open_states_.size()); }

 private:
  struct OpenState {
    std::vector<OpenCount> opens;  // sorted by client id
    bool cacheable = true;
  };

  // One file's shadow (standby role): mirrored opens, the mirrored last
  // writer, and the primary-cache dirty extents by block index. `dirty` is
  // an ordered map, not a sorted vector: the primary flushes a file's blocks
  // in ascending order, so ShadowBlockClean always drops the lowest extent,
  // and erasing a vector's front would shift the rest (files reach 3072
  // blocks). Ascending iteration keeps the fail-over replay deterministic.
  struct ShadowFile {
    std::vector<OpenCount> opens;  // sorted by client id
    std::optional<ClientId> last_writer;
    std::map<int64_t, int64_t> dirty;  // block -> extent
    bool empty() const { return opens.empty() && !last_writer.has_value() && dirty.empty(); }
  };

  FileMeta& EnsureFile(FileId file);
  // Merges `opens` into the open-state table on a new home, without
  // callbacks. A migration passes the old home's cacheable bit; a fail-over
  // passes none and mirrors what the failed primary had enforced: cacheable
  // unless write-shared.
  void InstallOpens(FileId file, const std::vector<OpenCount>& opens,
                    std::optional<bool> cacheable);
  // Disables caching on every client once an open (or recovery reopen)
  // makes `file` write-shared. `count` distinguishes real opens (Table 10
  // counters) from recovery reopens (not new opens). `reply` may be null.
  void EnforceSharing(FileId file, OpenState& state, bool count, SimTime now, OpenReply* reply);
  CacheControl* ControlFor(ClientId client) const;
  // If a client other than `caller` may hold dirty data for `file`, tell it
  // to discard (the contents were destroyed).
  void DiscardRemoteDirtyData(FileId file, FileMeta& meta, ClientId caller, SimTime now);
  // Server cache access backing a transfer of `bytes` at `block` of `file`;
  // returns disk time incurred (0 on a server-cache hit).
  SimDuration TouchServerCache(FileId file, int64_t block, bool write, int64_t bytes,
                               SimTime now);

  // Routes one disk read through whichever layout is configured.
  SimDuration DiskRead(BlockKey key, int64_t bytes);
  // The one disk-write path: every dirty block leaving the server cache
  // (cleaner, migration flush, replacement) is written through the
  // configured layout here, and the shadow flush hook tells the standby the
  // extent is durable. Returns the disk time.
  SimDuration FlushToDisk(BlockKey key, int64_t bytes);
  // FlushToDisk as a BlockCache writeback: a lambda, passed straight to the
  // cache.
  auto ToDisk() {
    return [this](BlockKey key, int64_t bytes) { FlushToDisk(key, bytes); };
  }

  ServerId id_;
  uint64_t epoch_ = 1;
  // Observability (null when disabled).
  Observability* obs_ = nullptr;
  LatencyRecorder* disk_latency_rec_ = nullptr;
  LatencyRecorder* queue_wait_rec_ = nullptr;

  // --- Service-queue state (async transport mode only) -----------------------
  // The cluster's event queue; null until EnableServiceQueue.
  const EventQueue* clock_ = nullptr;
  SimDuration control_service_time_ = 0;
  SimDuration data_service_time_ = 0;
  size_t max_queue_depth_ = 0;
  // When the FIFO service lane frees up (the last admitted request's
  // completion time).
  SimTime busy_until_ = 0;
  // Completion times of admitted-but-unfinished requests, nondecreasing
  // because FIFO service serializes them; drained as arrivals pass them.
  // Priority (grace-window reopen) requests bypass this deque — their
  // completions can precede queued ones — but still push busy_until_.
  std::deque<SimTime> inflight_;
  // One admitted request's stay, as QueueDepth sees it: its arrival and
  // completion, each raised to the clock's time at admission, and the
  // clock's schedule count then, which orders both against a reading event
  // at the same instant. Priority admissions included, in admission order.
  // An admission that finds the oldest visit's completion behind the clock
  // drops every visit whose completion is.
  struct Visit {
    SimTime arrival;
    SimTime completion;
    uint64_t stamp;
  };
  std::vector<Visit> visits_;
  Disk disk_;
  std::unique_ptr<SegmentLog> segment_log_;
  CacheCounters cache_counters_;
  BlockCache cache_;
  ServerCounters counters_;

  std::unordered_map<FileId, FileMeta> files_;
  std::unordered_map<FileId, OpenState> open_states_;
  // Standby role: shadows of the homes this server backs up. Ordered map so
  // fail-over installation and resync walk files deterministically. Volatile
  // (cleared by Crash) — a rebooted standby resyncs from the live primary.
  std::map<FileId, ShadowFile> shadow_;
  ShadowFlushHook shadow_flush_hook_;
  // Files frozen by an in-flight migration commit: (file, freeze end).
  // Almost always empty (only a rebalancing cluster populates it), and
  // rarely more than a handful of entries, so a flat vector with lazy
  // expiry beats a map.
  std::vector<std::pair<FileId, SimTime>> frozen_;
  // Client control interfaces, indexed by contiguous ClientId (null when
  // unregistered) — the consistency callbacks look these up per conflicting
  // open, so this is a hot table.
  std::vector<CacheControl*> clients_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_SERVER_H_
