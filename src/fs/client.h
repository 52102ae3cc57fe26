// Simulated diskless Sprite client workstation.
//
// The client exposes the kernel-call interface the workload generator
// drives (open / read / write / seek / close / delete / truncate / fsync /
// directory reads / page faults) and implements the client half of the
// caching and consistency machinery:
//   * a dynamically-sized block cache that negotiates pages with the VM
//     system (VM has preference; the cache may only take pages unreferenced
//     for 20 minutes),
//   * delayed writeback via a periodic cleaner tick,
//   * version synchronization at open, dirty-data recall, cache disabling
//     during concurrent write-sharing (CacheControl),
//   * paging: code and initialized-data faults consult the file cache;
//     modified-data and stack pages go to backing files on the server.
//
// Every kernel-call-level operation can emit a trace record through the
// cluster-provided sink, reproducing the paper's server-side tracing.

#ifndef SPRITE_DFS_SRC_FS_CLIENT_H_
#define SPRITE_DFS_SRC_FS_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "src/fs/block_cache.h"
#include "src/fs/config.h"
#include "src/fs/counters.h"
#include "src/fs/recovery.h"
#include "src/fs/rpc.h"
#include "src/fs/server.h"
#include "src/fs/types.h"
#include "src/fs/vm.h"
#include "src/obs/observability.h"
#include "src/trace/record.h"
#include "src/util/units.h"

namespace sprite {

// Where the file offset starts at open, and whether existing contents
// survive (O_APPEND / O_TRUNC analogues).
enum class OpenDisposition {
  kNormal = 0,    // offset 0, contents preserved
  kAppend = 1,    // offset at end-of-file
  kTruncate = 2,  // contents destroyed, offset 0
};

class Client final : public CacheControl {
 public:
  // Routes a file id to a stub for its home server; every operation the
  // client issues through the stub travels the cluster's RpcTransport.
  using ServerRouter = std::function<ServerStub(FileId)>;
  // Receives trace records (may be null to disable tracing).
  using TraceSink = std::function<void(const Record&)>;

  Client(ClientId id, const ClientConfig& config, ServerRouter router, TraceSink trace_sink,
         uint64_t* handle_counter);

  ClientId id() const { return id_; }

  // Attaches the cluster's observability sink (null detaches). Registers
  // per-client gauges (cache/VM sizes, open handles) and cluster-wide cache
  // counters; with tracing enabled the client emits spans for cache miss
  // fills, write fetches, delayed-write cleanings, and consistency recalls.
  void AttachObservability(Observability* obs);

  // Event-driven transport mode (RpcConfig::async, wired by the Cluster).
  // Multi-RPC operations then thread accumulated latency into each
  // successive issue time, so a serial client never queues behind its own
  // requests at the server. Off (the default), issue times are untouched
  // and every code path is byte-identical to the synchronous transport.
  void SetAsyncRpc(bool async) { async_rpc_ = async; }

  // --- Application-level file operations -----------------------------------
  struct OpenResult {
    HandleId handle = 0;
    SimDuration latency = 0;
  };
  // Opens `file` (creating it on first reference).
  OpenResult Open(UserId user, FileId file, OpenMode mode, OpenDisposition disposition,
                  bool migrated, SimTime now);
  // Sequential transfer of `bytes` from the current offset. Reads are capped
  // at end-of-file; returns the op latency.
  SimDuration Read(HandleId handle, int64_t bytes, SimTime now);
  SimDuration Write(HandleId handle, int64_t bytes, SimTime now);
  void Seek(HandleId handle, int64_t new_offset, SimTime now);
  SimDuration Fsync(HandleId handle, SimTime now);
  SimDuration Close(HandleId handle, SimTime now);

  void Create(UserId user, FileId file, bool is_directory, SimTime now);
  SimDuration Delete(UserId user, FileId file, SimTime now);
  SimDuration Truncate(UserId user, FileId file, SimTime now);
  // Opens a directory, reads `bytes` of its contents, closes it.
  SimDuration ReadDirectory(UserId user, FileId dir, int64_t bytes, SimTime now);

  // Emits a migration record (a process of `user` moved here from `from`).
  void NoteMigrationArrival(UserId user, ClientId from, SimTime now);

  // --- Paging --------------------------------------------------------------
  // One page fault of the given kind. `backing_file` identifies the
  // executable (code / init data) or the process's backing file
  // (modified data / stack); `page_index` selects the page within it.
  SimDuration PageFault(PageKind kind, FileId backing_file, int64_t page_index, SimTime now);
  // Evicts the `pages` least-recently-used VM pages (e.g. migrated processes
  // evicted when the user returns); dirty ones are written to backing files.
  SimDuration EvictVmPages(int64_t pages, FileId backing_file, SimTime now);

  // --- Kernel daemons (driven by the cluster's periodic tasks) -------------
  // 5-second scan writing back data dirty for >= 30 s.
  void CleanerTick(SimTime now);

  // --- Failure injection -----------------------------------------------------
  // Simulates a workstation crash and reboot: open handles vanish, the
  // server forgets this client's opens, the cache and VM restart cold, and
  // not-yet-written dirty data is lost — unless the client was configured
  // with NVRAM, in which case recovery writes it back to the server.
  // Returns the number of dirty bytes lost.
  int64_t Crash(SimTime now);

  // --- Server crash recovery -------------------------------------------------
  // The reopen storm: re-registers every open handle homed on `server` (and
  // every closed file with dirty blocks awaiting delayed writeback there)
  // via kReopen RPCs. Handles the server refuses become stale — dead to
  // further I/O, their dirty blocks dropped — and are surfaced through
  // TakeStaleHandle. Invoked by the RpcTransport's epoch handshake when
  // this client first contacts a rebooted server; returns the storm's total
  // simulated duration.
  SimDuration ReplayOpens(ServerId server, SimTime now);

  // Consumes the stale-handle record for `handle` if recovery invalidated
  // it; the workload layer retries the operation as a fresh open.
  std::optional<StaleHandleInfo> TakeStaleHandle(HandleId handle);
  int stale_handle_count() const { return static_cast<int>(stale_handles_.size()); }

  // Wires the cluster's partition-staleness tracker (pure accounting; may
  // be null).
  void AttachStaleTracker(StaleDataTracker* tracker) { stale_tracker_ = tracker; }

  // --- CacheControl (server-issued consistency commands) -------------------
  void RecallDirtyData(FileId file, SimTime now) override;
  void DisableCaching(FileId file, SimTime now) override;
  void DiscardFile(FileId file, SimTime now) override;

  // --- Introspection --------------------------------------------------------
  int64_t cache_size_bytes() const { return cache_.size_bytes(); }
  int64_t cache_limit_bytes() const { return cache_.limit_blocks() * kBlockSize; }
  int64_t vm_resident_bytes() const { return vm_.resident_pages() * kBlockSize; }
  const CacheCounters& cache_counters() const { return cache_counters_; }
  const TrafficCounters& traffic_counters() const { return traffic_counters_; }
  // Zeroes the kernel counters (cache contents are untouched).
  void ResetCounters() {
    cache_counters_ = CacheCounters{};
    traffic_counters_ = TrafficCounters{};
  }
  const Vm& vm() const { return vm_; }
  Vm& vm() { return vm_; }
  int open_handle_count() const { return static_cast<int>(handles_.size()); }

 private:
  struct OpenFile {
    FileId file = 0;
    UserId user = 0;
    OpenMode mode = OpenMode::kRead;
    bool migrated = false;
    bool cacheable = true;
    int64_t offset = 0;
    int64_t size = 0;  // client's view (server size at open + local appends)
    int64_t run_read = 0;   // bytes since the last anchor (open/seek)
    int64_t run_write = 0;
    int64_t total_read = 0;
    int64_t total_write = 0;
  };

  ServerStub ServerFor(FileId file) { return router_(file); }
  OpenFile& HandleRef(HandleId handle);
  // Like HandleRef, but returns null for handles that died in a crash
  // (descriptors from before the reboot); throws only for handles that were
  // never issued up to the crash watermark.
  OpenFile* FindLiveHandle(HandleId handle);
  void Emit(Record record);

  // Makes room for one more cache block if the cache is at its limit,
  // following the preference rule: take a VM page only if one has been idle
  // for 20 minutes; otherwise the cache will evict its own LRU block.
  void EnsureCacheRoom(SimTime now);
  // The writeback callback for one eviction or clean pass starting at
  // `now`: a lambda, passed straight to the cache (defined in client.cc).
  auto WritebackTo(SimTime now);

  // Common pass-through helpers.
  SimDuration UncacheableRead(OpenFile& of, int64_t bytes, SimTime now, HandleId handle);
  SimDuration UncacheableWrite(OpenFile& of, int64_t bytes, SimTime now, HandleId handle);

  // Issue time for the next RPC of a multi-RPC operation: `now` plus the
  // latency accumulated so far when the transport is event-driven, plain
  // `now` otherwise (sync mode must not perturb span starts or
  // fault-window checks).
  SimTime IssueAt(SimTime now, SimDuration accumulated) const {
    return async_rpc_ ? now + accumulated : now;
  }

  ClientId id_;
  ClientConfig config_;
  ServerRouter router_;
  TraceSink trace_sink_;
  uint64_t* handle_counter_;
  bool async_rpc_ = false;

  // Observability (null when disabled). The counters are cluster-wide
  // (shared by name across clients via the registry).
  Observability* obs_ = nullptr;
  // Critical-path op frames (null unless ObservabilityConfig::critical_path);
  // every kernel-call entry point opens a frame so RPC phase times attribute
  // to the op that caused them.
  CriticalPathCollector* cp_ = nullptr;
  Counter* miss_fill_counter_ = nullptr;
  Counter* write_fetch_counter_ = nullptr;
  Counter* cleaned_block_counter_ = nullptr;
  Counter* recall_counter_ = nullptr;
  Counter* stale_handle_counter_ = nullptr;
  Counter* dropped_dirty_counter_ = nullptr;
  LatencyRecorder* reopen_storm_rec_ = nullptr;

  CacheCounters cache_counters_;
  TrafficCounters traffic_counters_;
  BlockCache cache_;
  Vm vm_;
  int64_t total_pages_;
  // Handles issued at or below this watermark died in a crash; operations
  // on them are no-ops (the owning processes died with the machine).
  HandleId crash_watermark_ = 0;

  std::unordered_map<HandleId, OpenFile> handles_;
  // Handles a rebooted server refused to reopen, awaiting the workload
  // layer's retry-as-fresh-open (ordered for deterministic iteration).
  std::map<HandleId, StaleHandleInfo> stale_handles_;
  // Partition staleness accounting (null unless wired by the cluster).
  StaleDataTracker* stale_tracker_ = nullptr;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_CLIENT_H_
