// Kernel counters.
//
// The study's second data source was "approximately 50 counters" in each
// workstation's kernel, read at regular intervals by a user-level process
// over two weeks. The structs below are those counters; client, cache, VM,
// and server code increment them inline, and the harness snapshots them
// periodically to compute the statistics in Tables 4-9.

#ifndef SPRITE_DFS_SRC_FS_COUNTERS_H_
#define SPRITE_DFS_SRC_FS_COUNTERS_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/types.h"
#include "src/util/units.h"

namespace sprite {

// Why a cache block was replaced (Table 8).
enum class ReplaceReason {
  kForFileBlock = 0,  // evicted to make room for another file block
  kForVmPage = 1,     // page handed to the virtual memory system
};

// Why a dirty block was written back to the server (Table 9). kReplacement
// does not appear in the paper's table because it essentially never happens
// (dirty blocks are written back long before they reach the LRU tail); we
// track it separately so that if it does occur it is visible rather than
// mis-attributed.
enum class CleanReason {
  kDelay = 0,        // 30-second delayed-write policy
  kFsync = 1,        // application requested write-through
  kRecall = 2,       // server recalled dirty data for another client's open
  kVm = 3,           // page given to the virtual memory system
  kReplacement = 4,  // dirty block reached the LRU tail under cache pressure
};
inline constexpr int kCleanReasonCount = 5;

// Per-client cache counters (Table 6 plus Tables 8 and 9 inputs).
struct CacheCounters {
  // Block-granularity read operations issued to the cache.
  int64_t read_ops = 0;
  int64_t read_misses = 0;
  // ...split for migrated processes (Table 6, "Client Migrated" column).
  int64_t migrated_read_ops = 0;
  int64_t migrated_read_misses = 0;

  // Byte-granularity traffic.
  int64_t bytes_read_by_apps = 0;       // cacheable file bytes apps requested
  int64_t bytes_read_from_server = 0;   // miss traffic (whole blocks)
  int64_t bytes_written_by_apps = 0;    // cacheable file bytes apps wrote
  int64_t bytes_written_to_server = 0;  // writeback traffic (whole blocks)
  int64_t migrated_bytes_read_by_apps = 0;
  int64_t migrated_bytes_read_from_server = 0;

  // Write operations (block granularity) and write fetches: partial-block
  // writes to non-resident blocks that first fetch the block from the
  // server.
  int64_t write_ops = 0;
  int64_t write_fetches = 0;
  int64_t write_fetch_bytes = 0;  // server bytes fetched to satisfy partial writes

  // Paging reads that consulted the file cache (code / initialized data).
  int64_t paging_read_ops = 0;
  int64_t paging_read_misses = 0;

  // Replacement statistics (Table 8): counts and total unreferenced age.
  int64_t replaced_for_file = 0;
  int64_t replaced_for_vm = 0;
  int64_t replaced_for_file_age_us = 0;  // sum of (now - last_ref)
  int64_t replaced_for_vm_age_us = 0;

  // Cleaning statistics (Table 9): counts and total dirty age per reason.
  int64_t cleaned[kCleanReasonCount] = {0, 0, 0, 0, 0};
  int64_t cleaned_age_us[kCleanReasonCount] = {0, 0, 0, 0, 0};

  // Bytes written to cache that were deleted/overwritten before writeback
  // (the ~10% the 30-second delay saves).
  int64_t bytes_cancelled_before_writeback = 0;

  // --- Extension counters ---------------------------------------------------
  // Blocks fetched by sequential readahead (not demand misses).
  int64_t prefetch_fetches = 0;
  // Prefetched blocks that a later demand access actually used.
  int64_t prefetch_useful = 0;
  // Bytes read through the large-file cache bypass.
  int64_t bypass_read_bytes = 0;
  // Crash accounting: dirty bytes destroyed by crashes (0 with NVRAM) and
  // dirty bytes recovered from NVRAM during reboot.
  int64_t crashes = 0;
  int64_t bytes_lost_in_crashes = 0;
  int64_t bytes_recovered_from_nvram = 0;
};

// Per-client raw traffic counters (Table 5): traffic as presented by
// applications to the client OS, before any cache filtering.
struct TrafficCounters {
  int64_t file_read_cacheable = 0;
  int64_t file_write_cacheable = 0;
  int64_t file_read_shared = 0;    // pass-through on write-shared files
  int64_t file_write_shared = 0;
  int64_t dir_read = 0;            // directory reads (uncacheable on clients)
  int64_t paging_read_cacheable = 0;   // code + initialized data faults
  int64_t paging_read_backing = 0;     // backing-file reads (uncacheable)
  int64_t paging_write_backing = 0;    // backing-file writes

  int64_t TotalBytes() const {
    return file_read_cacheable + file_write_cacheable + file_read_shared + file_write_shared +
           dir_read + paging_read_cacheable + paging_read_backing + paging_write_backing;
  }
};

// Per-server traffic counters (Table 7): traffic arriving at the server
// after the client caches have filtered it, and consistency actions
// (Table 10).
struct ServerCounters {
  int64_t file_read_bytes = 0;     // cache-miss fetches
  int64_t file_write_bytes = 0;    // writebacks
  int64_t shared_read_bytes = 0;   // pass-through on write-shared files
  int64_t shared_write_bytes = 0;
  int64_t dir_read_bytes = 0;
  int64_t paging_read_bytes = 0;   // code/data fetches + backing reads
  int64_t paging_write_bytes = 0;  // backing writes

  // Table 10: consistency actions as a fraction of file opens.
  int64_t file_opens = 0;            // opens of regular files
  int64_t write_sharing_opens = 0;   // opens causing concurrent write-sharing
  int64_t recall_opens = 0;          // opens requiring a dirty-data recall

  int64_t TotalBytes() const {
    return file_read_bytes + file_write_bytes + shared_read_bytes + shared_write_bytes +
           dir_read_bytes + paging_read_bytes + paging_write_bytes;
  }
};

// --- RPC transport ledger ----------------------------------------------------
//
// Every client<->server interaction is a typed RPC through the RpcTransport
// (src/fs/rpc.h). The transport keeps one RpcStat per message kind plus
// per-client and per-server breakdowns; Tables 7 and 12 derive their server
// traffic and RPC-overhead rows from this ledger.

enum class RpcKind : uint8_t {
  // Client -> server requests.
  kOpen = 0,        // open a file or directory (control RPC)
  kClose,           // close (control RPC)
  kCreate,          // create a file or directory
  kDelete,          // remove a file
  kTruncate,        // truncate to zero length
  kGetAttr,         // existence / size probe
  kReadBlock,       // client cache-miss block fetch
  kWriteBlock,      // client cache writeback
  kUncachedRead,    // pass-through read on a write-shared file
  kUncachedWrite,   // pass-through write on a write-shared file
  kPageIn,          // paging read (code / data / backing file)
  kPageOut,         // backing-file page-out
  kReadDir,         // directory contents read
  kReopen,          // crash recovery: re-register an open handle / dirty file
  // Server -> client consistency callbacks (CacheControl).
  kRecallDirty,     // flush your dirty data for a file
  kCacheDisable,    // stop caching (concurrent write-sharing began)
  kDiscardFile,     // contents destroyed remotely: drop cached blocks
  // Primary -> backup replication shadowing (ReplicationConfig). Issued by
  // the ServerStub alongside the primary operation, so shadowing costs real
  // wire/queue time and shows up in the ledger and critical path.
  kShadowOpen,      // mirror an open registration to the backup
  kShadowClose,     // mirror a close (and its last-writer update)
  kShadowWrite,     // mirror a dirty-byte writeback to the backup
  // Honest-wire batching (RpcConfig::batching): one coalesced wire exchange
  // flushing a per-(client, server) batch of deferred control/shadow RPCs.
  // Synthesized by the transport's flush path, never issued by clients.
  kBatch,
  // Live rebalancing (RebalanceConfig): the charged home-migration protocol.
  // Issued by the cluster's migration coordinator, never by clients: the
  // open-state snapshot and dirty extents leave the source, then one commit
  // installs the bulk image on the destination and repoints the route.
  kMigrateState,    // source -> coordinator: open-state + metadata snapshot
  kMigrateDirty,    // source -> coordinator: flushed dirty extents
  kMigrateCommit,   // coordinator -> destination: install image, repoint home
};
inline constexpr int kRpcKindCount = 24;

// The server service lane a kind holds in async mode. A kind occupies the
// wire exactly when it has a lane; kNone kinds are ledger-only by default.
enum class RpcLane : uint8_t { kNone, kControl, kData };

// Who issues a kind. Callbacks skip the client-side fault path; the shadow,
// batch and migrate groups exist only in their opt-in modes, so their latency
// recorders register only then.
enum class RpcGroup : uint8_t { kPlain, kCallback, kShadow, kBatch, kMigrate };

struct RpcKindInfo {
  const char* name;
  RpcLane lane;
  RpcGroup group;

  constexpr bool charges_network() const { return lane != RpcLane::kNone; }
  constexpr bool callback() const { return group == RpcGroup::kCallback; }
  // Deferrable into a wire batch: the ledger-only kinds plus the shadow
  // stream, everything whose reply the caller never waits on.
  constexpr bool batchable() const {
    return lane == RpcLane::kNone || group == RpcGroup::kShadow;
  }
};

// One row per RpcKind, in enum order: the only place a kind is classified.
inline constexpr std::array<RpcKindInfo, kRpcKindCount> kRpcKinds = {{
    {"open", RpcLane::kControl, RpcGroup::kPlain},
    {"close", RpcLane::kControl, RpcGroup::kPlain},
    {"create", RpcLane::kNone, RpcGroup::kPlain},
    {"delete", RpcLane::kNone, RpcGroup::kPlain},
    {"truncate", RpcLane::kNone, RpcGroup::kPlain},
    {"getattr", RpcLane::kNone, RpcGroup::kPlain},
    {"read-block", RpcLane::kData, RpcGroup::kPlain},
    {"write-block", RpcLane::kData, RpcGroup::kPlain},
    {"uncached-read", RpcLane::kData, RpcGroup::kPlain},
    {"uncached-write", RpcLane::kData, RpcGroup::kPlain},
    {"page-in", RpcLane::kData, RpcGroup::kPlain},
    {"page-out", RpcLane::kData, RpcGroup::kPlain},
    {"read-dir", RpcLane::kData, RpcGroup::kPlain},
    {"reopen", RpcLane::kControl, RpcGroup::kPlain},
    {"recall-dirty", RpcLane::kNone, RpcGroup::kCallback},
    {"cache-disable", RpcLane::kNone, RpcGroup::kCallback},
    {"discard-file", RpcLane::kNone, RpcGroup::kCallback},
    // Shadowing is a real wire message to the backup.
    {"shadow-open", RpcLane::kControl, RpcGroup::kShadow},
    {"shadow-close", RpcLane::kControl, RpcGroup::kShadow},
    {"shadow-write", RpcLane::kData, RpcGroup::kShadow},
    // One control-time request: its members never held the lane.
    {"batch", RpcLane::kControl, RpcGroup::kBatch},
    {"migrate-state", RpcLane::kControl, RpcGroup::kMigrate},
    {"migrate-dirty", RpcLane::kData, RpcGroup::kMigrate},
    {"migrate-commit", RpcLane::kControl, RpcGroup::kMigrate},
}};
static_assert(kRpcKinds.back().name != nullptr, "kRpcKinds is missing a row");

constexpr const RpcKindInfo& RpcKindInfoOf(RpcKind kind) {
  return kRpcKinds[static_cast<size_t>(kind)];
}
constexpr const char* RpcKindName(RpcKind kind) { return RpcKindInfoOf(kind).name; }

// Accounting for one RPC kind (or one client/server when used in the
// breakdown maps).
struct RpcStat {
  int64_t calls = 0;
  int64_t payload_bytes = 0;
  SimDuration net_time = 0;   // Ethernet latency charged to the callers
  SimDuration wait_time = 0;  // timeout + backoff + recovery waits (faults)
  // Async transport only (RpcConfig::async): time spent in the server's
  // FIFO service queue and being serviced. Always zero in sync mode.
  SimDuration queue_time = 0;
  SimDuration service_time = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t blocked_waits = 0;  // retries exhausted; waited for recovery

  bool operator==(const RpcStat&) const = default;
};

// Dense per-id RpcStat breakdown, replacing the std::map<Id, RpcStat>
// tables the transport's Call() used to probe on every RPC. Client, server,
// and epoch ids are all small contiguous integers, so the breakdown is a
// vector indexed directly by id (O(1), no tree walk, no per-node
// allocation) plus a presence bitmap so only ids that were actually charged
// show up when iterating. Iteration order is ascending id — the same order
// std::map gave — which keeps the rendered ledger byte-identical. The
// interface mirrors the std::map subset callers used: operator[], at(),
// find()/end(), count(), empty(), range-for.
template <typename Key>
class DenseIdStats {
 public:
  RpcStat& operator[](Key id) {
    const size_t index = static_cast<size_t>(id);
    if (index >= present_.size()) {
      present_.resize(index + 1, 0);
      stats_.resize(index + 1);
    }
    if (!present_[index]) {
      present_[index] = 1;
      ++touched_;
    }
    return stats_[index];
  }

  const RpcStat& at(Key id) const {
    const size_t index = static_cast<size_t>(id);
    if (index >= present_.size() || !present_[index]) {
      throw std::out_of_range("DenseIdStats::at: id " + std::to_string(index) +
                              " never charged");
    }
    return stats_[index];
  }

  bool empty() const { return touched_ == 0; }
  size_t size() const { return touched_; }
  size_t count(Key id) const {
    const size_t index = static_cast<size_t>(id);
    return index < present_.size() && present_[index] ? 1 : 0;
  }

  class const_iterator {
   public:
    const_iterator(const DenseIdStats* owner, size_t index)
        : owner_(owner), index_(index) {
      SkipAbsent();
    }
    std::pair<Key, const RpcStat&> operator*() const {
      return {static_cast<Key>(index_), owner_->stats_[index_]};
    }
    struct ArrowProxy {
      std::pair<Key, const RpcStat&> pair;
      const std::pair<Key, const RpcStat&>* operator->() const { return &pair; }
    };
    ArrowProxy operator->() const { return ArrowProxy{**this}; }
    const_iterator& operator++() {
      ++index_;
      SkipAbsent();
      return *this;
    }
    bool operator==(const const_iterator& other) const { return index_ == other.index_; }
    bool operator!=(const const_iterator& other) const { return index_ != other.index_; }

   private:
    void SkipAbsent() {
      while (index_ < owner_->present_.size() && !owner_->present_[index_]) {
        ++index_;
      }
    }
    const DenseIdStats* owner_;
    size_t index_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, present_.size()); }
  const_iterator find(Key id) const {
    return count(id) ? const_iterator(this, static_cast<size_t>(id)) : end();
  }

  // Vectors only ever grow to (max charged id + 1), so two breakdowns with
  // the same charged ids and stats compare equal memberwise.
  bool operator==(const DenseIdStats&) const = default;

 private:
  std::vector<uint8_t> present_;
  std::vector<RpcStat> stats_;
  size_t touched_ = 0;
};

struct RpcLedger {
  // True when the owning transport ran in async (event-driven) mode; the
  // ledger renderer adds queue/service columns only then, so sync-mode
  // output stays byte-identical.
  bool async = false;
  std::array<RpcStat, kRpcKindCount> by_kind{};
  DenseIdStats<ClientId> by_client;
  DenseIdStats<ServerId> by_server;
  // Per-server-epoch breakdown. Populated only once a server crash has been
  // injected (epoch numbers exist), so fault-free runs render identically.
  DenseIdStats<uint64_t> by_epoch;

  // Honest-wire bookkeeping (RpcConfig::honest_wire / batching). All zero —
  // and the renderer's wire footer absent — in the default free-control
  // mode, so committed ledgers are unchanged.
  int64_t piggybacked_ops = 0;      // control RPCs that rode a recent exchange
  int64_t charged_control_ops = 0;  // control RPCs that paid their own exchange
  int64_t batched_ops = 0;          // control/shadow RPCs deferred into batches
  int64_t batches = 0;              // kBatch wire exchanges flushed

  RpcStat& stat(RpcKind kind) { return by_kind[static_cast<size_t>(kind)]; }
  const RpcStat& stat(RpcKind kind) const { return by_kind[static_cast<size_t>(kind)]; }

  int64_t TotalCalls() const {
    int64_t n = 0;
    for (const RpcStat& s : by_kind) {
      n += s.calls;
    }
    return n;
  }
  int64_t TotalPayloadBytes() const {
    int64_t n = 0;
    for (const RpcStat& s : by_kind) {
      n += s.payload_bytes;
    }
    return n;
  }

  bool operator==(const RpcLedger&) const = default;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_COUNTERS_H_
