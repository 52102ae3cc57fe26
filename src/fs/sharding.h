// Pluggable server sharding: how FileIds map to their home server.
//
// The paper's Table 7 shows server load was wildly skewed across Sprite's
// four servers (Allspice, holding "/" and the user home directories,
// absorbed most of the traffic). The original simulator hard-coded the
// placement as `file % num_servers`; this header turns placement into a
// policy object so load-balance experiments can compare:
//
//   * kModulo      — `file % num_servers`, bit-identical to the historical
//                    behavior (and therefore the default: every committed
//                    paper table is pinned to it);
//   * kHash        — splitmix64 over the FileId, the classic decluster-
//                    everything placement;
//   * kRange       — contiguous FileId ranges, a uniform split of
//                    [0, kDefaultRangeSpan): the directory-server / volume
//                    style;
//   * kDirAffinity — a file's home server follows its parent directory in
//                    the synthetic workload's namespace, so a user's
//                    directory, mailbox, and working files co-locate (the
//                    XUFS-style placement, and the closest model of real
//                    Sprite, whose servers held whole subtrees).
//
// Placement is a pure function of (policy, num_servers, FileId): no hidden
// state, so recovery replay, reopen storms, and crash schedules all target
// the server the policy actually placed a file on, and property tests can
// sweep the mapping exhaustively.
//
// The PlacementLedger is the measurement half: it records every routing
// decision the Cluster makes so per-server placement skew is observable
// (the "server.N.files_placed" gauge and `sprite_analyze --shard-report`).

#ifndef SPRITE_DFS_SRC_FS_SHARDING_H_
#define SPRITE_DFS_SRC_FS_SHARDING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/types.h"

namespace sprite {

// Canonical FileId-space layout of the synthetic workload. The allocator
// (src/workload/file_space.h) hands out ids from these ranges; the
// dir-affinity sharder inverts them to find a file's parent directory.
// Defined here so the two layers share one source of truth.
struct FileIdLayout {
  static constexpr FileId kExecutableBase = 1'000;   // shared binaries
  static constexpr FileId kMailboxBase = 10'000;     // one per user
  static constexpr FileId kDirectoryBase = 20'000;   // one per user
  static constexpr FileId kSharedBase = 30'000;      // cluster-wide append files
  static constexpr FileId kBackingBase = 40'000;     // per-client VM backing
  static constexpr FileId kUserFileBase = 100'000;   // per-user persistent files
  static constexpr FileId kUserFileStride = 1'000;
  static constexpr FileId kTempBase = 10'000'000;    // fresh temporaries

  // Pseudo-directories for populations without a per-user parent. Both are
  // fixed points of HomeDirectoryOf (a directory is its own home).
  static constexpr FileId kSystemDirectory = kExecutableBase - 1;  // executables
  static constexpr FileId kSharedDirectory = kSharedBase - 1;      // shared files
};

// The parent directory of `file` under the workload namespace: user files
// and mailboxes map to their owner's directory, executables to the system
// directory, shared append files to the shared directory. Fresh temporaries
// and VM backing files have no durable parent and are their own home (they
// decluster like kHash). Idempotent: HomeDirectoryOf(HomeDirectoryOf(f))
// == HomeDirectoryOf(f).
FileId HomeDirectoryOf(FileId file);

// splitmix64: the finalizer used by kHash and kDirAffinity. Public so tests
// can pin the exact mapping.
uint64_t SplitMix64(uint64_t x);

const char* ShardingPolicyName(ShardingPolicy policy);
// Parses "modulo" / "hash" / "range" / "dir-affinity" (alias "dir").
// Returns false on an unknown name, leaving `*out` untouched.
bool ParseShardingPolicy(const std::string& name, ShardingPolicy* out);

// Maps files to servers. Construct via MakeSharder; every implementation
// guarantees ServerFor(f) < num_servers for all valid ids.
class Sharder {
 public:
  virtual ~Sharder() = default;

  // The home server for `file`. Throws std::invalid_argument for ids with
  // the sign bit set: FileId is unsigned, so a negative id arriving through
  // an implicit conversion would otherwise wrap to a huge value and silently
  // shard "somewhere" — the old modulo code's latent bug class.
  ServerId ServerFor(FileId file) const;

  int num_servers() const { return num_servers_; }
  ShardingPolicy policy() const { return policy_; }

 protected:
  // Throws std::invalid_argument when num_servers <= 0 (the old code would
  // have divided by zero on an empty server list).
  Sharder(ShardingPolicy policy, int num_servers);

  virtual ServerId Place(FileId file) const = 0;

 private:
  ShardingPolicy policy_;
  int num_servers_;
};

// Builds the sharder `config` asks for. Throws std::invalid_argument when
// num_servers <= 0.
std::unique_ptr<Sharder> MakeSharder(const ShardingConfig& config, int num_servers);

// The id span kRange partitions uniformly. Ids at or above the span (deep
// temporary files) belong to the last server.
inline constexpr FileId kDefaultRangeSpan = 2 * FileIdLayout::kTempBase;

// --- Placement / load ledger -------------------------------------------------

// Records every routing decision (Cluster::ServerForFile) so placement skew
// is measurable: distinct files placed per server and total routed lookups.
// Pure accounting — it never influences placement — and deterministic, so
// same-seed runs produce identical ledgers. Reset with the other
// measurement counters when a warmup window is discarded.
class PlacementLedger {
 public:
  explicit PlacementLedger(int num_servers);

  void Note(ServerId server, FileId file);

  // Distinct files the policy homed on `server` (since the last reset).
  int64_t files_placed(ServerId server) const;
  // Total routing decisions that chose `server`.
  int64_t routed(ServerId server) const;
  int64_t total_routed() const;
  int num_servers() const { return static_cast<int>(files_.size()); }

  // Extends the ledger for a live cluster resize; existing tallies survive.
  void Grow(int num_servers);

  void Reset();

 private:
  std::vector<std::unordered_set<FileId>> files_;
  std::vector<int64_t> routed_;
};

// --- Skew summaries ----------------------------------------------------------

// Imbalance statistics over one per-server load vector. A perfectly
// balanced vector has max_over_mean == 1 and cv == 0.
struct SkewSummary {
  int64_t max = 0;
  double mean = 0.0;
  double max_over_mean = 0.0;  // 0 when the vector sums to zero
  double cv = 0.0;             // coefficient of variation (stddev / mean)
};

SkewSummary ComputeSkew(const std::vector<int64_t>& loads);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_SHARDING_H_
