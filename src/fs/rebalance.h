// Live shard rebalancing: hotspot-driven home migration and elastic resize.
//
// The paper's Table 7 load skew (Allspice absorbing most of Sprite's traffic)
// is something the measured system could only fix offline, by hand-moving
// subtrees between servers. This module closes the loop at simulation time:
// the Rebalancer subscribes to the HotspotDetector's episode stream and,
// when an episode opens on a server, migrates that server's heaviest homed
// files to the lightest-loaded peer through a charged three-RPC protocol
// (DESIGN.md §11). It also settles elastic resize: after AddServer /
// RetireServer edit the Placement, it migrates every file whose serving
// server changed — per membership event only ~1/(n+1) of the id space moves
// (a consistent-hash-style steal on add, a remap of just the retiree's files
// on retire) instead of the full reshuffle a naive `file % n` recompute
// would cause.
//
// The Rebalancer is policy only: it decides *what* to move and reads and
// edits routing through the Placement (src/fs/placement.h); the Cluster (as
// RebalanceHost) executes the charged protocol and owns the servers. This
// split keeps the policy unit-testable with a fake host and no simulator.

#ifndef SPRITE_DFS_SRC_FS_REBALANCE_H_
#define SPRITE_DFS_SRC_FS_REBALANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/placement.h"
#include "src/fs/types.h"
#include "src/obs/hotspot.h"

namespace sprite {

// "No server": ServerId is unsigned, so destination selection needs an
// explicit sentinel for "no live destination exists".
inline constexpr ServerId kNoServer = static_cast<ServerId>(-1);

// What one executed migration cost. Reported by the host so the Rebalancer
// can account moved bytes against the movement budget.
struct MigrationOutcome {
  bool ok = false;            // false: file vanished or source == destination
  int64_t moved_bytes = 0;    // file image bytes transferred (meta + data)
  SimDuration latency = 0;    // summed charged RPC latency of the move
};

// The cluster surface the Rebalancer drives. Implemented by Cluster; tests
// implement it with an in-memory fake.
class RebalanceHost {
 public:
  virtual ~RebalanceHost() = default;

  // The files whose metadata `server` holds, with their sizes, sorted by id.
  virtual std::vector<std::pair<FileId, int64_t>> HomedFiles(ServerId server) const = 0;
  // Total bytes homed on `server` (destination selection key).
  virtual int64_t HomedBytes(ServerId server) const = 0;
  // Executes the charged migration protocol for one file, from `from` to
  // the server now active for slot `to_home`.
  virtual MigrationOutcome Migrate(FileId file, ServerId from, ServerId to_home,
                                   SimTime now) = 0;
};

// One completed hot-spot-driven migration burst (one consumed kOpened
// episode), for the report.
struct RebalanceAction {
  int server = 0;            // the hot server files were pulled from
  SimTime at = 0;            // when the burst executed
  int files_moved = 0;
  int64_t bytes_moved = 0;
  bool dissolved = false;    // the episode later closed (kClosed observed)
};

class Rebalancer {
 public:
  Rebalancer(const RebalanceConfig& config, Placement* placement, RebalanceHost* host);
  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  // --- Hot-spot reaction ----------------------------------------------------

  // Feeds one drained batch of detector events (call once per metrics
  // window, after HotspotDetector::Observe). kOpened episodes trigger a
  // migration burst off the hot slot's active server; kClosed episodes mark
  // earlier bursts on that slot as dissolved. Returns the number of files
  // migrated.
  int OnWindow(const std::vector<HotspotEvent>& events, SimTime now);

  // --- Elastic resize -------------------------------------------------------

  // Call after a membership edit of the Placement. `census` is the pre-edit
  // (file, server) census of every live server, sorted by file id; every
  // file whose serving server changed migrates there through the host.
  // Returns the executed moves.
  struct Move {
    FileId file = 0;
    ServerId from = 0;
    ServerId to = 0;
  };
  std::vector<Move> Resettle(const std::vector<std::pair<FileId, ServerId>>& census,
                             SimTime now);

  // --- Accounting / report --------------------------------------------------

  int64_t migrations() const { return migrations_; }
  int64_t moved_bytes() const { return moved_bytes_; }
  int64_t resize_moved_bytes() const { return resize_moved_bytes_; }
  const std::vector<RebalanceAction>& actions() const { return actions_; }
  // True when the global max_total_bytes budget (0 = unbounded) is spent.
  bool BudgetExhausted() const;

  std::string Report() const;

 private:
  ServerId PickDestination(ServerId hot_server, SimTime now) const;
  int64_t BudgetRemaining() const;

  RebalanceConfig config_;
  Placement* placement_;
  RebalanceHost* host_;

  int64_t migrations_ = 0;          // hot-spot migrations executed
  int64_t moved_bytes_ = 0;         // bytes moved by hot-spot migrations
  int64_t resize_moves_ = 0;        // files moved by resize sweeps
  int64_t resize_moved_bytes_ = 0;  // bytes moved by resize sweeps
  int64_t skipped_budget_ = 0;      // victims skipped: budget exhausted
  std::vector<RebalanceAction> actions_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_REBALANCE_H_
