// Server crash recovery and partition staleness accounting.
//
// Sprite servers keep their open-state table in volatile memory, so a
// server reboot would orphan every client handle if clients did not
// re-register ("reopen") their open files during the server's recovery
// window. This header holds the pieces of that protocol that are shared
// across layers:
//   * Status / stale-handle surfacing: a reopen can fail (the file was
//     deleted while the server was down, or the reopen raced a conflicting
//     writer); the failure propagates to the workload layer as
//     Status::kStaleHandle and is retried there as a fresh open.
//   * StaleDataTracker: asymmetric partitions drop server->client
//     consistency callbacks, so a partitioned client's cache silently goes
//     stale; the tracker records the dropped callbacks and counts reads
//     served from flagged (possibly stale) cached data. It is pure
//     accounting — it never changes simulation behavior.
//   * FaultSchedule: parsed form of `sprite_analyze --crash-schedule`,
//     applied to a live cluster as deterministic queue events.
//
// The epoch/grace-window mechanics live in RpcTransport (src/fs/rpc.h);
// the reopen handler itself is Client::ReplayOpens (src/fs/client.h).

#ifndef SPRITE_DFS_SRC_FS_RECOVERY_H_
#define SPRITE_DFS_SRC_FS_RECOVERY_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/fs/types.h"
#include "src/obs/observability.h"
#include "src/trace/record.h"  // OpenMode
#include "src/util/units.h"

namespace sprite {

class Cluster;

// Outcome of a recovery-time reopen.
enum class Status {
  kOk = 0,
  // The handle could not be re-registered: the file no longer exists, or a
  // conflicting writer bumped the version past the client's dirty data.
  kStaleHandle = 1,
};

const char* StatusName(Status status);

// What the workload layer needs to retry a stale handle as a fresh open.
struct StaleHandleInfo {
  FileId file = 0;
  UserId user = 0;
  OpenMode mode = OpenMode::kRead;
  bool migrated = false;
};

// Records the consistency callbacks an asymmetric partition dropped and the
// cached reads that may therefore have returned stale data (the Table 11
// analysis, measured live instead of replayed). Owned by the Cluster; the
// RpcTransport notes drops, clients note cached reads and clears.
class StaleDataTracker {
 public:
  // Mirrors the aggregate counts into the metrics registry (additive keys
  // "recovery.dropped_callbacks" / "recovery.stale_reads"); null detaches.
  void AttachObservability(Observability* obs);

  // A server->client callback never arrived. `flags_stale` marks callbacks
  // whose loss leaves the client caching data the server has invalidated
  // (cache-disable, token recall, discard); a lost dirty-data recall is
  // counted but does not flag the client's own (newest) copy as stale.
  void NoteDroppedCallback(ClientId client, ServerId server, FileId file, bool flags_stale,
                           SimTime now);
  // The client re-synced `file` with its server (open / reopen / local
  // invalidation): cached data is no longer suspect.
  void ClearFile(ClientId client, FileId file);
  // A read was served from `client`'s cache; counts a stale-read event when
  // the (client, file) pair is flagged.
  void NoteCachedRead(ClientId client, FileId file, SimTime now);

  // Whether the (client, file) pair is flagged stale. No production caller:
  // RecoveryTest.PartitionDropsCallbacksAndFlagsStaleReads probes the flag
  // through it.
  bool IsFlagged(ClientId client, FileId file) const {
    return flagged_.count({client, file}) != 0;
  }

  int64_t dropped_callbacks() const { return dropped_callbacks_; }
  int64_t stale_reads() const { return stale_reads_; }
  const std::set<ClientId>& clients_affected() const { return clients_affected_; }

  // Zeroes the measurement counts; the flagged set is simulation state (like
  // cache contents) and survives a warmup reset.
  void ResetCounts();

 private:
  std::set<std::pair<ClientId, FileId>> flagged_;
  int64_t dropped_callbacks_ = 0;
  int64_t stale_reads_ = 0;
  std::set<ClientId> clients_affected_;
  Counter* dropped_counter_ = nullptr;
  Counter* stale_read_counter_ = nullptr;
};

// --- Fault schedules ---------------------------------------------------------

struct CrashEvent {
  ServerId server = 0;
  SimTime at = 0;
  SimDuration down_for = 0;
};

struct PartitionEvent {
  ClientId first_client = 0;
  ClientId last_client = 0;  // inclusive
  ServerId server = 0;
  SimTime at = 0;
  SimDuration heal_after = 0;
};

struct ClientCrashEvent {
  ClientId client = 0;
  SimTime at = 0;
};

struct FaultSchedule {
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;
  std::vector<ClientCrashEvent> client_crashes;

  bool empty() const {
    return crashes.empty() && partitions.empty() && client_crashes.empty();
  }
};

// Parses the `--crash-schedule` mini-language: comma-separated events of
//   crash:<server>[+<server>...]@<at_sec>+<down_sec>
//                                              server crash + reboot; a
//                                              '+'-joined group crashes
//                                              together (correlated failure:
//                                              one CrashEvent per member,
//                                              same window)
//   part:<first>-<last>x<server>@<at_sec>+<dur_sec>
//                                              clients [first,last] lose one
//                                              server, healing after dur_sec
//   ccrash:<client>@<at_sec>                   client crash + instant reboot
// Times are seconds of simulated time from the start of the run (warmup
// included). Throws std::invalid_argument on malformed specs, including a
// duplicated server inside one crash group.
FaultSchedule ParseFaultSchedule(const std::string& spec);

// Schedules every event of `schedule` on the cluster's event queue (crashes
// via Cluster::CrashServer, partitions via Cluster::PartitionClients). The
// cluster must outlive the queue run. Event ids beyond the cluster's client
// and server counts throw std::invalid_argument.
void ApplyFaultSchedule(Cluster& cluster, const FaultSchedule& schedule);

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_RECOVERY_H_
