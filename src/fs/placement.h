// One placement map: which home slot a file routes to, which servers serve
// and shadow each slot, and which servers are retired or down.
//
// A *home slot* is the id a file routes to; slot h starts out served by
// server h. A file's slot resolves in three layers, later layers winning:
//
//   1. base policy — the immutable Sharder (modulo/hash/range/dir);
//   2. membership  — the ordered AddServer/RetireServer history, applied as a
//                    deterministic cascade over the base slot;
//   3. file homes  — per-file slots set by hot-spot migrations (and
//                    rewritten off a retiring server).
//
// Each slot has an active server, a standby that shadows it under
// replication, and a shadowing bit; each server has one retired bit and one
// outage end. Fail-over (Promote), rejoin (SetShadowing), migration
// (SetHome), AddServer and RetireServer are all edits of this one map,
// driven explicitly by the Cluster, so routing is a pure function of the
// edit history and same-seed runs route identically.
//
// A slot's standby is the next live server after its active in ring order:
// (h + 1) % n while membership does not change. A fail-over swaps active and
// standby, so one server can serve two slots (the "server.N.role" gauge). A
// membership edit re-picks every standby, hands a slot whose active retires
// to the first live server at or after the slot, and pauses every shadow
// until the Cluster rebuilds it. With replication off a slot has no standby
// (Standby(h) == Active(h)) and never shadows.

#ifndef SPRITE_DFS_SRC_FS_PLACEMENT_H_
#define SPRITE_DFS_SRC_FS_PLACEMENT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/sharding.h"
#include "src/fs/types.h"

namespace sprite {

class Placement {
 public:
  // Throws std::invalid_argument for a bad sharding config, and for
  // replication on fewer than two servers (a server cannot back itself up).
  Placement(const ShardingConfig& sharding, int num_servers, bool replicated);

  // --- Routing --------------------------------------------------------------

  // The slot `file` routes to; never a retired one. Without membership
  // edits or file homes it is the base policy's placement.
  ServerId Home(FileId file) const {
    return homes_.empty() && events_.empty() ? sharder_->ServerFor(file) : RoutedHome(file);
  }
  ServerId Active(ServerId home) const { return active_[home]; }
  ServerId Standby(ServerId home) const { return standby_[home]; }
  // True while the standby holds a live shadow of the slot's volatile state
  // (fail-over is possible).
  bool Shadowing(ServerId home) const { return shadowing_[home] != 0; }

  const Sharder& sharder() const { return *sharder_; }
  bool replicated() const { return replicated_; }
  int num_servers() const { return static_cast<int>(active_.size()); }
  // Files whose slot a migration set explicitly (the report's "overrides").
  int64_t file_homes() const { return static_cast<int64_t>(homes_.size()); }

  // --- Membership -------------------------------------------------------------

  // A retired server's slot is dead: nothing routes to it or is served by it.
  bool IsRetired(ServerId server) const { return retired_[server]; }
  // True while `server` is crashed at `now`.
  bool IsDown(ServerId server, SimTime now) const { return now < down_until_[server]; }
  // Overlapping crashes extend the outage, never shorten it.
  void ExtendOutage(ServerId server, SimTime until);

  // Live slots whose active / standby is `server`, ascending.
  std::vector<ServerId> HomesActiveOn(ServerId server) const { return HomesOn(active_, server); }
  std::vector<ServerId> HomesStandbyOn(ServerId server) const { return HomesOn(standby_, server); }
  // Live slots `server` serves — the "server.N.role" gauge: 1 is a plain
  // primary, 0 a demoted (failed-over) server, 2+ a server that absorbed
  // failed peers' slots.
  int64_t ActiveHomeCount(ServerId server) const {
    return static_cast<int64_t>(HomesActiveOn(server).size());
  }

  // --- Edits ------------------------------------------------------------------

  // Fail-over: the standby becomes active, the failed active becomes the
  // (down, not shadowing) standby.
  void Promote(ServerId home);
  void SetShadowing(ServerId home, bool on) { shadowing_[home] = on ? 1 : 0; }
  // Routes `file` to slot `home` from now on (a hot-spot migration).
  void SetHome(FileId file, ServerId home) { homes_[file] = home; }
  // Adds one server and its slot. An add steals a deterministic 1/(live+1)
  // slice of every slot's files for the newcomer. Returns the new id.
  ServerId AddServer();
  // Retires `server`: its slot's files remap over the surviving live set,
  // and file homes pointing at it are rewritten the same way.
  void RetireServer(ServerId server);

 private:
  // One recorded membership event, applied to a base slot as a cascade.
  struct MembershipEvent {
    enum class Kind { kAdd, kRetire };
    Kind kind = Kind::kAdd;
    ServerId server = 0;               // the added / retired server
    std::vector<ServerId> live_after;  // live set after the event, ascending
  };

  ServerId RoutedHome(FileId file) const;
  ServerId CascadedHome(FileId file) const;
  std::vector<ServerId> HomesOn(const std::vector<ServerId>& role, ServerId server) const;
  // The first live server at or after `from` in ring order.
  ServerId NextLive(ServerId from) const;
  // Records the event, re-homes slots whose active retired, re-picks every
  // standby and pauses every shadow.
  void Record(MembershipEvent::Kind kind, ServerId server);

  std::unique_ptr<Sharder> sharder_;
  bool replicated_;
  std::vector<MembershipEvent> events_;
  std::unordered_map<FileId, ServerId> homes_;
  std::vector<ServerId> active_;    // [slot] -> serving server
  std::vector<ServerId> standby_;   // [slot] -> shadowing server
  std::vector<uint8_t> shadowing_;  // [slot] -> shadow is live
  std::vector<bool> retired_;       // [server]
  std::vector<SimTime> down_until_;  // [server] end of latest outage
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_PLACEMENT_H_
