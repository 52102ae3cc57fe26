#include "src/fs/placement.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sprite {

namespace {
// Per-event salt for the cascade draws. Distinct per event index so a file's
// draw at event i is independent of its draw at event j.
uint64_t EventDraw(FileId file, size_t event_index) {
  return SplitMix64(static_cast<uint64_t>(file) ^
                    (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(event_index + 1)));
}
}  // namespace

Placement::Placement(const ShardingConfig& sharding, int num_servers, bool replicated)
    : sharder_(MakeSharder(sharding, num_servers)), replicated_(replicated) {
  if (replicated && num_servers < 2) {
    throw std::invalid_argument("Placement: replication requires at least 2 servers, got " +
                                std::to_string(num_servers));
  }
  for (int s = 0; s < num_servers; ++s) {
    active_.push_back(static_cast<ServerId>(s));
    standby_.push_back(static_cast<ServerId>(replicated ? (s + 1) % num_servers : s));
  }
  shadowing_.assign(static_cast<size_t>(num_servers), replicated ? 1 : 0);
  retired_.assign(static_cast<size_t>(num_servers), false);
  down_until_.assign(static_cast<size_t>(num_servers), 0);
}

ServerId Placement::RoutedHome(FileId file) const {
  auto it = homes_.find(file);
  return it != homes_.end() ? it->second : CascadedHome(file);
}

ServerId Placement::CascadedHome(FileId file) const {
  ServerId home = sharder_->ServerFor(file);
  for (size_t i = 0; i < events_.size(); ++i) {
    const MembershipEvent& ev = events_[i];
    const uint64_t draw = EventDraw(file, i);
    if (ev.kind == MembershipEvent::Kind::kAdd) {
      // Consistent-hash-style steal: the new server claims a deterministic
      // 1/|live_after| slice of every file population; everything else stays
      // put, which is the bounded-movement guarantee.
      if (draw % ev.live_after.size() == 0) {
        home = ev.server;
      }
    } else if (home == ev.server) {
      // Only the retiree's files move; the live set is frozen at event time
      // so later retirements cannot re-route files settled by this one.
      home = ev.live_after[draw % ev.live_after.size()];
    }
  }
  return home;
}

void Placement::ExtendOutage(ServerId server, SimTime until) {
  down_until_[server] = std::max(down_until_[server], until);
}

std::vector<ServerId> Placement::HomesOn(const std::vector<ServerId>& role,
                                         ServerId server) const {
  std::vector<ServerId> homes;
  for (size_t h = 0; h < role.size(); ++h) {
    if (role[h] == server && !retired_[h]) {
      homes.push_back(static_cast<ServerId>(h));
    }
  }
  return homes;
}

void Placement::Promote(ServerId home) {
  std::swap(active_[home], standby_[home]);
  shadowing_[home] = 0;  // the new active has no live shadow behind it
}

ServerId Placement::NextLive(ServerId from) const {
  const auto n = static_cast<ServerId>(retired_.size());
  for (ServerId i = 0; i < n; ++i) {
    if (!retired_[(from + i) % n]) {
      return (from + i) % n;
    }
  }
  return from;  // unreachable: RetireServer never empties the live set
}

void Placement::Record(MembershipEvent::Kind kind, ServerId server) {
  MembershipEvent ev;
  ev.kind = kind;
  ev.server = server;
  for (size_t s = 0; s < retired_.size(); ++s) {
    if (!retired_[s]) {
      ev.live_after.push_back(static_cast<ServerId>(s));
    }
  }
  events_.push_back(std::move(ev));
  const auto n = static_cast<ServerId>(active_.size());
  for (ServerId h = 0; h < n; ++h) {
    if (retired_[active_[h]]) {
      active_[h] = NextLive(h);
    }
    standby_[h] = replicated_ ? NextLive((active_[h] + 1) % n) : active_[h];
    shadowing_[h] = 0;
  }
}

ServerId Placement::AddServer() {
  const auto added = static_cast<ServerId>(active_.size());
  active_.push_back(added);
  standby_.push_back(added);
  shadowing_.push_back(0);
  retired_.push_back(false);
  down_until_.push_back(0);
  Record(MembershipEvent::Kind::kAdd, added);
  return added;
}

void Placement::RetireServer(ServerId server) {
  if (server >= retired_.size() || retired_[server]) {
    throw std::logic_error("Placement::RetireServer: unknown or already-retired server");
  }
  const auto live = std::count(retired_.begin(), retired_.end(), false);
  if (live <= (replicated_ ? 2 : 1)) {
    throw std::logic_error(replicated_
                               ? "Placement::RetireServer: replication needs two live servers"
                               : "Placement::RetireServer: would empty the live set");
  }
  retired_[server] = true;
  const size_t event_index = events_.size();
  Record(MembershipEvent::Kind::kRetire, server);
  // File homes stranded on the retiree follow the cascade's remap target.
  const std::vector<ServerId>& live_after = events_.back().live_after;
  for (auto& [file, home] : homes_) {
    if (home == server) {
      home = live_after[EventDraw(file, event_index) % live_after.size()];
    }
  }
}

}  // namespace sprite
