#include "src/fs/rebalance.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace sprite {

Rebalancer::Rebalancer(const RebalanceConfig& config, Placement* placement,
                       RebalanceHost* host)
    : config_(config), placement_(placement), host_(host) {}

ServerId Rebalancer::PickDestination(ServerId hot_server, SimTime now) const {
  // Skips every slot the hot server itself serves: after a fail-over one
  // server can be active for two slots, and a move between them is no move.
  ServerId best = kNoServer;
  int64_t best_bytes = std::numeric_limits<int64_t>::max();
  const auto n = static_cast<ServerId>(placement_->num_servers());
  for (ServerId h = 0; h < n; ++h) {
    const ServerId server = placement_->Active(h);
    if (server == hot_server || placement_->IsRetired(h) || placement_->IsDown(server, now)) {
      continue;
    }
    const int64_t bytes = host_->HomedBytes(server);
    if (bytes < best_bytes) {  // ties keep the lowest id
      best_bytes = bytes;
      best = h;
    }
  }
  return best;
}

int64_t Rebalancer::BudgetRemaining() const {
  if (config_.max_total_bytes <= 0) {
    return std::numeric_limits<int64_t>::max();
  }
  return std::max<int64_t>(0, config_.max_total_bytes - moved_bytes_);
}

bool Rebalancer::BudgetExhausted() const {
  return config_.max_total_bytes > 0 && moved_bytes_ >= config_.max_total_bytes;
}

int Rebalancer::OnWindow(const std::vector<HotspotEvent>& events, SimTime now) {
  int moved = 0;
  for (const HotspotEvent& ev : events) {
    if (ev.kind == HotspotEvent::Kind::kClosed) {
      // The hot streak the detector opened has cooled off: credit every
      // burst we ran against that server as having dissolved the spot.
      for (RebalanceAction& a : actions_) {
        if (a.server == ev.episode.server && !a.dissolved) {
          a.dissolved = true;
        }
      }
      continue;
    }
    const ServerId hot = ev.episode.server;
    const ServerId hot_server = placement_->Active(hot);
    if (placement_->IsRetired(hot) || placement_->IsDown(hot_server, now)) {
      continue;
    }
    // Victims: the hot server's heaviest homed files, largest first (moving
    // bytes_homed share is what flips the detector's placement gate).
    std::vector<std::pair<FileId, int64_t>> victims = host_->HomedFiles(hot_server);
    std::sort(victims.begin(), victims.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) {
        return a.second > b.second;
      }
      return a.first < b.first;
    });
    RebalanceAction action;
    action.server = hot;
    action.at = now;
    int64_t episode_bytes = 0;
    for (const auto& [file, bytes] : victims) {
      if (action.files_moved >= config_.max_files_per_episode) {
        break;
      }
      if (bytes < config_.min_victim_bytes) {
        break;  // sorted descending: nothing smaller qualifies either
      }
      if (episode_bytes + bytes > config_.max_bytes_per_episode) {
        continue;  // a smaller victim may still fit
      }
      if (bytes > BudgetRemaining()) {
        ++skipped_budget_;
        continue;
      }
      const ServerId dest = PickDestination(hot_server, now);
      if (dest == kNoServer) {
        break;
      }
      const MigrationOutcome outcome = host_->Migrate(file, hot_server, dest, now);
      if (!outcome.ok) {
        continue;
      }
      placement_->SetHome(file, dest);
      ++migrations_;
      moved_bytes_ += outcome.moved_bytes;
      episode_bytes += bytes;
      ++action.files_moved;
      action.bytes_moved += outcome.moved_bytes;
      ++moved;
    }
    if (action.files_moved > 0) {
      actions_.push_back(action);
    }
  }
  return moved;
}

std::vector<Rebalancer::Move> Rebalancer::Resettle(
    const std::vector<std::pair<FileId, ServerId>>& census, SimTime now) {
  std::vector<Move> moves;
  for (const auto& [file, from] : census) {
    const ServerId home = placement_->Home(file);
    const ServerId to = placement_->Active(home);
    if (to == from) {
      continue;
    }
    const MigrationOutcome outcome = host_->Migrate(file, from, home, now);
    if (!outcome.ok) {
      continue;
    }
    ++resize_moves_;
    resize_moved_bytes_ += outcome.moved_bytes;
    moves.push_back(Move{file, from, to});
  }
  return moves;
}

std::string Rebalancer::Report() const {
  char buf[320];
  std::string out = "== Rebalance report ==\n";
  std::snprintf(buf, sizeof(buf),
                "hot-spot migrations: %lld files / %lld bytes | resize moves: %lld files / "
                "%lld bytes | overrides live: %lld\n",
                static_cast<long long>(migrations_), static_cast<long long>(moved_bytes_),
                static_cast<long long>(resize_moves_),
                static_cast<long long>(resize_moved_bytes_),
                static_cast<long long>(placement_->file_homes()));
  out += buf;
  if (config_.max_total_bytes > 0) {
    std::snprintf(buf, sizeof(buf), "budget: %lld / %lld bytes spent (%lld victims skipped)\n",
                  static_cast<long long>(moved_bytes_),
                  static_cast<long long>(config_.max_total_bytes),
                  static_cast<long long>(skipped_budget_));
    out += buf;
  }
  if (actions_.empty()) {
    out += "no hot-spot bursts executed\n";
    return out;
  }
  int64_t dissolved = 0;
  for (const RebalanceAction& a : actions_) {
    std::snprintf(buf, sizeof(buf),
                  "server %d: t=%.1fs moved %d files / %lld bytes -> %s\n", a.server,
                  ToSeconds(a.at), a.files_moved, static_cast<long long>(a.bytes_moved),
                  a.dissolved ? "hot spot dissolved" : "still hot at end of run");
    out += buf;
    if (a.dissolved) {
      ++dissolved;
    }
  }
  std::snprintf(buf, sizeof(buf), "hot spots dissolved: %lld/%lld bursts\n",
                static_cast<long long>(dissolved), static_cast<long long>(actions_.size()));
  out += buf;
  return out;
}

}  // namespace sprite
