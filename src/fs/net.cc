#include "src/fs/net.h"

#include <algorithm>
#include <limits>

#include "src/fs/sharding.h"  // SplitMix64 (deterministic loss)

namespace sprite {

SimDuration Network::TransferTime(int64_t payload_bytes) const {
  return FromSeconds(static_cast<double>(payload_bytes) / config_.bandwidth_bytes_per_sec);
}

SimDuration Network::RpcTime(int64_t payload_bytes) const {
  return config_.rpc_latency + TransferTime(payload_bytes);
}

Network::LinkState& Network::LinkFor(ClientId client, ServerId server) {
  if (static_cast<size_t>(client) >= links_.size()) {
    links_.resize(client + 1);
  }
  auto& row = links_[client];
  if (static_cast<size_t>(server) >= row.size()) {
    row.resize(server + 1);
  }
  LinkState& link = row[server];
  if (link.cwnd == 0) {
    link.cwnd = std::max<int64_t>(1, config_.cwnd_initial);
  }
  return link;
}

Network::WireOutcome Network::Transfer(ClientId client, ServerId server, int64_t payload_bytes,
                                       SimTime now) {
  // Computed once, so the returned latency and transfer_busy_time_ can
  // never drift under a rounding or bandwidth change.
  const SimDuration transfer = TransferTime(payload_bytes);
  if (!config_.contention) {
    // Analytic: one attempt, never queued; both terms occupy the medium.
    ++rpc_count_;
    bytes_carried_ += payload_bytes;
    overhead_busy_time_ += config_.rpc_latency;
    transfer_busy_time_ += transfer;
    WireOutcome out;
    out.latency = config_.rpc_latency + transfer;
    return out;
  }

  ++transfer_seq_;
  LinkState& link = LinkFor(client, server);

  // Wait for both the link (one exchange in flight per pair) and the shared
  // medium (medium_capacity link-bandwidths of aggregate occupancy).
  const SimTime start = std::max(now, std::max(link.busy_until, medium_free_));
  const SimDuration queued = start - now;

  // Deterministic loss: hash the transfer sequence number per attempt. Each
  // loss pays a retransmit timeout plus a full resend and halves the cwnd.
  int retransmits = 0;
  if (config_.loss_rate > 0.0) {
    const uint64_t threshold =
        static_cast<uint64_t>(std::min(config_.loss_rate, 1.0) *
                              static_cast<double>(std::numeric_limits<uint64_t>::max()));
    while (retransmits < 8) {
      const uint64_t h =
          SplitMix64(transfer_seq_ * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(retransmits));
      if (h >= threshold) {
        break;
      }
      ++retransmits;
    }
  }
  if (retransmits > 0) {
    link.cwnd = std::max<int64_t>(1, link.cwnd / 2);
  }

  // Pacer: a transfer spanning more than one cwnd of MSS segments pays one
  // extra rpc_latency round trip per additional window.
  const int64_t mss = std::max<int64_t>(1, config_.mss_bytes);
  const int64_t segments = std::max<int64_t>(1, (payload_bytes + mss - 1) / mss);
  const int64_t extra_windows = (segments - 1) / link.cwnd;
  const SimDuration pacing = extra_windows * config_.rpc_latency;

  const SimDuration attempts = static_cast<SimDuration>(retransmits + 1);
  const SimDuration on_wire = attempts * (config_.rpc_latency + transfer);
  const SimDuration loss_stall = retransmits * config_.retransmit_timeout;

  // Accounting: every attempt occupies the medium; loss stalls and pacing
  // gaps do not (the wire is idle while a sender waits out a timeout).
  ++rpc_count_;
  bytes_carried_ += payload_bytes;
  overhead_busy_time_ += attempts * config_.rpc_latency;
  transfer_busy_time_ += attempts * transfer;

  link.busy_until = start + on_wire + loss_stall + pacing;
  const double capacity = std::max(config_.medium_capacity, 1e-9);
  medium_free_ = std::max(medium_free_, start) +
                 static_cast<SimDuration>(static_cast<double>(on_wire) / capacity);

  if (retransmits > 0) {
    retransmits_ += retransmits;
  } else if (link.cwnd < config_.cwnd_max) {
    ++link.cwnd;
  }
  if (queued > 0) {
    ++contended_transfers_;
    queued_time_ += queued;
  }

  WireOutcome out;
  out.latency = queued + on_wire + loss_stall + pacing;
  out.queued = queued;
  out.pacing = pacing;
  out.retransmits = retransmits;
  return out;
}

double Network::RawUtilization(SimDuration elapsed) const {
  if (elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(busy_time()) / static_cast<double>(elapsed);
}

double Network::Utilization(SimDuration elapsed) const {
  return std::min(RawUtilization(elapsed), 1.0);
}

}  // namespace sprite
