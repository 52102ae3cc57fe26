// Network model: a shared 10 Mbit/s Ethernet carrying RPCs between diskless
// clients and file servers.
//
// Two modes, selected by NetworkConfig::contention:
//
//  * Analytic (default): per-transfer service time plus utilization
//    accounting, which is all the paper's analyses need — the paper observed
//    the network only ~4% utilized by paging. Server-side queueing is
//    modeled separately by the RpcTransport's per-server service queues when
//    RpcConfig::async is set (see src/fs/rpc.h).
//  * Contended: each transfer occupies a per-(client, server) link horizon
//    and a shared medium horizon (medium_capacity link-bandwidths wide), so
//    overlapping transfers queue and the queueing is measurable
//    (WireOutcome::queued). Deterministic loss (splitmix64 over the transfer
//    sequence) costs a retransmit timeout plus a resend and halves the
//    link's congestion window; a simple cwnd pacer charges one extra
//    rpc_latency round trip per window of MSS segments beyond the first.
//    All state is seed-free and call-order deterministic.
//
// Busy-time accounting splits per-RPC into the fixed protocol overhead
// (rpc_latency: interrupts, protocol processing, the exchange itself) and
// the payload transfer term, both of which occupy the shared medium, so
// Utilization() is faithful even on control-RPC-heavy (open/close
// dominated) workloads where the overhead term dominates. Utilization() is
// clamped to 1.0 — overlapping contended/async transfers can legitimately
// accumulate more busy time than wall time — with the overshoot exposed via
// RawUtilization()/Saturated() instead of a silent >100% report.

#ifndef SPRITE_DFS_SRC_FS_NET_H_
#define SPRITE_DFS_SRC_FS_NET_H_

#include <cstdint>
#include <vector>

#include "src/fs/config.h"
#include "src/fs/types.h"
#include "src/util/units.h"

namespace sprite {

class Network {
 public:
  // Result of one wire exchange. In analytic mode latency == RpcTime(bytes)
  // and the contention fields are zero.
  struct WireOutcome {
    SimDuration latency = 0;  // total the caller absorbs
    SimDuration queued = 0;   // waited for the link / shared medium
    SimDuration pacing = 0;   // cwnd pacer round-trip stalls
    int retransmits = 0;      // deterministic losses paid for
  };

  explicit Network(const NetworkConfig& config) : config_(config) {}

  // Accounts one wire exchange carrying `payload_bytes` on the (client,
  // server) link at sim time `now`; the transport's only entry point. With
  // contention off it costs RpcTime(payload_bytes) whatever the link or
  // time; with contention on it adds link/medium queueing, deterministic
  // loss/retransmit, and pacing.
  WireOutcome Transfer(ClientId client, ServerId server, int64_t payload_bytes, SimTime now);

  // Latency (fixed RPC overhead + transfer time) without accounting; replay
  // ledgers use it.
  SimDuration RpcTime(int64_t payload_bytes) const;
  // Payload transfer term alone (no fixed overhead).
  SimDuration TransferTime(int64_t payload_bytes) const;

  bool contention_enabled() const { return config_.contention; }

  int64_t rpc_count() const { return rpc_count_; }
  int64_t bytes_carried() const { return bytes_carried_; }
  // Total time the medium was occupied: fixed per-RPC overhead plus payload
  // transfer. The split accessors feed the overhead/transfer regression
  // tests and let analyses attribute utilization to control vs data RPCs.
  SimDuration busy_time() const { return overhead_busy_time_ + transfer_busy_time_; }
  SimDuration overhead_busy_time() const { return overhead_busy_time_; }
  SimDuration transfer_busy_time() const { return transfer_busy_time_; }

  // Fraction of capacity used over `elapsed` of simulated time, clamped to
  // 1.0. RawUtilization() reports the unclamped ratio; Saturated() is true
  // when it exceeds 1.0 (only possible with overlapping contended/async
  // transfers).
  double Utilization(SimDuration elapsed) const;
  double RawUtilization(SimDuration elapsed) const;
  bool Saturated(SimDuration elapsed) const { return RawUtilization(elapsed) > 1.0; }

  // Contention-mode counters (all zero in analytic mode).
  int64_t retransmits() const { return retransmits_; }
  int64_t contended_transfers() const { return contended_transfers_; }
  SimDuration queued_time() const { return queued_time_; }

 private:
  struct LinkState {
    SimTime busy_until = 0;
    int64_t cwnd = 0;  // 0 = not yet initialized from config
  };

  LinkState& LinkFor(ClientId client, ServerId server);

  NetworkConfig config_;
  int64_t rpc_count_ = 0;
  int64_t bytes_carried_ = 0;
  SimDuration overhead_busy_time_ = 0;
  SimDuration transfer_busy_time_ = 0;

  // Contended-mode state.
  std::vector<std::vector<LinkState>> links_;  // [client][server]
  SimTime medium_free_ = 0;
  uint64_t transfer_seq_ = 0;
  int64_t retransmits_ = 0;
  int64_t contended_transfers_ = 0;
  SimDuration queued_time_ = 0;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_FS_NET_H_
