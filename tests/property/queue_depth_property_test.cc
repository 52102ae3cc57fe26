// The server's on-read queue depth against the two-event counter it
// replaced, which this file keeps as the oracle. Each seeded run drives
// random async traffic through an RpcTransport and a Server on a real
// EventQueue: bursts from events at random instants, issue times ahead of
// and behind the queue's clock, arrivals and completions aimed at read
// instants, server crashes whose grace windows serve reopen storms with
// priority, and bursts that back the server up for longer than the read
// period. For every admitted call the oracle schedules the old arrival and
// completion events, which move a counter. A PeriodicTask compares
// Server::QueueDepth with the counter every period; one more read follows
// the final RunUntil (a trailing partial window), and another follows
// admissions made after it, outside dispatch, that arrive at that instant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "src/fs/net.h"
#include "src/fs/rpc.h"
#include "src/fs/server.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace sprite {
namespace {

constexpr SimDuration kPeriod = 10 * kMillisecond;
// Not a multiple of kPeriod: the last read after RunUntil closes a partial
// window.
constexpr SimTime kEnd = 3 * kSecond + 3 * kMillisecond + 500;
constexpr int kClients = 4;

struct Outage {
  SimTime from = 0;
  SimTime until = 0;
  SimTime grace_until = 0;
};

class QueueDepthProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  QueueDepthProperty()
      : rng_(GetParam()),
        config_(MakeConfig(rng_)),
        transport_(NetworkConfig{}, config_),
        server_(0, ServerConfig{}, DiskConfig{}) {
    server_.EnableServiceQueue(config_, queue_);
    transport_.RegisterServer(0, &server_);
  }

  static RpcConfig MakeConfig(Rng& rng) {
    RpcConfig rpc;
    rpc.async = true;
    rpc.control_service_time = 1 * kMillisecond;
    rpc.data_service_time = 3 * kMillisecond;
    const int depths[] = {1, 3, 64};
    rpc.max_queue_depth = depths[rng.NextBelow(3)];
    // Short enough that calls issued into an outage reach the server soon
    // after it reboots, inside its grace window.
    rpc.timeout = 20 * kMillisecond;
    rpc.backoff_initial = 5 * kMillisecond;
    rpc.backoff_max = 40 * kMillisecond;
    rpc.recovery_grace = 150 * kMillisecond;
    return rpc;
  }

  static int64_t Bytes(RpcKind kind) {
    return RpcKindInfoOf(kind).lane == RpcLane::kData ? kBlockSize : kControlRpcBytes;
  }

  SimDuration Net(RpcKind kind) const { return Network(NetworkConfig{}).RpcTime(Bytes(kind)); }

  SimDuration Service(RpcKind kind) const {
    return RpcKindInfoOf(kind).lane == RpcLane::kData ? config_.data_service_time
                                                      : config_.control_service_time;
  }

  bool InGrace(SimTime t) const {
    return std::any_of(outages_.begin(), outages_.end(),
                       [t](const Outage& o) { return t >= o.until && t < o.grace_until; });
  }

  // One transport call. When the server admits it, the oracle schedules the
  // two events the transport used to schedule inside Serve, clamped to the
  // clock the same way; nothing else is scheduled between that admission
  // and this return. The call's own ledger row gives its arrival: a nested
  // reopen storm books only kReopen rows, and only non-reopen calls nest.
  SimDuration Call(RpcKind kind, ClientId client, SimTime issue) {
    const RpcStat before = transport_.ledger().stat(kind);
    const SimDuration latency = transport_.Call(kind, client, 0, Bytes(kind), issue);
    if (!RpcKindInfoOf(kind).charges_network()) {
      return latency;
    }
    const RpcStat& after = transport_.ledger().stat(kind);
    const SimTime arrival =
        issue + (after.wait_time - before.wait_time) + (after.net_time - before.net_time);
    const SimTime base = queue_.now();
    queue_.Schedule(std::max(arrival, base), [this] { ++oracle_; });
    queue_.Schedule(std::max(issue + latency, base), [this] { --oracle_; });
    visits_.push_back({std::max(arrival, base), std::max(issue + latency, base)});
    behind_clock_ += issue < base ? 1 : 0;
    priority_ += kind == RpcKind::kReopen && InGrace(arrival) ? 1 : 0;
    return latency;
  }

  // One burst at the current instant.
  void Burst() {
    static constexpr RpcKind kKinds[] = {RpcKind::kOpen,       RpcKind::kClose,
                                         RpcKind::kReadBlock,  RpcKind::kWriteBlock,
                                         RpcKind::kReopen,     RpcKind::kGetAttr,
                                         RpcKind::kUncachedRead};
    const SimTime now = queue_.now();
    // Now and then a burst long enough to back the server up for several
    // read periods.
    const int calls = rng_.NextBelow(20) == 0 ? 15 + static_cast<int>(rng_.NextBelow(20))
                                              : 1 + static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < calls; ++i) {
      const RpcKind kind = kKinds[rng_.NextBelow(std::size(kKinds))];
      const auto client = static_cast<ClientId>(rng_.NextBelow(kClients));
      // A read instant at or after the last one before now.
      const SimTime read = (now / kPeriod + static_cast<SimTime>(rng_.NextBelow(3))) * kPeriod;
      SimTime issue = now;
      switch (rng_.NextBelow(4)) {
        case 0:  // arrive exactly at a read instant
          issue = read - Net(kind);
          break;
        case 1:  // complete exactly at a read instant if served on arrival
          issue = read - Net(kind) - Service(kind);
          break;
        case 2:  // ahead of the clock
          issue = now + static_cast<SimDuration>(rng_.NextBelow(20 * kMillisecond));
          break;
        default:  // behind the clock
          issue = now - static_cast<SimDuration>(rng_.NextBelow(5 * kMillisecond));
          break;
      }
      Call(kind, client, std::max<SimTime>(issue, 0));
    }
  }

  // The on-read count against the oracle, plus coverage tallies.
  void Read(SimTime t) {
    const int64_t depth = server_.QueueDepth();
    if (depth != oracle_) {
      if (mismatches_ == 0) {
        ADD_FAILURE() << "seed " << GetParam() << ": depth " << depth << " at " << t
                      << " us, the events counted " << oracle_;
      }
      ++mismatches_;
    }
    ++reads_;
    nonzero_reads_ += depth > 0 ? 1 : 0;
    bool backlog = false;  // a request at the server now is still there next read
    for (const auto& [arrival, completion] : visits_) {
      arrival_ties_ += arrival == t ? 1 : 0;
      completion_ties_ += completion == t ? 1 : 0;
      backlog = backlog || (arrival <= t && completion > t + kPeriod);
    }
    backlog_reads_ += backlog ? 1 : 0;
  }

  Rng rng_;
  RpcConfig config_;
  EventQueue queue_;
  RpcTransport transport_;
  Server server_;
  std::vector<Outage> outages_;
  int64_t oracle_ = 0;
  std::vector<std::pair<SimTime, SimTime>> visits_;  // clamped arrival, completion
  int64_t mismatches_ = 0;
  int64_t reads_ = 0;
  int64_t nonzero_reads_ = 0;
  int64_t arrival_ties_ = 0;
  int64_t completion_ties_ = 0;
  int64_t backlog_reads_ = 0;
  int64_t behind_clock_ = 0;
  int64_t priority_ = 0;
};

TEST_P(QueueDepthProperty, OnReadCountMatchesTheArrivalAndCompletionEvents) {
  // Two crashes, scheduled with the transport when they happen, as the
  // Cluster does. Each reboot's grace window takes reopen storms, which the
  // epoch handshake runs nested inside the first call that reaches it.
  for (uint64_t epoch = 2; epoch <= 3; ++epoch) {
    const SimTime from = static_cast<SimTime>(epoch - 1) * kSecond +
                         static_cast<SimTime>(rng_.NextBelow(300)) * kMillisecond;
    const SimTime until = from + 50 * kMillisecond;
    outages_.push_back({from, until, until + config_.recovery_grace});
    queue_.Schedule(from, [this, from, until, epoch] {
      server_.Crash(from);
      transport_.ScheduleServerCrash(0, from, until, epoch);
    });
  }
  for (ClientId c = 0; c < kClients; ++c) {
    transport_.SetReopenHandler(c, [this, c](ServerId, SimTime t) {
      SimDuration storm = 0;
      for (int i = 0; i < 3; ++i) {
        storm += Call(RpcKind::kReopen, c, t + storm);
      }
      return storm;
    });
  }
  // Bursts at random instants, some of them exactly on read instants (where
  // FIFO order decides whether the reader runs before or after them).
  for (int i = 0; i < 300; ++i) {
    const SimTime at = rng_.NextBelow(4) == 0
                           ? static_cast<SimTime>(rng_.NextBelow(kEnd / kPeriod)) * kPeriod
                           : static_cast<SimTime>(rng_.NextBelow(kEnd));
    queue_.Schedule(at, [this] { Burst(); });
  }
  PeriodicTask reader(queue_, kPeriod, kPeriod, [this](SimTime t) { Read(t); });
  queue_.RunUntil(kEnd);
  Read(queue_.now());

  // Admissions outside dispatch, arriving at the current instant: their
  // events have not run, so they do not count until the queue runs again.
  const SimTime now = queue_.now();
  for (ClientId c = 0; c < kClients; ++c) {
    Call(RpcKind::kOpen, c, now - Net(RpcKind::kOpen));
  }
  Read(now);
  queue_.RunUntil(now);
  Read(now);

  EXPECT_EQ(mismatches_, 0);
  EXPECT_GT(reads_, 300);
  EXPECT_GT(nonzero_reads_, 10);
  EXPECT_GT(arrival_ties_, 0);
  EXPECT_GT(completion_ties_, 0);
  EXPECT_GT(backlog_reads_, 0);
  EXPECT_GT(behind_clock_, 0);
  EXPECT_GT(priority_, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueDepthProperty, ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace sprite
